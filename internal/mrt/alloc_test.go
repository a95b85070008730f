package mrt

import (
	"bytes"
	"net/netip"
	"testing"

	"bgpintent/internal/bgp"
)

// TestUpdateScannerNextZeroAlloc guards the updates decode loop: in
// steady state — reader buffer, UPDATE message and view all reused —
// UpdateScanner.Next allocates nothing per record: not for the BGP4MP
// session header, the Record, or the NLRI prefixes.
func TestUpdateScannerNextZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are noise under the race detector")
	}
	const records = 512
	var buf bytes.Buffer
	uw := NewUpdateWriter(&buf)
	peer, local := netip.MustParseAddr("198.51.100.1"), netip.MustParseAddr("198.51.100.254")
	for i := 0; i < records; i++ {
		msg := &bgp.UpdateMessage{
			Attrs: bgp.PathAttributes{
				HasOrigin:        true,
				ASPath:           bgp.NewASPath(65269, 7018, uint32(64496+i%7)),
				Communities:      bgp.Communities{bgp.NewCommunity(7018, uint16(i)), bgp.NewCommunity(1299, 100)},
				LargeCommunities: bgp.LargeCommunities{{GlobalAdmin: 7018, LocalData1: 1, LocalData2: uint32(i)}},
			},
			NLRI: []bgp.Prefix{bgp.MustParsePrefix("203.0.113.0/24")},
		}
		if err := uw.WriteUpdate(uint32(100+i), 65269, 64999, peer, local, msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := uw.Flush(); err != nil {
		t.Fatal(err)
	}
	s := NewUpdateScannerOptions(bytes.NewReader(buf.Bytes()), ScanOptions{})
	// The first records size the reused buffers; the rest are metered.
	next := func() {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < records/4; i++ {
		next()
	}
	if avg := testing.AllocsPerRun(records/2, next); avg != 0 {
		t.Errorf("UpdateScanner.Next allocates %.2f objects per record, want 0", avg)
	}
}

// TestTableDumpScannerNextZeroAlloc is the RIB-dump sibling: once the
// peer table is read and the reused RIB has grown to the widest record,
// TableDumpScanner.Next allocates nothing per view.
func TestTableDumpScannerNextZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are noise under the race detector")
	}
	const ribs = 512 // one view each, so every Next frames and decodes a record
	var buf bytes.Buffer
	tw, err := NewTableDumpWriter(&buf, 1714500000, testPeerTable())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ribs; i++ {
		prefix := bgp.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		entry := testRIBEntry(uint16(i%3), bgp.NewCommunity(1299, uint16(i)), bgp.NewCommunity(7018, 5000))
		entry.Attrs.LargeCommunities = bgp.LargeCommunities{{GlobalAdmin: 1299, LocalData1: 1, LocalData2: uint32(i)}}
		if err := tw.WriteRIB(prefix, []RIBEntry{entry}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	s := NewTableDumpScannerOptions(bytes.NewReader(buf.Bytes()), ScanOptions{})
	next := func() {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ribs/4; i++ {
		next()
	}
	if avg := testing.AllocsPerRun(ribs/2, next); avg != 0 {
		t.Errorf("TableDumpScanner.Next allocates %.2f objects per view, want 0", avg)
	}
}

package mrt

import (
	"bytes"
	"io"
	"net/netip"
	"reflect"
	"testing"

	"bgpintent/internal/bgp"
)

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	bodies := [][]byte{{1, 2, 3}, {}, {0xff}}
	for i, b := range bodies {
		if err := w.WriteRecord(uint32(1000+i), TypeBGP4MP, SubtypeBGP4MPMessageAS4, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	for i, want := range bodies {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Timestamp != uint32(1000+i) || rec.Type != TypeBGP4MP || rec.Subtype != SubtypeBGP4MPMessageAS4 {
			t.Errorf("record %d header = %+v", i, rec)
		}
		if !bytes.Equal(rec.Body, want) {
			t.Errorf("record %d body = %v, want %v", i, rec.Body, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("tail err = %v, want io.EOF", err)
	}
	// Errors are sticky.
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("repeat err = %v, want io.EOF", err)
	}
}

func TestReaderTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord(1, TypeBGP4MP, 4, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	full := buf.Bytes()

	// Truncated header.
	r := NewReader(bytes.NewReader(full[:6]))
	if _, err := r.Next(); err == nil {
		t.Error("truncated header: want error")
	}
	// Truncated body.
	r = NewReader(bytes.NewReader(full[:14]))
	if _, err := r.Next(); err == nil {
		t.Error("truncated body: want error")
	}
}

func TestReaderLengthLimit(t *testing.T) {
	hdr := make([]byte, 12)
	hdr[8], hdr[9], hdr[10], hdr[11] = 0xff, 0xff, 0xff, 0xff
	r := NewReader(bytes.NewReader(hdr))
	if _, err := r.Next(); err == nil {
		t.Error("giant length: want error")
	}
}

func testPeerTable() *PeerIndexTable {
	return &PeerIndexTable{
		CollectorBGPID: netip.MustParseAddr("10.0.0.1"),
		ViewName:       "rc1",
		Peers: []Peer{
			{BGPID: netip.MustParseAddr("10.1.0.1"), Addr: netip.MustParseAddr("198.51.100.1"), ASN: 65269},
			{BGPID: netip.MustParseAddr("10.1.0.2"), Addr: netip.MustParseAddr("2001:db8::2"), ASN: 65541},
			{BGPID: netip.MustParseAddr("10.1.0.3"), Addr: netip.MustParseAddr("198.51.100.3"), ASN: 4200000001},
		},
	}
}

func TestPeerIndexTableRoundTrip(t *testing.T) {
	want := testPeerTable()
	got, err := ParsePeerIndexTable(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.CollectorBGPID != want.CollectorBGPID || got.ViewName != want.ViewName {
		t.Errorf("header = %v %q", got.CollectorBGPID, got.ViewName)
	}
	if !reflect.DeepEqual(got.Peers, want.Peers) {
		t.Errorf("peers = %+v, want %+v", got.Peers, want.Peers)
	}
}

func TestParsePeerIndexTableErrors(t *testing.T) {
	enc := testPeerTable().Encode()
	for _, cut := range []int{2, 7, 9, 12, len(enc) - 1} {
		if _, err := ParsePeerIndexTable(enc[:cut]); err == nil {
			t.Errorf("cut at %d: want error", cut)
		}
	}
}

func testRIBEntry(peerIdx uint16, comms ...bgp.Community) RIBEntry {
	return RIBEntry{
		PeerIndex:      peerIdx,
		OriginatedTime: 1714500000,
		Attrs: bgp.PathAttributes{
			HasOrigin:   true,
			Origin:      bgp.OriginIGP,
			ASPath:      bgp.NewASPath(65269, 7018, 1299, 64496),
			HasNextHop:  true,
			NextHop:     netip.MustParseAddr("198.51.100.1"),
			Communities: comms,
		},
	}
}

func TestRIBRoundTrip(t *testing.T) {
	want := &RIB{
		SequenceNumber: 7,
		Prefix:         bgp.MustParsePrefix("192.0.2.0/24"),
		Entries: []RIBEntry{
			testRIBEntry(0, bgp.NewCommunity(1299, 2569)),
			testRIBEntry(2, bgp.NewCommunity(1299, 35130), bgp.NewCommunity(7018, 1000)),
		},
	}
	body, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseRIB(SubtypeRIBIPv4Unicast, body)
	if err != nil {
		t.Fatal(err)
	}
	if got.SequenceNumber != 7 || got.Prefix != want.Prefix || len(got.Entries) != 2 {
		t.Fatalf("got %+v", got)
	}
	for i := range want.Entries {
		w, g := want.Entries[i], got.Entries[i]
		if g.PeerIndex != w.PeerIndex || g.OriginatedTime != w.OriginatedTime {
			t.Errorf("entry %d header mismatch", i)
		}
		if !g.Attrs.ASPath.Equal(w.Attrs.ASPath) {
			t.Errorf("entry %d as path", i)
		}
		if !reflect.DeepEqual(g.Attrs.Communities, w.Attrs.Communities) {
			t.Errorf("entry %d communities = %v", i, g.Attrs.Communities)
		}
	}
}

func TestParseRIBErrors(t *testing.T) {
	rib := &RIB{Prefix: bgp.MustParsePrefix("192.0.2.0/24"), Entries: []RIBEntry{testRIBEntry(0)}}
	body, err := rib.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseRIB(99, body); err == nil {
		t.Error("bad subtype: want error")
	}
	for _, cut := range []int{2, 5, 8, 12, len(body) - 1} {
		if _, err := parseRIB(SubtypeRIBIPv4Unicast, body[:cut]); err == nil {
			t.Errorf("cut at %d: want error", cut)
		}
	}
	if _, err := parseRIB(SubtypeRIBIPv4Unicast, append(body, 0)); err == nil {
		t.Error("trailing byte: want error")
	}
}

func TestBGP4MPRoundTrip(t *testing.T) {
	msg := &bgp.UpdateMessage{
		Attrs: bgp.PathAttributes{
			HasOrigin: true,
			ASPath:    bgp.NewASPath(65269, 64496),
			Communities: bgp.Communities{
				bgp.NewCommunity(1299, 2569),
			},
		},
		NLRI: []bgp.Prefix{bgp.MustParsePrefix("192.0.2.0/24")},
	}
	wire, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want := &BGP4MPMessage{
		PeerAS:    65269,
		LocalAS:   64999,
		IfIndex:   3,
		PeerAddr:  netip.MustParseAddr("198.51.100.1"),
		LocalAddr: netip.MustParseAddr("198.51.100.254"),
		Message:   wire,
	}
	got, err := parseBGP4MP(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.PeerAS != want.PeerAS || got.LocalAS != want.LocalAS || got.IfIndex != want.IfIndex {
		t.Errorf("header = %+v", got)
	}
	if got.PeerAddr.Unmap() != want.PeerAddr || got.LocalAddr.Unmap() != want.LocalAddr {
		t.Errorf("addrs = %v %v", got.PeerAddr, got.LocalAddr)
	}
	if !bytes.Equal(got.Message, wire) {
		t.Error("message bytes differ")
	}
}

func TestBGP4MPRoundTripIPv6(t *testing.T) {
	want := &BGP4MPMessage{
		PeerAS:    1,
		LocalAS:   2,
		PeerAddr:  netip.MustParseAddr("2001:db8::1"),
		LocalAddr: netip.MustParseAddr("2001:db8::2"),
		Message:   []byte{1, 2, 3},
	}
	got, err := parseBGP4MP(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.PeerAddr != want.PeerAddr || got.LocalAddr != want.LocalAddr {
		t.Errorf("addrs = %v %v", got.PeerAddr, got.LocalAddr)
	}
}

func TestParseBGP4MPErrors(t *testing.T) {
	if _, err := parseBGP4MP([]byte{1, 2, 3}); err == nil {
		t.Error("short: want error")
	}
	body := (&BGP4MPMessage{PeerAddr: netip.MustParseAddr("10.0.0.1"), LocalAddr: netip.MustParseAddr("10.0.0.2")}).Encode()
	body[10], body[11] = 0, 9 // bad AFI
	if _, err := parseBGP4MP(body); err == nil {
		t.Error("bad AFI: want error")
	}
}

func TestTableDumpWriterScannerEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	table := testPeerTable()
	tw, err := NewTableDumpWriter(&buf, 1714500000, table)
	if err != nil {
		t.Fatal(err)
	}
	p1 := bgp.MustParsePrefix("192.0.2.0/24")
	p2 := bgp.MustParsePrefix("198.51.100.0/24")
	if err := tw.WriteRIB(p1, []RIBEntry{testRIBEntry(0, bgp.NewCommunity(1299, 1)), testRIBEntry(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteRIB(p2, []RIBEntry{testRIBEntry(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	s := NewTableDumpScannerOptions(&buf, ScanOptions{})
	// Views are only valid until the next Next call, so retain copies.
	var views []RIBView
	for {
		v, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, *v)
	}
	if len(views) != 3 {
		t.Fatalf("views = %d, want 3", len(views))
	}
	if views[0].Prefix != p1 || views[0].Peer.ASN != 65269 {
		t.Errorf("view 0 = %+v", views[0])
	}
	if views[1].Prefix != p1 || views[1].Peer.ASN != 65541 {
		t.Errorf("view 1 = %+v", views[1])
	}
	if views[2].Prefix != p2 || views[2].Peer.ASN != 4200000001 {
		t.Errorf("view 2 = %+v", views[2])
	}
	if got := s.dec.(*RIBDecoder).Table.ViewName; got != "rc1" {
		t.Errorf("view name = %q", got)
	}
}

func TestTableDumpScannerBadPeerIndex(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTableDumpWriter(&buf, 1, testPeerTable())
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteRIB(bgp.MustParsePrefix("192.0.2.0/24"), []RIBEntry{testRIBEntry(9)}); err != nil {
		t.Fatal(err)
	}
	tw.Flush()
	s := NewTableDumpScannerOptions(&buf, ScanOptions{})
	if _, err := s.Next(); err == nil {
		t.Error("peer index out of range: want error")
	}
}

func TestUpdateWriterScannerEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	uw := NewUpdateWriter(&buf)
	peer := netip.MustParseAddr("198.51.100.1")
	local := netip.MustParseAddr("198.51.100.254")
	msg := &bgp.UpdateMessage{
		Attrs: bgp.PathAttributes{
			HasOrigin:   true,
			ASPath:      bgp.NewASPath(65269, 7018, 64496),
			Communities: bgp.Communities{bgp.NewCommunity(7018, 5000)},
		},
		NLRI: []bgp.Prefix{bgp.MustParsePrefix("203.0.113.0/24")},
	}
	for i := 0; i < 3; i++ {
		if err := uw.WriteUpdate(uint32(100+i), 65269, 64999, peer, local, msg); err != nil {
			t.Fatal(err)
		}
	}
	uw.Flush()

	s := NewUpdateScannerOptions(&buf, ScanOptions{})
	count := 0
	for {
		v, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if v.PeerAS != 65269 || v.PeerAddr.Unmap() != peer {
			t.Errorf("peer = %d %v", v.PeerAS, v.PeerAddr)
		}
		if v.Timestamp != uint32(100+count) {
			t.Errorf("timestamp = %d", v.Timestamp)
		}
		if len(v.Update.NLRI) != 1 || v.Update.NLRI[0] != msg.NLRI[0] {
			t.Errorf("nlri = %v", v.Update.NLRI)
		}
		if !reflect.DeepEqual(v.Update.Attrs.Communities, msg.Attrs.Communities) {
			t.Errorf("communities = %v", v.Update.Attrs.Communities)
		}
		count++
	}
	if count != 3 {
		t.Errorf("updates = %d, want 3", count)
	}
}

func TestUpdateScannerSkipsForeignRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// A TABLE_DUMP_V2 record the update scanner must skip.
	w.WriteRecord(1, TypeTableDumpV2, SubtypePeerIndexTable, testPeerTable().Encode())
	// A BGP4MP record with an unhandled subtype (STATE_CHANGE): skipped.
	w.WriteRecord(2, TypeBGP4MP, 0, []byte{0, 0})
	w.Flush()
	uw := NewUpdateWriter(&buf)
	msg := &bgp.UpdateMessage{NLRI: []bgp.Prefix{bgp.MustParsePrefix("192.0.2.0/24")}}
	uw.WriteUpdate(3, 1, 2, netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), msg)
	uw.Flush()

	s := NewUpdateScannerOptions(&buf, ScanOptions{})
	v, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if v.Timestamp != 3 {
		t.Errorf("timestamp = %d, want 3", v.Timestamp)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Errorf("tail = %v, want io.EOF", err)
	}
}

func TestUpdateScannerLegacyRecords(t *testing.T) {
	// Hand-build a BGP4MP_MESSAGE (2-octet session) record carrying a
	// 2-octet UPDATE and verify the scanner reconstructs the path.
	var msg []byte
	attrs := []byte{0x40, bgp.AttrOrigin, 1, bgp.OriginIGP}
	asPath := []byte{bgp.SegmentTypeASSequence, 2, 0xFE, 0xF5, 0xFB, 0xF0} // 65269 64496
	attrs = append(attrs, 0x40, bgp.AttrASPath, byte(len(asPath)))
	attrs = append(attrs, asPath...)
	nlri := bgp.MustParsePrefix("192.0.2.0/24").AppendWire(nil)
	total := 19 + 2 + 2 + len(attrs) + len(nlri)
	for i := 0; i < 16; i++ {
		msg = append(msg, 0xff)
	}
	msg = append(msg, byte(total>>8), byte(total), bgp.MsgTypeUpdate, 0, 0)
	msg = append(msg, byte(len(attrs)>>8), byte(len(attrs)))
	msg = append(msg, attrs...)
	msg = append(msg, nlri...)

	var body []byte
	body = append(body, 0xFE, 0xF5) // peer AS 65269
	body = append(body, 0x00, 0x01) // local AS 1
	body = append(body, 0, 0)       // ifindex
	body = append(body, 0, 1)       // AFI IPv4
	body = append(body, 198, 51, 100, 1)
	body = append(body, 10, 0, 0, 1)
	body = append(body, msg...)

	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord(42, TypeBGP4MP, SubtypeBGP4MPMessage, body); err != nil {
		t.Fatal(err)
	}
	w.Flush()

	s := NewUpdateScannerOptions(&buf, ScanOptions{})
	v, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if v.PeerAS != 65269 {
		t.Errorf("peer AS = %d", v.PeerAS)
	}
	want := bgp.NewASPath(65269, 64496)
	if !v.Update.Attrs.ASPath.Equal(want) {
		t.Errorf("path = %v, want %v", v.Update.Attrs.ASPath, want)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Errorf("tail = %v", err)
	}
}

func TestParseBGP4MPLegacyErrors(t *testing.T) {
	if err := new(BGP4MPMessage).parse([]byte{1, 2}, 2); err == nil {
		t.Error("short body accepted")
	}
	bad := []byte{0, 1, 0, 2, 0, 0, 0, 9} // AFI 9
	if err := new(BGP4MPMessage).parse(bad, 2); err == nil {
		t.Error("bad AFI accepted")
	}
	short := []byte{0, 1, 0, 2, 0, 0, 0, 1, 10, 0} // truncated addresses
	if err := new(BGP4MPMessage).parse(short, 2); err == nil {
		t.Error("truncated addresses accepted")
	}
}

// parseRIB and parseBGP4MP decode one record body into a fresh value.
func parseRIB(subtype uint16, body []byte) (*RIB, error) {
	var rib RIB
	return &rib, ParseRIBInto(subtype, body, &rib)
}

func parseBGP4MP(body []byte) (*BGP4MPMessage, error) {
	m := new(BGP4MPMessage)
	return m, m.parse(body, 4)
}

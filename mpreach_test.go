package bgpintent

import (
	"context"
	"encoding/binary"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"bgpintent/internal/mrt"
)

// mpUpdate hand-builds a BGP UPDATE with no withdrawn routes and no
// classic NLRI: ORIGIN, AS_PATH 65269 7018 64496, COMMUNITIES 7018:5000,
// then the given raw attribute (type code + payload) — the shape every
// IPv6 announcement in a RouteViews/RIS updates file has.
func mpUpdate(code byte, payload []byte) []byte {
	attrs := []byte{0x40, 1, 1, 0} // ORIGIN IGP
	attrs = append(attrs, 0x40, 2, 14, 2, 3)
	for _, asn := range []uint32{65269, 7018, 64496} {
		attrs = binary.BigEndian.AppendUint32(attrs, asn)
	}
	attrs = append(attrs, 0xc0, 8, 4)
	attrs = binary.BigEndian.AppendUint32(attrs, 7018<<16|5000)
	attrs = append(attrs, 0x80, code, byte(len(payload)))
	attrs = append(attrs, payload...)

	msg := make([]byte, 16, 64)
	for i := range msg {
		msg[i] = 0xff
	}
	msg = binary.BigEndian.AppendUint16(msg, uint16(19+2+2+len(attrs)))
	msg = append(msg, 2)    // UPDATE
	msg = append(msg, 0, 0) // no withdrawn routes
	msg = binary.BigEndian.AppendUint16(msg, uint16(len(attrs)))
	return append(msg, attrs...)
}

// TestLoadMRTCountsMPReachAnnouncements: an UPDATE whose only NLRI sits
// inside MP_REACH_NLRI (attribute 14, RFC 4760) announces routes and
// must contribute its (path, communities) tuple, exactly like the same
// route met in a RIB_IPV6_UNICAST record; an MP_UNREACH_NLRI-only UPDATE
// announces nothing; a malformed MP_REACH_NLRI is a decode failure —
// a counted skip when lenient, an error when strict.
func TestLoadMRTCountsMPReachAnnouncements(t *testing.T) {
	nextHop := netip.MustParseAddr("2001:db8::1").As16()
	reach := []byte{0, 2, 1, 16} // AFI 2 (IPv6), SAFI 1 (unicast), 16-octet next hop
	reach = append(reach, nextHop[:]...)
	reach = append(reach, 0)                          // reserved
	reach = append(reach, 32, 0x20, 0x01, 0x0d, 0xb8) // 2001:db8::/32
	unreach := []byte{0, 2, 1, 32, 0x20, 0x01, 0x0d, 0xb8}
	overrun := reach[:4+7] // next hop cut short: its length overruns the attribute

	write := func(name string, msgs ...[]byte) string {
		path := filepath.Join(t.TempDir(), name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := mrt.NewWriter(f)
		for i, msg := range msgs {
			rec := mrt.BGP4MPMessage{
				PeerAS: 65269, LocalAS: 64999,
				PeerAddr: netip.MustParseAddr("2001:db8::2"), LocalAddr: netip.MustParseAddr("2001:db8::fe"),
				Message: msg,
			}
			if err := w.WriteRecord(uint32(100+i), mrt.TypeBGP4MP, mrt.SubtypeBGP4MPMessageAS4, rec.Encode()); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	load := func(path string, strict bool) (*Corpus, LoadStats, error) {
		return LoadMRT(context.Background(), Sources{Updates: []string{path}},
			LoadOptions{Strict: strict, MaxErrorRate: -1, Parallelism: 1})
	}

	c, st, err := load(write("reach.mrt", mpUpdate(14, reach)), true)
	if err != nil {
		t.Fatal(err)
	}
	if c.Tuples() != 1 || c.Paths() != 1 || !st.Clean() {
		t.Errorf("MP_REACH_NLRI announcement: %d tuples, %d paths (%s), want 1 and 1, clean", c.Tuples(), c.Paths(), st.Summary())
	}
	if got := c.Communities(); len(got) != 1 || got[0].String() != "7018:5000" {
		t.Errorf("communities = %v, want [7018:5000]", got)
	}

	c, st, err = load(write("unreach.mrt", mpUpdate(15, unreach)), true)
	if err != nil {
		t.Fatal(err)
	}
	if c.Tuples() != 0 || st.Decoded != 1 || !st.Clean() {
		t.Errorf("MP_UNREACH_NLRI only: %d tuples (%s), want 0 from 1 cleanly decoded record", c.Tuples(), st.Summary())
	}

	mixed := write("mixed.mrt", mpUpdate(14, reach), mpUpdate(14, overrun), mpUpdate(14, reach[:3]))
	c, st, err = load(mixed, false)
	if err != nil {
		t.Fatal(err)
	}
	if c.Tuples() != 1 || st.Skipped != 2 || st.Decoded != 1 {
		t.Errorf("lenient load of truncated MP_REACH_NLRI: %d tuples (%s), want 1 tuple, 1 decoded, 2 skipped", c.Tuples(), st.Summary())
	}
	if _, _, err := load(mixed, true); err == nil {
		t.Error("strict load accepted a truncated MP_REACH_NLRI")
	}
}

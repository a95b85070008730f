package mrt

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"bgpintent/internal/bgp"
)

// TestRIBEntryExtendedLengthCommunities decodes a TABLE_DUMP_V2 RIB entry
// whose COMMUNITIES attribute uses the extended-length form, every byte
// assembled from the RFC text rather than through Writer, so the encoder
// and decoder cannot share a misreading:
//   - RFC 6396 §2: the MRT common header (timestamp, type 13, subtype,
//     length, all big-endian);
//   - §4.3.1: a PEER_INDEX_TABLE with one IPv4 peer with a 4-octet AS;
//   - §4.3.2 and §4.3.4: a RIB_IPV4_UNICAST record with one RIB entry,
//     whose AS_PATH carries 4-octet ASNs;
//   - RFC 4271 §4.3: the Extended Length bit (0x10) in the attribute
//     flags makes the attribute length two octets, in network byte
//     order; RFC 1997: COMMUNITIES is type 8, four octets a community.
//
// The 65 communities take 260 octets, 0x0104: read little-endian, the
// length claims 1025 octets the record does not hold.
func TestRIBEntryExtendedLengthCommunities(t *testing.T) {
	record := func(subtype byte, body ...byte) []byte {
		n := len(body)
		hdr := []byte{
			0x66, 0x31, 0x8a, 0x00, // timestamp 1714521600
			0x00, 0x0d, // type TABLE_DUMP_V2
			0x00, subtype,
			byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n),
		}
		return append(hdr, body...)
	}
	peerTable := record(1, // PEER_INDEX_TABLE
		0x0a, 0x00, 0x00, 0x01, // collector BGP ID
		0x00, 0x00, // no view name
		0x00, 0x01, // one peer
		0x02,                   // peer type: IPv4 address, 4-octet AS
		0x0a, 0x01, 0x00, 0x01, // peer BGP ID
		0xc6, 0x33, 0x64, 0x01, // 198.51.100.1
		0x00, 0x03, 0x0d, 0x40, // AS 200000
	)
	var want bgp.Communities
	communities := []byte{
		0xd0,       // flags: optional, transitive, extended length
		0x08,       // type COMMUNITIES
		0x01, 0x04, // length 260
	}
	for v := 0; v < 65; v++ {
		want = append(want, bgp.NewCommunity(3356, uint16(v*7)))
		communities = append(communities, 0x0d, 0x1c, byte(v*7>>8), byte(v*7)) // 3356:v*7
	}
	attrs := []byte{
		0x40, 0x01, 0x01, 0x00, // ORIGIN IGP
		0x40, 0x02, 0x0e, // AS_PATH, 14 octets
		0x02, 0x03, // one AS_SEQUENCE of three
		0x00, 0x03, 0x0d, 0x40, // 200000
		0x00, 0x00, 0x0d, 0x1c, // 3356
		0x00, 0x00, 0xfb, 0xf0, // 64496
	}
	attrs = append(attrs, communities...)
	entry := []byte{
		0x00, 0x00, // peer index 0
		0x66, 0x31, 0x89, 0x00, // originated time
		byte(len(attrs) >> 8), byte(len(attrs)), // attribute length
	}
	rib := record(2, append([]byte{ // RIB_IPV4_UNICAST
		0x00, 0x00, 0x00, 0x00, // sequence number
		0x18, 0xc0, 0x00, 0x02, // 192.0.2.0/24
		0x00, 0x01, // one entry
	}, append(entry, attrs...)...)...)

	var st Stats
	s := NewTableDumpScannerOptions(bytes.NewReader(append(peerTable, rib...)), ScanOptions{Stats: &st})
	v, err := s.Next()
	if err != nil {
		t.Fatalf("strict scanner: %v", err)
	}
	if v.Peer.ASN != 200000 || v.Prefix != bgp.MustParsePrefix("192.0.2.0/24") {
		t.Fatalf("view from AS%d for %v, want AS200000 for 192.0.2.0/24", v.Peer.ASN, v.Prefix)
	}
	if got := v.Entry.Attrs.ASPath.Flatten(); !slices.Equal(got, []uint32{200000, 3356, 64496}) {
		t.Fatalf("AS path %v, want [200000 3356 64496]", got)
	}
	if got := v.Entry.Attrs.Communities; !slices.Equal(got, want) {
		t.Fatalf("%d communities %v, want the %d of %v", len(got), got, len(want), want)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("after the one view: %v, want EOF", err)
	}
	if st.Records != 2 || st.BytesSkipped != 0 {
		t.Fatalf("stats %+v, want 2 records and nothing skipped", st)
	}
}

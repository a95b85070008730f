package mrt

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/netip"
	"strings"
	"testing"

	"bgpintent/internal/bgp"
)

// buildRIBStream writes a peer table plus n RIB records and returns the
// wire bytes along with each record's start offset.
func buildRIBStream(t *testing.T, n int) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	table := &PeerIndexTable{
		CollectorBGPID: netip.MustParseAddr("10.0.0.1"),
		ViewName:       "lenient",
		Peers: []Peer{
			{BGPID: netip.MustParseAddr("10.1.0.1"), Addr: netip.MustParseAddr("198.51.100.1"), ASN: 65269},
		},
	}
	tw, err := NewTableDumpWriter(&buf, 100, table)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		entry := RIBEntry{
			PeerIndex: 0,
			Attrs: bgp.PathAttributes{
				HasOrigin:   true,
				ASPath:      bgp.NewASPath(65269, 64496),
				Communities: bgp.Communities{bgp.NewCommunity(1299, uint16(i))},
			},
		}
		prefix := bgp.MustParsePrefix("192.0.2.0/24")
		if err := tw.WriteRIB(prefix, []RIBEntry{entry}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var offsets []int64
	for off := int64(0); off < int64(len(data)); {
		offsets = append(offsets, off)
		l := binary.BigEndian.Uint32(data[off+8 : off+12])
		off += recordHeaderLen + int64(l)
	}
	return data, offsets
}

func drainReader(t *testing.T, r *Reader) int {
	t.Helper()
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatalf("unexpected reader error: %v", err)
		}
		n++
	}
}

func TestLenientMatchesStrictOnCleanStream(t *testing.T) {
	data, offsets := buildRIBStream(t, 20)
	var st Stats
	lenient := drainReader(t, NewLenientReader(bytes.NewReader(data), &st))
	strict := drainReader(t, NewReader(bytes.NewReader(data)))
	if lenient != strict || lenient != len(offsets) {
		t.Errorf("lenient read %d records, strict %d, want %d", lenient, strict, len(offsets))
	}
	if !st.Clean() {
		t.Errorf("clean stream produced dirty stats: %+v", st)
	}
	if st.BytesRead != int64(len(data)) {
		t.Errorf("BytesRead = %d, want %d", st.BytesRead, len(data))
	}
}

func TestStrictErrorsCarryOffset(t *testing.T) {
	data, offsets := buildRIBStream(t, 5)
	bad := offsets[3]

	t.Run("oversized length", func(t *testing.T) {
		buf := append([]byte(nil), data...)
		binary.BigEndian.PutUint32(buf[bad+8:bad+12], maxRecordLen+1)
		r := NewReader(bytes.NewReader(buf))
		var err error
		for err == nil {
			_, err = r.Next()
		}
		if err == io.EOF || !strings.Contains(err.Error(), "offset") {
			t.Errorf("error = %v, want offset-bearing length error", err)
		}
	})

	t.Run("truncated body", func(t *testing.T) {
		buf := data[:bad+6] // cut inside record 3
		r := NewReader(bytes.NewReader(buf))
		var err error
		for err == nil {
			_, err = r.Next()
		}
		if err == io.EOF || !strings.Contains(err.Error(), "offset") {
			t.Errorf("error = %v, want offset-bearing truncation error", err)
		}
	})
}

// TestLenientResyncSalvages corrupts one record's length field; the
// lenient reader must resynchronize and deliver the records after it.
func TestLenientResyncSalvages(t *testing.T) {
	data, offsets := buildRIBStream(t, 20)
	buf := append([]byte(nil), data...)
	bad := offsets[5]
	binary.BigEndian.PutUint32(buf[bad+8:bad+12], maxRecordLen+12345)

	var st Stats
	got := drainReader(t, NewLenientReader(bytes.NewReader(buf), &st))
	// Everything except the corrupted record (and at worst a neighbor
	// clipped by the resync scan) must survive.
	if got < len(offsets)-2 {
		t.Errorf("salvaged %d of %d records, stats=%+v", got, len(offsets), st)
	}
	if st.Resyncs == 0 {
		t.Error("no resync recorded for a corrupt length field")
	}
	if st.Clean() {
		t.Error("stats report a clean stream over corrupt input")
	}
	if st.BytesSkipped == 0 {
		t.Error("no bytes counted as skipped during resync")
	}
}

// TestLenientTruncatedTail cuts the stream mid-record; the lenient
// reader must deliver everything before the cut and report one
// truncated tail.
func TestLenientTruncatedTail(t *testing.T) {
	data, offsets := buildRIBStream(t, 10)
	cut := offsets[8] + 7 // inside record 8's header region

	var st Stats
	got := drainReader(t, NewLenientReader(bytes.NewReader(data[:cut]), &st))
	if got != 8 {
		t.Errorf("salvaged %d records before the cut, want 8", got)
	}
	if st.Truncated != 1 {
		t.Errorf("Truncated = %d, want 1 (stats=%+v)", st.Truncated, st)
	}
}

// TestLenientGarbageOnly feeds pure garbage: no records, one recorded
// corruption event, and termination.
func TestLenientGarbageOnly(t *testing.T) {
	garbage := bytes.Repeat([]byte("not mrt data at all "), 40)
	var st Stats
	got := drainReader(t, NewLenientReader(bytes.NewReader(garbage), &st))
	if got != 0 {
		t.Errorf("read %d records from garbage", got)
	}
	if st.Clean() {
		t.Error("garbage input produced clean stats")
	}
}

// TestLenientGarbageBetweenRecords splices garbage between two valid
// records; resync must recover the second one.
func TestLenientGarbageBetweenRecords(t *testing.T) {
	data, offsets := buildRIBStream(t, 6)
	splice := offsets[3]
	var buf bytes.Buffer
	buf.Write(data[:splice])
	buf.Write(bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, 64))
	buf.Write(data[splice:])

	var st Stats
	got := drainReader(t, NewLenientReader(bytes.NewReader(buf.Bytes()), &st))
	if got < len(offsets)-1 {
		t.Errorf("salvaged %d of %d records around spliced garbage (stats=%+v)", got, len(offsets), st)
	}
	if st.Resyncs == 0 {
		t.Error("no resync recorded over spliced garbage")
	}
}

func TestLenientScannerSkipsBadRecord(t *testing.T) {
	data, offsets := buildRIBStream(t, 10)
	buf := append([]byte(nil), data...)
	// Corrupt record 4's body so it frames fine but fails to parse:
	// a bogus entry count makes ParseRIBInto run off the end of the body.
	bodyStart := offsets[4] + recordHeaderLen
	for i := bodyStart + 9; i < bodyStart+13; i++ {
		buf[i] = 0xff
	}

	var st Stats
	s := NewTableDumpScannerOptions(bytes.NewReader(buf), ScanOptions{Lenient: true, Stats: &st})
	views := 0
	for {
		_, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("lenient scanner error: %v", err)
		}
		views++
	}
	if views != 9 {
		t.Errorf("scanner yielded %d views, want 9 (stats=%+v)", views, st)
	}
	if st.Skipped == 0 {
		t.Errorf("no skip recorded for the undecodable RIB record: %+v", st)
	}

	strict := NewTableDumpScannerOptions(bytes.NewReader(buf), ScanOptions{})
	var err error
	for err == nil {
		_, err = strict.Next()
	}
	if err == io.EOF || !strings.Contains(err.Error(), "offset") {
		t.Errorf("strict scanner error = %v, want offset-bearing parse error", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	var s Stats
	s.addRecord()
	s.addRecord()
	s.noteDecoded()
	s.noteSkip("rib")
	s.noteUnknown(48, 2)
	s.Resyncs++
	if got := s.Attempts(); got != 3 {
		t.Errorf("Attempts = %d, want 3", got)
	}
	if got := s.ErrorRate(); got <= 0.6 || got >= 0.7 {
		t.Errorf("ErrorRate = %v, want 2/3", got)
	}
	if s.Clean() {
		t.Error("dirty stats report clean")
	}
	if got := s.UnknownCount(); got != 1 {
		t.Errorf("UnknownCount = %d, want 1", got)
	}

	var m Stats
	m.Merge(&s)
	m.Merge(&s)
	if m.Records != 4 || m.Skipped != 2 || m.Resyncs != 2 || m.UnknownTypes["48/2"] != 2 || m.SkipReasons["rib"] != 2 {
		t.Errorf("Merge accumulated %+v", m)
	}

	// The nil receiver is a no-op collector and never divides by zero.
	var nilStats *Stats
	nilStats.addRecord()
	nilStats.noteSkip("x")
	nilStats.noteUnknown(1, 2)
	nilStats.Merge(&s)
	if nilStats.Attempts() != 0 || nilStats.ErrorRate() != 0 || !nilStats.Clean() {
		t.Error("nil Stats is not a clean no-op")
	}
	var empty Stats
	if empty.ErrorRate() != 0 {
		t.Error("empty stats have a nonzero error rate")
	}
}

// TestResyncAnchorsOnAddPathRIB: a resync hunting past corrupt bytes
// stops at the first plausible record header, and RFC 8050's ADD-PATH
// RIB records (TABLE_DUMP_V2 subtypes 8–12) are plausible headers. Every
// byte is assembled from the RFC text, not through Writer: a
// PEER_INDEX_TABLE and a RIB_IPV4_UNICAST record (RFC 6396 §4.3.1,
// §4.3.2, §4.3.4), 32 bytes of garbage framed as an unknown record whose
// follow-on length is impossible, two RIB_IPV4_UNICAST_ADDPATH records
// (RFC 8050 §4: a Path Identifier after the Originated Time), then a
// second RIB_IPV4_UNICAST. Only the garbage may be skipped; the ADD-PATH
// records frame and count as unknown subtypes, and both RIB views
// survive.
func TestResyncAnchorsOnAddPathRIB(t *testing.T) {
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
	attrs := []byte{
		0x40, 0x01, 0x01, 0x00, // ORIGIN IGP
		0x40, 0x02, 0x0a, 0x02, 0x02, // AS_PATH: one AS_SEQUENCE of two 4-octet ASNs
		0x00, 0x00, 0xfe, 0xf5, // 65269
		0x00, 0x00, 0xfb, 0xf0, // 64496
		0xc0, 0x08, 0x04, 0x05, 0x13, 0x00, 0x64, // COMMUNITIES 1299:100
	}
	entry := func(pathID ...byte) []byte {
		e := []byte{0x00, 0x00, 0x66, 0x31, 0x8a, 0x00} // peer index 0, originated time
		e = append(e, pathID...)
		e = append(e, 0x00, byte(len(attrs)))
		return append(e, attrs...)
	}
	rib := func(subtype, seq byte, pathID ...byte) []byte {
		body := []byte{0x00, 0x00, 0x00, seq, 0x18, 0xc0, 0x00, 0x02, 0x00, 0x01} // 192.0.2.0/24, one entry
		return record(subtype, append(body, entry(pathID...)...)...)
	}
	peerTable := record(1,
		0x0a, 0x00, 0x00, 0x01, // collector BGP ID
		0x00, 0x00, // no view name
		0x00, 0x01, // one peer
		0x02,                   // peer type: IPv4 address, 4-octet AS
		0x0a, 0x01, 0x00, 0x01, // peer BGP ID
		0xc6, 0x33, 0x64, 0x01, // 198.51.100.1
		0x00, 0x00, 0xfe, 0xf5, // AS 65269
	)
	garbage := []byte{
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x08,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	}
	var stream []byte
	for _, part := range [][]byte{
		peerTable, rib(2, 0), garbage,
		rib(8, 1, 0x00, 0x00, 0x00, 0x01), rib(8, 2, 0x00, 0x00, 0x00, 0x02),
		rib(2, 3),
	} {
		stream = append(stream, part...)
	}

	var st Stats
	s := NewTableDumpScannerOptions(bytes.NewReader(stream), ScanOptions{Lenient: true, Stats: &st})
	views := 0
	for {
		v, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("lenient scanner error: %v", err)
		}
		if v.Peer.ASN != 65269 || v.Entry.Attrs.Communities.String() != "1299:100" {
			t.Fatalf("view %d: peer AS %d, communities %v", views, v.Peer.ASN, v.Entry.Attrs.Communities)
		}
		views++
	}
	if st.BytesSkipped != int64(len(garbage)) || st.Resyncs != 1 {
		t.Errorf("skipped %d bytes in %d resyncs, want the %d garbage bytes in 1", st.BytesSkipped, st.Resyncs, len(garbage))
	}
	if st.UnknownTypes["13/8"] != 2 || views != 2 {
		t.Errorf("%d ADD-PATH RIB records counted unknown and %d views, want 2 and 2 (stats %+v)", st.UnknownTypes["13/8"], views, st)
	}
}

package main

import (
	"bytes"
	"context"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"bgpintent/internal/bgp"
	"bgpintent/internal/ingest"
	"bgpintent/internal/mrt"
)

// record is one MRT record to write: its type, subtype and body.
type record struct {
	typ, subtype uint16
	body         []byte
}

// writeMRT writes recs, timestamped 42, to a file in a test directory.
func writeMRT(t *testing.T, recs ...record) string {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	for _, r := range recs {
		if err := w.WriteRecord(42, r.typ, r.subtype, r.body); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shape.mrt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// updateWire hand-assembles a BGP UPDATE announcing 192.0.2.0/24 over
// the AS path 65269 64496, its ASNs asn octets wide (RFC 4271 §4.3; a
// 2-octet speaker's UPDATE per RFC 6793).
func updateWire(asn int) []byte {
	path := []byte{bgp.SegmentTypeASSequence, 2}
	for _, as := range []uint32{65269, 64496} {
		if asn == 4 {
			path = append(path, byte(as>>24), byte(as>>16))
		}
		path = append(path, byte(as>>8), byte(as))
	}
	attrs := []byte{0x40, bgp.AttrOrigin, 1, bgp.OriginIGP, 0x40, bgp.AttrASPath, byte(len(path))}
	attrs = append(attrs, path...)
	nlri := []byte{24, 192, 0, 2}
	total := 19 + 2 + 2 + len(attrs) + len(nlri)
	msg := bytes.Repeat([]byte{0xff}, 16)
	msg = append(msg, byte(total>>8), byte(total), bgp.MsgTypeUpdate, 0, 0, byte(len(attrs)>>8), byte(len(attrs)))
	msg = append(msg, attrs...)
	return append(msg, nlri...)
}

// keepaliveWire is a BGP KEEPALIVE: the header alone.
func keepaliveWire() []byte {
	return append(bytes.Repeat([]byte{0xff}, 16), 0, 19, bgp.MsgTypeKeepalive)
}

// sessionBody hand-assembles a BGP4MP_MESSAGE (asn 2) or
// BGP4MP_MESSAGE_AS4 (asn 4) body: peer AS 65269, local AS 1, interface
// 0, IPv4 endpoints 198.51.100.1 and 10.0.0.1, then msg (RFC 6396
// §4.4.2, §4.4.3).
func sessionBody(asn int, msg []byte) []byte {
	var b []byte
	for _, as := range []uint32{65269, 1} {
		if asn == 4 {
			b = append(b, byte(as>>24), byte(as>>16))
		}
		b = append(b, byte(as>>8), byte(as))
	}
	b = append(b, 0, 0, 0, 1, 198, 51, 100, 1, 10, 0, 0, 1)
	return append(b, msg...)
}

// etMicros is the BGP4MP_ET microsecond field (RFC 6396 §3) the ET
// records carry: 7, which a decoder that forgets the field reads as the
// first octets of the peer AS.
var etMicros = []byte{0, 0, 0, 7}

// BGP4MP record shapes.
var (
	as4Update    = record{mrt.TypeBGP4MP, mrt.SubtypeBGP4MPMessageAS4, sessionBody(4, updateWire(4))}
	legacyUpdate = record{mrt.TypeBGP4MP, mrt.SubtypeBGP4MPMessage, sessionBody(2, updateWire(2))}
	etUpdate     = record{mrt.TypeBGP4MPET, mrt.SubtypeBGP4MPMessageAS4, append(append([]byte(nil), etMicros...), sessionBody(4, updateWire(4))...)}
	etShort      = record{mrt.TypeBGP4MPET, mrt.SubtypeBGP4MPMessageAS4, []byte{0, 0}}
	keepalive    = record{mrt.TypeBGP4MP, mrt.SubtypeBGP4MPMessageAS4, sessionBody(4, keepaliveWire())}
	stateChange  = record{mrt.TypeBGP4MP, 0, []byte{0xfe, 0xf5, 0, 1, 0, 0, 0, 1, 198, 51, 100, 1, 10, 0, 0, 1, 0, 1, 0, 6}}
	unknownType  = record{48, 0, []byte("not a known MRT type")}
)

// peerTable is a PEER_INDEX_TABLE naming two peers, AS 65269 and AS 3356.
func peerTable() record {
	t := &mrt.PeerIndexTable{
		CollectorBGPID: netip.MustParseAddr("10.0.0.1"),
		Peers: []mrt.Peer{
			{BGPID: netip.MustParseAddr("10.1.0.1"), Addr: netip.MustParseAddr("198.51.100.1"), ASN: 65269},
			{BGPID: netip.MustParseAddr("10.1.0.2"), Addr: netip.MustParseAddr("2001:db8::2"), ASN: 3356},
		},
	}
	return record{mrt.TypeTableDumpV2, mrt.SubtypePeerIndexTable, t.Encode()}
}

// rib is a RIB record for prefix with one entry per peer index, each
// carrying the path 65269 64496 and the community 3356:<peer index>.
func rib(t *testing.T, prefix string, peers ...uint16) record {
	t.Helper()
	r := mrt.RIB{Prefix: bgp.MustParsePrefix(prefix)}
	for _, p := range peers {
		r.Entries = append(r.Entries, mrt.RIBEntry{PeerIndex: p, Attrs: bgp.PathAttributes{
			HasOrigin:   true,
			ASPath:      bgp.NewASPath(65269, 64496),
			Communities: bgp.Communities{bgp.NewCommunity(3356, p)},
		}})
	}
	body, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	subtype := mrt.SubtypeRIBIPv4Unicast
	if r.Prefix.Addr().Is6() {
		subtype = mrt.SubtypeRIBIPv6Unicast
	}
	return record{mrt.TypeTableDumpV2, subtype, body}
}

// corrupt raises a RIB record's entry count past the entries it holds,
// so it frames but fails to parse.
func corrupt(r record) record {
	body := append([]byte(nil), r.body...)
	i := 4 + 1 + (int(body[4])+7)/8 // sequence number, prefix
	body[i], body[i+1] = 0, 9
	r.body = body
	return r
}

// outcome is what one reader made of one file: the views in the -v
// rendering, sorted, the file's statistics and the error it ended with.
type outcome struct {
	views []string
	stats mrt.Stats
	err   error
}

// viaScan reads path through ingest.Scan: the sequential scan at one
// worker, the frame split at more.
func viaScan(path string, updates, strict bool, workers int) outcome {
	var (
		mu    sync.Mutex
		views []string
		st    ingest.Stats
	)
	add := func(line string) error {
		mu.Lock()
		views = append(views, line)
		mu.Unlock()
		return nil
	}
	err := ingest.Scan(context.Background(), []ingest.InputFile{{Path: path, Updates: updates}},
		ingest.Options{Strict: strict, MaxErrorRate: -1}, workers, &st, func() ingest.Sink {
			return ingest.Sink{
				RIB:    func(v *mrt.RIBView) error { return add(ribLine(v)) },
				Update: func(v *mrt.UpdateView) error { return add(updateLine(v)) },
			}
		})
	sort.Strings(views)
	return outcome{views, st.Total, err}
}

// viaScanner reads path through the pull scanner of its kind.
func viaScanner(t *testing.T, path string, updates, strict bool) outcome {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var o outcome
	so := mrt.ScanOptions{Lenient: !strict, Stats: &o.stats}
	var next func() (string, error)
	if updates {
		sc := mrt.NewUpdateScannerOptions(f, so)
		next = func() (string, error) {
			v, err := sc.Next()
			if err != nil {
				return "", err
			}
			return updateLine(v), nil
		}
	} else {
		sc := mrt.NewTableDumpScannerOptions(f, so)
		next = func() (string, error) {
			v, err := sc.Next()
			if err != nil {
				return "", err
			}
			return ribLine(v), nil
		}
	}
	for {
		line, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			o.err = err
			break
		}
		o.views = append(o.views, line)
	}
	sort.Strings(o.views)
	return o
}

// viaMrtdump reads path as mrtdump -v does.
func viaMrtdump(path string, strict bool) outcome {
	var out bytes.Buffer
	st, err := dump(&out, path, options{verbose: true, strict: strict})
	var views []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "RIB ") || strings.HasPrefix(line, "UPDATE ") {
			views = append(views, line)
		}
	}
	sort.Strings(views)
	return outcome{views, st, err}
}

// TestDecodeEquivalence feeds every record shape the decoders tell
// apart, each in a file of its kind between good records, through every
// reader: the sequential ingest scan, the frame split at 2 and 4
// workers, the pull scanner and mrtdump. Lenient, all of them yield the
// same views and the same mrt.Stats — decoded, skipped with reasons,
// unknown types and framing — and the shape's own counts. Strict, a
// shape that fails, fails every reader with the same offset-bearing
// error, and every reader counts the same up to it: a strict split
// frames ahead of the record that fails, but counts records and bytes
// through that record alone. (The views a split delivered before the
// failure may run further, as its workers decode batches at once.)
func TestDecodeEquivalence(t *testing.T) {
	pit := peerTable()
	good4, good6 := rib(t, "192.0.2.0/24", 0), rib(t, "2001:db8::/32", 0, 1)
	for _, tc := range []struct {
		name        string
		updates     bool
		recs        []record
		views       int
		skips       map[string]int
		unknown     map[string]int
		strictFails bool
	}{
		{name: "peer index table", recs: []record{pit, rib(t, "192.0.2.0/24", 0, 1)}, views: 2},
		{name: "corrupt peer index table", recs: []record{{mrt.TypeTableDumpV2, mrt.SubtypePeerIndexTable, []byte{10, 0, 0, 1}}, rib(t, "192.0.2.0/24", 0, 1)},
			skips: map[string]int{"peer-index-table": 1, "peer-index-out-of-range": 2}, strictFails: true},
		{name: "RIB IPv4", recs: []record{pit, good4}, views: 1},
		{name: "RIB IPv6", recs: []record{pit, good6}, views: 2},
		{name: "corrupt RIB IPv4", recs: []record{pit, corrupt(good4), good4}, views: 1,
			skips: map[string]int{"rib": 1}, strictFails: true},
		{name: "corrupt RIB IPv6", recs: []record{pit, corrupt(good6), good6}, views: 2,
			skips: map[string]int{"rib": 1}, strictFails: true},
		{name: "peer index out of range", recs: []record{pit, rib(t, "192.0.2.0/24", 0, 9, 1)}, views: 2,
			skips: map[string]int{"peer-index-out-of-range": 1}, strictFails: true},
		{name: "other TABLE_DUMP_V2 subtype", recs: []record{pit, {mrt.TypeTableDumpV2, 6, []byte{0, 0, 0, 1}}, good4}, views: 1,
			unknown: map[string]int{"13/6": 1}},
		{name: "unknown type in a RIB file", recs: []record{pit, unknownType, good4}, views: 1,
			unknown: map[string]int{"48/0": 1}},
		{name: "BGP4MP_MESSAGE_AS4", updates: true, recs: []record{as4Update}, views: 1},
		{name: "2-octet BGP4MP_MESSAGE", updates: true, recs: []record{legacyUpdate}, views: 1},
		{name: "BGP4MP_ET", updates: true, recs: []record{etUpdate}, views: 1},
		{name: "BGP4MP_ET short body", updates: true, recs: []record{etShort, as4Update}, views: 1,
			skips: map[string]int{"bgp4mp": 1}, strictFails: true},
		{name: "keepalive", updates: true, recs: []record{keepalive, as4Update}, views: 1},
		{name: "BGP4MP STATE_CHANGE", updates: true, recs: []record{stateChange, as4Update}, views: 1,
			unknown: map[string]int{"16/0": 1}},
		{name: "unknown type in an updates file", updates: true, recs: []record{unknownType, as4Update}, views: 1,
			unknown: map[string]int{"48/0": 1}},
	} {
		path := writeMRT(t, tc.recs...)
		for _, strict := range []bool{false, true} {
			name := tc.name
			if strict {
				name += " (strict)"
			}
			readers := map[string]outcome{
				"sequential scan":  viaScan(path, tc.updates, strict, 1),
				"split, 2 workers": viaScan(path, tc.updates, strict, 2),
				"split, 4 workers": viaScan(path, tc.updates, strict, 4),
				"scanner":          viaScanner(t, path, tc.updates, strict),
				"mrtdump":          viaMrtdump(path, strict),
			}
			ref := readers["scanner"]
			if strict && tc.strictFails {
				if ref.err == nil {
					t.Errorf("%s: the scanner accepted the shape", name)
					continue
				}
				for reader, o := range readers {
					if o.err == nil || !strings.HasSuffix(o.err.Error(), ref.err.Error()) {
						t.Errorf("%s: %s: error %v, want one ending %q", name, reader, o.err, ref.err)
					}
					if !reflect.DeepEqual(o.stats, ref.stats) {
						t.Errorf("%s: %s: stats %+v, the scanner's %+v", name, reader, o.stats, ref.stats)
					}
					if !strings.HasPrefix(reader, "split") && !reflect.DeepEqual(o.views, ref.views) {
						t.Errorf("%s: %s: views %q stats %+v, the scanner's %q %+v", name, reader, o.views, o.stats, ref.views, ref.stats)
					}
				}
				continue
			}
			if ref.err != nil || len(ref.views) != tc.views || ref.stats.Decoded+ref.stats.Skipped+ref.stats.UnknownCount() == 0 ||
				!reflect.DeepEqual(ref.stats.SkipReasons, tc.skips) || !reflect.DeepEqual(ref.stats.UnknownTypes, tc.unknown) {
				t.Errorf("%s: the scanner made %d views (want %d), stats %+v, error %v; want skips %v, unknown %v",
					name, len(ref.views), tc.views, ref.stats, ref.err, tc.skips, tc.unknown)
			}
			for reader, o := range readers {
				if o.err != nil || !reflect.DeepEqual(o.views, ref.views) || !reflect.DeepEqual(o.stats, ref.stats) {
					t.Errorf("%s: %s: views %q stats %+v error %v; the scanner's %q %+v", name, reader, o.views, o.stats, o.err, ref.views, ref.stats)
				}
			}
		}
	}
}

// Fuzz targets for the lenient decoder. They live in an external test
// package so they can seed themselves with ingest/faults, which imports
// mrt.
package mrt_test

import (
	"bytes"
	"io"
	"net/netip"
	"testing"

	"bgpintent/internal/bgp"
	"bgpintent/internal/ingest/faults"
	"bgpintent/internal/mrt"
)

// fuzzValidStream builds a small well-formed stream: a peer table, RIB
// records, and a couple of updates.
func fuzzValidStream(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	table := &mrt.PeerIndexTable{
		CollectorBGPID: netip.MustParseAddr("10.0.0.1"),
		ViewName:       "fuzz",
		Peers: []mrt.Peer{
			{BGPID: netip.MustParseAddr("10.1.0.1"), Addr: netip.MustParseAddr("198.51.100.1"), ASN: 65269},
			{BGPID: netip.MustParseAddr("10.1.0.2"), Addr: netip.MustParseAddr("198.51.100.2"), ASN: 3356},
		},
	}
	tw, err := mrt.NewTableDumpWriter(&buf, 100, table)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		entry := mrt.RIBEntry{
			PeerIndex: uint16(i % 2),
			Attrs: bgp.PathAttributes{
				HasOrigin:   true,
				ASPath:      bgp.NewASPath(65269, 3356, 64496),
				Communities: bgp.Communities{bgp.NewCommunity(3356, uint16(i))},
			},
		}
		if err := tw.WriteRIB(bgp.MustParsePrefix("192.0.2.0/24"), []mrt.RIBEntry{entry}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		tb.Fatal(err)
	}
	uw := mrt.NewUpdateWriter(&buf)
	for i := 0; i < 2; i++ {
		msg := &bgp.UpdateMessage{NLRI: []bgp.Prefix{bgp.MustParsePrefix("203.0.113.0/24")}}
		if err := uw.WriteUpdate(uint32(101+i), 65269, 64500,
			netip.MustParseAddr("198.51.100.1"), netip.MustParseAddr("10.0.0.1"), msg); err != nil {
			tb.Fatal(err)
		}
	}
	if err := uw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// addFaultSeeds registers the valid stream plus one corrupted variant
// per fault kind as fuzz seeds.
func addFaultSeeds(f *testing.F) {
	wire := fuzzValidStream(f)
	f.Add(wire)
	f.Add([]byte{})
	f.Add(wire[:len(wire)/2])
	for _, kind := range faults.AllKinds() {
		var buf bytes.Buffer
		if _, err := faults.Corrupt(&buf, bytes.NewReader(wire), faults.Config{
			Seed:  int64(kind) + 1,
			Rate:  0.5,
			Kinds: []faults.Kind{kind},
		}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
}

// strictRejects reports whether a strict pass over data ends in a
// non-EOF error.
func strictRejects(data []byte) bool {
	r := mrt.NewReader(bytes.NewReader(data))
	for {
		if _, err := r.Next(); err != nil {
			return err != io.EOF
		}
	}
}

// FuzzLenientReader checks the core robustness contract of the lenient
// reader: it never panics, always terminates, salvages no more records
// than the input could hold, and records corruption only on inputs
// strict mode rejects.
func FuzzLenientReader(f *testing.F) {
	addFaultSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var st mrt.Stats
		r := mrt.NewLenientReader(bytes.NewReader(data), &st)
		records := 0
		// Progress guard: every iteration consumes at least one byte,
		// so this bound is only reachable by a termination bug.
		for iter := 0; ; iter++ {
			if iter > len(data)+16 {
				t.Fatalf("reader failed to terminate after %d iterations on %d bytes", iter, len(data))
			}
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("lenient reader leaked error %v", err)
			}
			records++
		}
		if max := len(data)/12 + 1; records > max {
			t.Fatalf("read %d records from %d bytes (max %d)", records, len(data), max)
		}
		if st.BytesRead > int64(len(data)) {
			t.Fatalf("BytesRead %d exceeds input size %d", st.BytesRead, len(data))
		}
		// Strict mode must reject everything lenient mode skips: any
		// recorded corruption implies a strict error on the same bytes.
		if !st.Clean() && !strictRejects(data) {
			t.Fatalf("lenient reported corruption %+v on input strict mode accepts", st)
		}
		// And the converse sanity check: on strict-clean input the
		// lenient reader must deliver exactly the strict record count.
		if st.Clean() {
			sr := mrt.NewReader(bytes.NewReader(data))
			strict := 0
			for {
				if _, err := sr.Next(); err != nil {
					break
				}
				strict++
			}
			if records != strict {
				t.Fatalf("clean input: lenient read %d records, strict %d", records, strict)
			}
		}
	})
}

// FuzzLenientScanners drives both scanners in lenient mode: no panics,
// no hangs, no leaked errors, and any skip implies a strict-mode
// rejection by the same scanner.
func FuzzLenientScanners(f *testing.F) {
	addFaultSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var rst mrt.Stats
		rs := mrt.NewTableDumpScannerOptions(bytes.NewReader(data), mrt.ScanOptions{Lenient: true, Stats: &rst})
		for iter := 0; ; iter++ {
			if iter > 8*len(data)+64 { // pushback re-frames rejected bytes, so allow headroom
				t.Fatalf("rib scanner failed to terminate on %d bytes", len(data))
			}
			_, err := rs.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("lenient rib scanner leaked error %v", err)
			}
		}
		if !rst.Clean() {
			strict := mrt.NewTableDumpScannerOptions(bytes.NewReader(data), mrt.ScanOptions{})
			var err error
			for err == nil {
				_, err = strict.Next()
			}
			if err == io.EOF {
				t.Fatalf("lenient rib scanner reported corruption %+v on input the strict scanner accepts", rst)
			}
		}

		var ust mrt.Stats
		us := mrt.NewUpdateScannerOptions(bytes.NewReader(data), mrt.ScanOptions{Lenient: true, Stats: &ust})
		for iter := 0; ; iter++ {
			if iter > 8*len(data)+64 {
				t.Fatalf("update scanner failed to terminate on %d bytes", len(data))
			}
			_, err := us.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("lenient update scanner leaked error %v", err)
			}
		}
		if !ust.Clean() {
			strict := mrt.NewUpdateScannerOptions(bytes.NewReader(data), mrt.ScanOptions{})
			var err error
			for err == nil {
				_, err = strict.Next()
			}
			if err == io.EOF {
				t.Fatalf("lenient update scanner reported corruption %+v on input the strict scanner accepts", ust)
			}
		}
	})
}

package ingest

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"bgpintent/internal/bgp"
	"bgpintent/internal/ingest/faults"
	"bgpintent/internal/mrt"
)

// buildRIBStream writes a peer table plus n RIB records.
func buildRIBStream(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	table := &mrt.PeerIndexTable{
		CollectorBGPID: netip.MustParseAddr("10.0.0.1"),
		ViewName:       "ingest",
		Peers: []mrt.Peer{
			{BGPID: netip.MustParseAddr("10.1.0.1"), Addr: netip.MustParseAddr("198.51.100.1"), ASN: 65269},
			{BGPID: netip.MustParseAddr("10.1.0.2"), Addr: netip.MustParseAddr("198.51.100.2"), ASN: 3356},
		},
	}
	tw, err := mrt.NewTableDumpWriter(&buf, 100, table)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		entry := mrt.RIBEntry{
			PeerIndex: uint16(i % 2),
			Attrs: bgp.PathAttributes{
				HasOrigin:   true,
				ASPath:      bgp.NewASPath(65269, 3356, 64496),
				Communities: bgp.Communities{bgp.NewCommunity(3356, uint16(i))},
			},
		}
		if err := tw.WriteRIB(bgp.MustParsePrefix("192.0.2.0/24"), []mrt.RIBEntry{entry}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func countViews(t *testing.T, data []byte, opts Options) (int, *Stats, error) {
	t.Helper()
	st := &Stats{}
	views := 0
	err := ScanRIBsFrom(bytes.NewReader(data), "test.mrt", opts, st, func(*mrt.RIBView) error {
		views++
		return nil
	})
	return views, st, err
}

// TestLenientSalvageAcceptance is the issue's acceptance test: a stream
// corrupted at a 1% record rate must load leniently salvaging >= 95% of
// the clean views, while strict mode fails with an offset-bearing error.
func TestLenientSalvageAcceptance(t *testing.T) {
	wire := buildRIBStream(t, 400)
	cleanViews, _, err := countViews(t, wire, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cleanViews != 400 {
		t.Fatalf("clean load produced %d views, want 400", cleanViews)
	}

	var dirty bytes.Buffer
	res, err := faults.Corrupt(&dirty, bytes.NewReader(wire), faults.Config{Seed: 7, Rate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == 0 {
		t.Fatal("seed injected no faults; pick another seed")
	}
	t.Logf("injected %d faults over %d records: %v", res.Faults, res.Records, res.PerKind)

	views, st, err := countViews(t, dirty.Bytes(), Options{})
	if err != nil {
		t.Fatalf("lenient load failed: %v (stats=%+v)", err, st.Total)
	}
	if min := cleanViews * 95 / 100; views < min {
		t.Errorf("salvaged %d of %d clean views, want >= %d (stats=%+v)", views, cleanViews, min, st.Total)
	}
	if st.Clean() {
		t.Error("stats report a clean load over corrupted input")
	}

	_, _, err = countViews(t, dirty.Bytes(), Options{Strict: true})
	if err == nil {
		t.Fatal("strict load of corrupted input succeeded")
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Errorf("strict error %q does not carry a byte offset", err)
	}
}

// TestErrorBudget checks both the mid-stream and end-of-file budget
// enforcement paths.
func TestErrorBudget(t *testing.T) {
	t.Run("garbage trips the default budget", func(t *testing.T) {
		garbage := bytes.Repeat([]byte("definitely not mrt "), 16)
		_, _, err := countViews(t, garbage, Options{})
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("error = %v, want *BudgetError", err)
		}
		if be.Rate <= be.Limit {
			t.Errorf("budget error with rate %v <= limit %v", be.Rate, be.Limit)
		}
		if !strings.Contains(err.Error(), "error budget") {
			t.Errorf("unhelpful budget message %q", err)
		}
	})

	t.Run("negative rate disables the budget", func(t *testing.T) {
		garbage := bytes.Repeat([]byte("definitely not mrt "), 16)
		views, st, err := countViews(t, garbage, Options{MaxErrorRate: -1})
		if err != nil {
			t.Fatalf("budget-disabled load failed: %v", err)
		}
		if views != 0 || st.Clean() {
			t.Errorf("garbage load: %d views, clean=%v", views, st.Clean())
		}
	})

	t.Run("mid-stream abort on a long dirty file", func(t *testing.T) {
		// Corrupt heavily so the rate check trips once the minimum
		// sample accumulates, well before end of file.
		wire := buildRIBStream(t, 2000)
		var dirty bytes.Buffer
		if _, err := faults.Corrupt(&dirty, bytes.NewReader(wire), faults.Config{
			Seed:  3,
			Rate:  0.5,
			Kinds: []faults.Kind{faults.BitFlip, faults.Garbage},
		}); err != nil {
			t.Fatal(err)
		}
		views, _, err := countViews(t, dirty.Bytes(), Options{MaxErrorRate: 0.10})
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("error = %v, want *BudgetError", err)
		}
		if views >= 2000 {
			t.Errorf("budget did not abort mid-stream: %d views delivered", views)
		}
	})

	t.Run("abort at the record or dropped entry that breaks the budget", func(t *testing.T) {
		// One peer, then RIB records whose first entry names a peer
		// outside the table and whose second is good: every record costs
		// one skip. The budget is checked once a record is counted and
		// after each entry dropped, so at the 128th attempt (RIB record
		// 127) a 5 % budget breaks before that record's entries, with 126
		// skips, and a 99 % budget breaks at its dropped entry (127/128)
		// — both before its good view. The abort is the budget's error,
		// with the stats up to that point.
		var buf bytes.Buffer
		table := &mrt.PeerIndexTable{
			CollectorBGPID: netip.MustParseAddr("10.0.0.1"),
			Peers:          []mrt.Peer{{BGPID: netip.MustParseAddr("10.1.0.1"), Addr: netip.MustParseAddr("198.51.100.1"), ASN: 65269}},
		}
		tw, err := mrt.NewTableDumpWriter(&buf, 100, table)
		if err != nil {
			t.Fatal(err)
		}
		attrs := bgp.PathAttributes{HasOrigin: true, ASPath: bgp.NewASPath(65269, 64496)}
		for i := 0; i < 200; i++ {
			entries := []mrt.RIBEntry{{PeerIndex: 5, Attrs: attrs}, {PeerIndex: 0, Attrs: attrs}}
			if err := tw.WriteRIB(bgp.MustParsePrefix("192.0.2.0/24"), entries); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		// The file is scanned as a stream, and through Scan at one worker
		// (the sequential scan) and at files+1 (the frame split, which
		// falls back to the sequential scan at the first dropped entry,
		// before it has delivered a view, so the views count alike).
		path := filepath.Join(t.TempDir(), "budget.rib.mrt")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			limit   float64
			skipped int
		}{{0.05, 126}, {0.99, 127}} {
			opts := Options{MaxErrorRate: tc.limit}
			for _, workers := range []int{0, 1, 2} { // 0: the stream
				views, st, err := countViews(t, buf.Bytes(), opts)
				if workers > 0 {
					var n atomic.Int64
					st = &Stats{}
					err = Scan(context.Background(), []InputFile{{Path: path}}, opts, workers, st, func() Sink {
						return Sink{RIB: func(*mrt.RIBView) error { n.Add(1); return nil }}
					})
					views = int(n.Load())
				}
				var be *BudgetError
				if !errors.As(err, &be) || be.Rate != float64(tc.skipped)/128 {
					t.Fatalf("limit %v, workers %d: error = %v, want a *BudgetError at rate %d/128", tc.limit, workers, err, tc.skipped)
				}
				fs := st.Files[0].Stats
				if views != 126 || fs.Records != 128 || fs.Decoded != 128 || fs.Skipped != tc.skipped ||
					fs.SkipReasons["peer-index-out-of-range"] != tc.skipped {
					t.Errorf("limit %v, workers %d: %d views, stats %+v; want 126 views and 128 records, 128 decoded, %d skipped",
						tc.limit, workers, views, fs, tc.skipped)
				}
			}
		}
	})

	t.Run("clean stream passes the budget", func(t *testing.T) {
		wire := buildRIBStream(t, 300)
		views, st, err := countViews(t, wire, Options{})
		if err != nil || views != 300 || !st.Clean() {
			t.Errorf("clean load: views=%d err=%v clean=%v", views, err, st.Clean())
		}
	})
}

func TestOptionsLimit(t *testing.T) {
	if got := (Options{}).limit(); got != DefaultMaxErrorRate {
		t.Errorf("zero limit = %v, want default", got)
	}
	if got := (Options{MaxErrorRate: -3}).limit(); got != -1 {
		t.Errorf("negative limit = %v, want -1", got)
	}
	if got := (Options{MaxErrorRate: 0.2}).limit(); got != 0.2 {
		t.Errorf("explicit limit = %v", got)
	}
}

func TestOpenDecompresses(t *testing.T) {
	wire := buildRIBStream(t, 3)
	dir := t.TempDir()

	plain := filepath.Join(dir, "a.mrt")
	if err := os.WriteFile(plain, wire, 0o644); err != nil {
		t.Fatal(err)
	}
	gzPath := filepath.Join(dir, "a.mrt.gz")
	var gzBuf bytes.Buffer
	zw := gzip.NewWriter(&gzBuf)
	zw.Write(wire)
	zw.Close()
	if err := os.WriteFile(gzPath, gzBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{plain, gzPath} {
		rc, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || !bytes.Equal(got, wire) {
			t.Errorf("%s: read %d bytes (err=%v), want %d", path, len(got), err, len(wire))
		}
	}

	if _, err := Open(filepath.Join(dir, "missing.mrt")); err == nil {
		t.Error("missing file opened")
	}
	bad := filepath.Join(dir, "bad.gz")
	os.WriteFile(bad, []byte("not gzip"), 0o644)
	if _, err := Open(bad); err == nil {
		t.Error("bad gzip opened")
	}
}

func TestScanRIBsFromFile(t *testing.T) {
	wire := buildRIBStream(t, 5)
	path := filepath.Join(t.TempDir(), "t.rib.mrt")
	if err := os.WriteFile(path, wire, 0o644); err != nil {
		t.Fatal(err)
	}
	st := &Stats{}
	views := 0
	err := ScanParallelContext(context.Background(), []InputFile{{Path: path}}, Options{}, 1, st,
		func(*mrt.RIBView) error { views++; return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if views != 5 {
		t.Errorf("views = %d, want 5", views)
	}
	if len(st.Files) != 1 || st.Files[0].Path != path {
		t.Errorf("per-file stats = %+v", st.Files)
	}
	if s := st.Summary(); !strings.Contains(s, "no corruption") {
		t.Errorf("summary = %q", s)
	}
}

func TestCallbackErrorPropagates(t *testing.T) {
	wire := buildRIBStream(t, 5)
	boom := errors.New("boom")
	st := &Stats{}
	err := ScanRIBsFrom(bytes.NewReader(wire), "t", Options{}, st, func(*mrt.RIBView) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("callback error = %v, want boom", err)
	}
	if len(st.Files) != 1 {
		t.Error("stats not recorded on callback abort")
	}
}

func TestOpenReaderSniffing(t *testing.T) {
	payload := []byte("MRT-ish payload bytes")

	var gzBuf bytes.Buffer
	zw := gzip.NewWriter(&gzBuf)
	zw.Write(payload)
	zw.Close()

	for name, tc := range map[string]struct {
		in   []byte
		want []byte
	}{
		"plain": {payload, payload},
		"gzip":  {gzBuf.Bytes(), payload},
		"short": {[]byte{0x1f}, []byte{0x1f}}, // too short for a magic number
		"empty": {nil, nil},
	} {
		r, err := OpenReader(bytes.NewReader(tc.in))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Errorf("%s: read: %v", name, err)
			continue
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: got %q, want %q", name, got, tc.want)
		}
	}
}

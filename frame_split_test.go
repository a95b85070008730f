package bgpintent

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"bgpintent/internal/ingest/faults"
	"bgpintent/internal/obs"
)

// loadClassifyTSV loads the corpus with the given options and renders
// the classification as TSV — the byte-identity oracle.
func loadClassifyTSV(t *testing.T, ribs, updates []string, orgPath string, opts LoadOptions) ([]byte, LoadStats) {
	t.Helper()
	c, stats, err := LoadMRT(context.Background(), Sources{RIBs: ribs, Updates: updates, OrgPath: orgPath}, opts)
	if err != nil {
		t.Fatalf("load (parallelism=%d, %d files): %v", opts.Parallelism, len(ribs)+len(updates), err)
	}
	res := classify(t, c, Params{Parallelism: opts.Parallelism})
	var buf bytes.Buffer
	if err := res.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}

// spanCount counts the collected spans of one stage.
func spanCount(col *obs.Collector, stage Stage) int {
	n := 0
	for _, s := range col.Spans() {
		if s.Stage == stage {
			n++
		}
	}
	return n
}

// TestFrameSplitEquivalence selects the frame/decode split pipeline the
// way production does — more workers than input files — at several
// worker counts and input shapes, and demands byte-identical
// classification output and exactly equal LoadStats against the
// sequential load. A frame span proves the split ran.
func TestFrameSplitEquivalence(t *testing.T) {
	ribs, updates, orgPath, _ := writeParallelFixture(t)
	for _, tc := range []struct {
		ribs, updates []string
		workers       []int
	}{
		{ribs, updates, []int{9, 16}},
		{ribs[:1], updates[:1], []int{3, 4, 8}},
		{ribs[:1], nil, []int{2}},
		{nil, updates[:1], []int{2}},
	} {
		files := len(tc.ribs) + len(tc.updates)
		refTSV, refStats := loadClassifyTSV(t, tc.ribs, tc.updates, orgPath, LoadOptions{Parallelism: 1})
		if len(refTSV) == 0 || refStats.Records == 0 {
			t.Fatalf("%d files: degenerate reference: %d TSV bytes, %d records", files, len(refTSV), refStats.Records)
		}
		for _, workers := range tc.workers {
			col := &obs.Collector{}
			tsv, stats := loadClassifyTSV(t, tc.ribs, tc.updates, orgPath,
				LoadOptions{Parallelism: workers, Observer: col})
			if spanCount(col, StageFrame) == 0 {
				t.Errorf("%d files, workers=%d: no frame span, the split did not run", files, workers)
			}
			if stats != refStats {
				t.Errorf("%d files, split workers=%d: LoadStats = %+v, want %+v", files, workers, stats, refStats)
			}
			if !bytes.Equal(tsv, refTSV) {
				t.Errorf("%d files, split workers=%d: TSV differs (%d vs %d bytes)", files, workers, len(tsv), len(refTSV))
			}
		}
	}
}

// TestFrameSplitFallbackEquivalence is the dirty-input half: every RIB
// and one updates file corrupted at a 2% record rate (budget off), so
// lenient decode failures force split attempts to be discarded and
// rescanned sequentially. The sequential load, the file pool and the
// split must still agree byte for byte, and the telemetry must describe
// the load once: one decode span per file, and a final heartbeat equal
// to LoadStats on records and bytes.
func TestFrameSplitFallbackEquivalence(t *testing.T) {
	ribs, updates, orgPath, _ := writeParallelFixture(t)
	dir := t.TempDir()
	corrupt := func(path string, seed int64) string {
		t.Helper()
		in, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dir, filepath.Base(path)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := faults.Corrupt(out, in, faults.Config{Seed: seed, Rate: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		if res.Faults == 0 {
			t.Fatalf("%s: seed %d injected no faults", path, seed)
		}
		return out.Name()
	}
	var dirtyRibs []string
	for i, path := range ribs {
		dirtyRibs = append(dirtyRibs, corrupt(path, int64(7+i)))
	}
	dirtyUpdates := []string{corrupt(updates[0], 11)}
	files := len(dirtyRibs) + len(dirtyUpdates)

	var refTSV []byte
	var refStats LoadStats
	for _, workers := range []int{1, 2, files + 3} {
		col := &obs.Collector{}
		tsv, stats := loadClassifyTSV(t, dirtyRibs, dirtyUpdates, orgPath,
			LoadOptions{Parallelism: workers, MaxErrorRate: -1, Observer: col})
		if workers == 1 {
			refTSV, refStats = tsv, stats
			if stats.Skipped == 0 || stats.Resyncs == 0 {
				t.Fatalf("corruption left no decode failure to fall back on: %+v", stats)
			}
		}
		if stats != refStats {
			t.Errorf("workers=%d: LoadStats = %+v, want %+v", workers, stats, refStats)
		}
		if !bytes.Equal(tsv, refTSV) {
			t.Errorf("workers=%d: TSV differs (%d vs %d bytes)", workers, len(tsv), len(refTSV))
		}
		// A discarded split attempt reopens its file and reports nothing
		// else: extra open spans are the fallbacks, decode spans stay one
		// per file.
		if opens := spanCount(col, StageOpen); (opens > files) != (workers > files) {
			t.Errorf("workers=%d: %d open spans for %d files, want extra ones iff the split ran", workers, opens, files)
		}
		if n := spanCount(col, StageDecode); n != files {
			t.Errorf("workers=%d: %d decode spans for %d files", workers, n, files)
		}
		evs := col.Events()
		final := evs[len(evs)-1]
		if final.Records != int64(stats.Records) || final.Bytes != stats.BytesRead {
			t.Errorf("workers=%d: final heartbeat records=%d bytes=%d, LoadStats records=%d bytes=%d",
				workers, final.Records, final.Bytes, stats.Records, stats.BytesRead)
		}
	}
}

// TestFrameSplitSingleLargeFile concatenates every RIB file into ONE
// input file — the case the one-file-one-worker design could never
// parallelize — and checks the split pipeline still produces
// byte-identical output. The concatenation switches peer index tables
// mid-stream, exercising the framing barrier that keeps each batch
// paired with the table in force when it was framed.
func TestFrameSplitSingleLargeFile(t *testing.T) {
	ribs, updates, orgPath, _ := writeParallelFixture(t)
	big := filepath.Join(t.TempDir(), "all.rib.mrt")
	out, err := os.Create(big)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range ribs {
		in, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}

	bigRibs := []string{big}
	refTSV, refStats := loadClassifyTSV(t, bigRibs, updates, orgPath, LoadOptions{Parallelism: 1})
	for _, workers := range []int{8, 16} {
		// One RIB file and four updates files: workers > files selects
		// the split.
		tsv, stats := loadClassifyTSV(t, bigRibs, updates, orgPath, LoadOptions{Parallelism: workers})
		if stats != refStats {
			t.Errorf("split workers=%d: LoadStats = %+v, want %+v", workers, stats, refStats)
		}
		if !bytes.Equal(tsv, refTSV) {
			t.Errorf("split workers=%d: TSV differs (%d vs %d bytes)", workers, len(tsv), len(refTSV))
		}
	}
}

package bgpintent

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// loadClassifyTSV loads the corpus with the given options and renders
// the classification as TSV — the byte-identity oracle.
func loadClassifyTSV(t *testing.T, ribs, updates []string, orgPath string, opts LoadOptions) ([]byte, LoadStats) {
	t.Helper()
	c, stats, err := LoadMRT(context.Background(), Sources{RIBs: ribs, Updates: updates, OrgPath: orgPath}, opts)
	if err != nil {
		t.Fatalf("load (parallelism=%d, split=%v): %v", opts.Parallelism, opts.ForceFrameSplit, err)
	}
	res := classify(t, c, Params{Parallelism: opts.Parallelism})
	var buf bytes.Buffer
	if err := res.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}

// TestFrameSplitEquivalence forces the frame/decode split pipeline on
// at every worker count and demands byte-identical classification
// output and exactly equal LoadStats against the sequential load.
func TestFrameSplitEquivalence(t *testing.T) {
	ribs, updates, orgPath := writeParallelFixture(t)
	refTSV, refStats := loadClassifyTSV(t, ribs, updates, orgPath, LoadOptions{Parallelism: 1})
	if len(refTSV) == 0 || refStats.Records == 0 {
		t.Fatalf("degenerate reference: %d TSV bytes, %d records", len(refTSV), refStats.Records)
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		tsv, stats := loadClassifyTSV(t, ribs, updates, orgPath,
			LoadOptions{Parallelism: workers, ForceFrameSplit: true})
		if stats != refStats {
			t.Errorf("split workers=%d: LoadStats = %+v, want %+v", workers, stats, refStats)
		}
		if !bytes.Equal(tsv, refTSV) {
			t.Errorf("split workers=%d: TSV differs (%d vs %d bytes)", workers, len(tsv), len(refTSV))
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
	ribs, updates, orgPath := writeParallelFixture(t)
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
		// With one RIB file and several updates files, workers > files
		// activates the split naturally; force it anyway so the test
		// does not depend on the activation heuristic.
		tsv, stats := loadClassifyTSV(t, bigRibs, updates, orgPath,
			LoadOptions{Parallelism: workers, ForceFrameSplit: true})
		if stats != refStats {
			t.Errorf("split workers=%d: LoadStats = %+v, want %+v", workers, stats, refStats)
		}
		if !bytes.Equal(tsv, refTSV) {
			t.Errorf("split workers=%d: TSV differs (%d vs %d bytes)", workers, len(tsv), len(refTSV))
		}
	}
}

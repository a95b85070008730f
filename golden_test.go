package bgpintent

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"
	"time"
)

// goldenSyntheticJSONSHA256 pins WriteJSON over the mixed golden corpus
// (114 684 bytes); the classic corpus pins its JSON as a file.
const goldenSyntheticJSONSHA256 = "a91738df60a49cc9778a12a39a81e99dfb4422e593371a07fdef011ccef47c00"

// goldenRun classifies the golden corpus (mixed, or classic-only) at
// one worker count and renders the three outputs the goldens pin. The
// snapshot info is fixed, so the meta section compares byte for byte
// too.
func goldenRun(t *testing.T, classicOnly bool, workers int) (tsv, json, flat []byte) {
	t.Helper()
	c, err := NewSyntheticCorpus(CorpusOptions{Small: true, DisableLargeCommunities: classicOnly})
	if err != nil {
		t.Fatal(err)
	}
	if n := c.LargeCommunities(); classicOnly != (n == 0) {
		t.Fatalf("classicOnly=%v corpus observed %d large communities", classicOnly, n)
	}
	res := classify(t, c, Params{Parallelism: workers})
	info := SnapshotInfo{Created: time.Unix(1714521600, 0).UTC(), Source: "golden",
		Tuples: c.Tuples(), Paths: c.Paths(), VantagePoints: len(c.VantagePoints()),
		Communities: len(c.Communities()), LargeCommunities: c.LargeCommunities()}
	var tsvBuf, jsonBuf, flatBuf bytes.Buffer
	if err := res.WriteTSV(&tsvBuf); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteSnapshotFlat(&flatBuf, info); err != nil {
		t.Fatal(err)
	}
	return tsvBuf.Bytes(), jsonBuf.Bytes(), flatBuf.Bytes()
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenClassicEquivalence pins the classic-only output contract:
// a corpus without any large communities must reproduce the pre-large-
// community TSV, JSON and snapshot bytes exactly (version byte 2, no
// large sections), at every worker count. This is the backward-
// compatibility guarantee — making large communities first-class
// inference subjects must not move a single byte of classic-only
// output.
func TestGoldenClassicEquivalence(t *testing.T) {
	want := map[string][]byte{}
	for _, name := range []string{"tsv", "json", "v2snap"} {
		want[name] = readGolden(t, "golden_classic."+name)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tsv, json, flat := goldenRun(t, true, workers)
			for name, got := range map[string][]byte{"tsv": tsv, "json": json, "v2snap": flat} {
				if !bytes.Equal(got, want[name]) {
					t.Errorf("%s output differs from classic golden (%d vs %d bytes)",
						name, len(got), len(want[name]))
				}
			}
		})
	}
}

// TestGoldenEquivalence pins the classifier output over the mixed
// (classic + large) corpus: the TSV golden was captured from the
// pre-columnar seed implementation, the snapshot golden (version byte
// 3, all nine sections) and the JSON hash from the last commit that
// could still read the seed-era version-1 snapshot golden, whose
// conversion they equal. Every store, index and evidence rewrite must
// reproduce them exactly, at every worker count. Regenerate with
// BGPINTENT_GEN_GOLDENS=1 only when the output format itself changes
// deliberately.
func TestGoldenEquivalence(t *testing.T) {
	wantTSV := readGolden(t, "golden_synthetic.tsv")
	wantFlat := readGolden(t, "golden_synthetic.flatsnap")
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tsv, json, flat := goldenRun(t, false, workers)
			if !bytes.Equal(tsv, wantTSV) {
				t.Errorf("TSV output differs from seed golden (%d vs %d bytes)", len(tsv), len(wantTSV))
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(json)); got != goldenSyntheticJSONSHA256 {
				t.Errorf("JSON output (%d bytes) has sha256 %s, want %s", len(json), got, goldenSyntheticJSONSHA256)
			}
			if !bytes.Equal(flat, wantFlat) {
				t.Errorf("snapshot output differs from golden (%d vs %d bytes)", len(flat), len(wantFlat))
			}
		})
	}
}

package bgpintent

import (
	"crypto/sha256"
	"os"
	"testing"
)

// TestGenGoldens regenerates the goldens TestGoldenEquivalence and
// TestGoldenClassicEquivalence pin; run manually with
// BGPINTENT_GEN_GOLDENS=1, and copy the logged JSON hash into
// goldenSyntheticJSONSHA256.
func TestGenGoldens(t *testing.T) {
	if os.Getenv("BGPINTENT_GEN_GOLDENS") != "1" {
		t.Skip("set BGPINTENT_GEN_GOLDENS=1")
	}
	write := func(name string, data []byte) {
		if err := os.WriteFile("testdata/"+name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tsv, json, flat := goldenRun(t, false, 1)
	write("golden_synthetic.tsv", tsv)
	write("golden_synthetic.flatsnap", flat)
	t.Logf("mixed goldens: %d tsv, %d flatsnap bytes; json sha256 %x (%d bytes)",
		len(tsv), len(flat), sha256.Sum256(json), len(json))

	// The classic-only goldens are the pre-large-community output
	// contract that a corpus without any large communities must
	// reproduce forever.
	tsv, json, flat = goldenRun(t, true, 1)
	write("golden_classic.tsv", tsv)
	write("golden_classic.json", json)
	write("golden_classic.v2snap", flat)
	t.Logf("classic goldens: %d tsv, %d json, %d v2snap bytes", len(tsv), len(json), len(flat))
}

package eval

import (
	"math"
	"strings"
	"testing"

	"bgpintent/internal/core"
	"bgpintent/internal/corpus"
	"bgpintent/internal/dict"
)

func tinyCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Build(corpus.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfusion(t *testing.T) {
	var c Confusion
	c.Add(dict.CatInformation, dict.CatInformation)
	c.Add(dict.CatInformation, dict.CatAction)
	c.Add(dict.CatAction, dict.CatAction)
	c.Add(dict.CatAction, dict.CatAction)
	c.Add(dict.CatUnknown, dict.CatAction) // ignored
	if c.Total() != 4 {
		t.Errorf("Total = %d", c.Total())
	}
	if got := c.Accuracy(); got != 0.75 {
		t.Errorf("Accuracy = %v", got)
	}
	var empty Confusion
	if empty.Accuracy() != 0 {
		t.Error("empty accuracy != 0")
	}
}

func TestCDF(t *testing.T) {
	cdf := &CDF{}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		cdf.Add(v)
	}
	if got := cdf.Quantile(0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := cdf.Quantile(1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := cdf.Quantile(0.5); got != 3 {
		t.Errorf("q50 = %v", got)
	}
	if got := cdf.FractionBelow(3); got != 0.4 {
		t.Errorf("FractionBelow(3) = %v", got)
	}
	if got := cdf.FractionBelow(100); got != 1 {
		t.Errorf("FractionBelow(100) = %v", got)
	}
	var empty CDF
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty quantile not NaN")
	}
}

func TestLogGrid(t *testing.T) {
	g := logGrid(0.01, 100000, 41)
	if len(g) != 41 {
		t.Fatalf("len = %d", len(g))
	}
	if math.Abs(g[0]-0.01) > 1e-9 || math.Abs(g[40]-100000) > 1e-3 {
		t.Errorf("grid ends = %v %v", g[0], g[40])
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatal("grid not increasing")
		}
	}
}

func TestHeadlineTiny(t *testing.T) {
	c := tinyCorpus(t)
	r := Headline(c)
	if r.Metrics["accuracy"] < 0.85 {
		t.Errorf("accuracy = %.3f, want >= 0.85", r.Metrics["accuracy"])
	}
	if r.Metrics["information"] <= r.Metrics["action"] {
		t.Errorf("info (%v) should outnumber action (%v), as in the paper",
			r.Metrics["information"], r.Metrics["action"])
	}
	if r.Metrics["excluded"] == 0 {
		t.Error("no exclusions; private/IXP communities missing from corpus")
	}
	if !strings.Contains(r.Render(), "accuracy=") {
		t.Error("render missing accuracy line")
	}
}

func TestFig4Tiny(t *testing.T) {
	c := tinyCorpus(t)
	r := Fig4(c)
	if r.Metrics["ases"] < 5 {
		t.Errorf("only %v ASes with both categories", r.Metrics["ases"])
	}
	out := r.Render()
	if !strings.Contains(out, "dict-blocks:") || !strings.Contains(out, "observed:") {
		t.Error("render missing expected rows")
	}
}

func TestFig6Tiny(t *testing.T) {
	c := tinyCorpus(t)
	r := Fig6(c)
	// The ratio threshold must separate categories well on baseline
	// clusters (paper: ~98% at the optimum).
	if r.Metrics["best_accuracy"] < 0.9 {
		t.Errorf("best accuracy = %.3f, want >= 0.9", r.Metrics["best_accuracy"])
	}
	if r.Metrics["mixed_info"] == 0 || r.Metrics["mixed_action"] == 0 {
		t.Errorf("mixed clusters: info=%v action=%v; need both",
			r.Metrics["mixed_info"], r.Metrics["mixed_action"])
	}
	// 160:1 should perform close to the optimum.
	if r.Metrics["best_accuracy"]-r.Metrics["accuracy_at_160"] > 0.08 {
		t.Errorf("accuracy at 160 (%.3f) far below best (%.3f)",
			r.Metrics["accuracy_at_160"], r.Metrics["best_accuracy"])
	}
}

func TestFig7Tiny(t *testing.T) {
	c := tinyCorpus(t)
	r6 := Fig6(c)
	r7 := Fig7(c)
	// Customer:peer must be a weaker separator than on:off-path.
	if r7.Metrics["best_accuracy"] >= r6.Metrics["best_accuracy"] {
		t.Errorf("customer:peer accuracy (%.3f) should trail on:off-path accuracy (%.3f)",
			r7.Metrics["best_accuracy"], r6.Metrics["best_accuracy"])
	}
	if r7.Metrics["best_accuracy"] < 0.5 {
		t.Errorf("customer:peer accuracy = %.3f; degenerate", r7.Metrics["best_accuracy"])
	}
}

func TestFig9Tiny(t *testing.T) {
	c := tinyCorpus(t)
	r := Fig9(c, nil)
	noClust := r.Metrics["accuracy_no_clustering"]
	at140 := r.Metrics["accuracy_at_140"]
	if at140 <= noClust {
		t.Errorf("clustering (%.3f) must beat no clustering (%.3f)", at140, noClust)
	}
	if at140 < 0.85 {
		t.Errorf("accuracy at gap 140 = %.3f", at140)
	}
	// The plateau contains the paper's operating point: gap 140 must be
	// within a whisker of the best gap found.
	if best := r.Metrics["best_accuracy"]; best-at140 > 0.02 {
		t.Errorf("gap 140 accuracy %.3f far below best %.3f", at140, best)
	}
}

func TestFig10Tiny(t *testing.T) {
	c := tinyCorpus(t)
	r := Fig10(c, []int{1, 3, 8, 20, 40}, 10, 7)
	if r.Metrics["accuracy_p50_at_20"] < 0.8 {
		t.Errorf("median accuracy at 20 VPs = %.3f", r.Metrics["accuracy_p50_at_20"])
	}
	if cov := r.Metrics["coverage_p50_at_20"]; cov <= 0.3 || cov > 1.0 {
		t.Errorf("coverage at 20 VPs = %.3f", cov)
	}
}

func TestDaysSweepTiny(t *testing.T) {
	r, err := DaysSweep(corpus.TinyConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["accuracy_final"] < 0.85 {
		t.Errorf("final accuracy = %.3f", r.Metrics["accuracy_final"])
	}
	if len(r.Lines) != 3 {
		t.Errorf("lines = %d, want 3 (one per day)", len(r.Lines))
	}
}

func TestMonthsSweepTiny(t *testing.T) {
	// Five months: enough epochs for growth to dominate day-to-day noise
	// at the tiny scale.
	r, err := MonthsSweep(corpus.TinyConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["min_accuracy"] < 0.80 {
		t.Errorf("min accuracy = %.3f", r.Metrics["min_accuracy"])
	}
	if r.Metrics["growth"] <= 0 {
		t.Errorf("classified communities shrank over months: %v", r.Metrics["growth"])
	}
	if r.Metrics["info_growth"] <= 0 {
		t.Errorf("information communities did not grow: %v", r.Metrics["info_growth"])
	}
}

func TestTable1Tiny(t *testing.T) {
	c := tinyCorpus(t)
	r := Table1(c)
	if r.Metrics["precision_after"] <= r.Metrics["precision_before"] {
		t.Errorf("precision did not improve: %.3f -> %.3f",
			r.Metrics["precision_before"], r.Metrics["precision_after"])
	}
	if r.Metrics["te_after"] > r.Metrics["te_before"]/2 {
		t.Errorf("TE false positives barely reduced: %v -> %v",
			r.Metrics["te_before"], r.Metrics["te_after"])
	}
}

func TestAblationsTiny(t *testing.T) {
	c := tinyCorpus(t)
	r := Ablations(c)
	base := r.Metrics["accuracy_baseline"]
	if base < 0.85 {
		t.Errorf("baseline accuracy = %.3f", base)
	}
	// Dropping exclusions misclassifies route-server communities, so
	// truth-wide accuracy must not improve.
	if r.Metrics["accuracy_no_exclusions"] > base+1e-9 {
		t.Errorf("no-exclusions (%.3f) beat baseline (%.3f)",
			r.Metrics["accuracy_no_exclusions"], base)
	}
}

func TestBaselineClustersCoverObservedDictComms(t *testing.T) {
	c := tinyCorpus(t)
	os := core.Observe(c.Store, c.Options())
	clusters := BaselineClusters(os, c.Dict)
	if len(clusters) == 0 {
		t.Fatal("no baseline clusters")
	}
	seen := 0
	for _, cl := range clusters {
		seen += len(cl.Members)
		for _, m := range cl.Members {
			if got := c.Dict.Category(cl.ASN, m.Comm.Value()); got != cl.Category() {
				t.Fatalf("member %v in cluster of category %v has dict category %v",
					m.Comm, cl.Category(), got)
			}
		}
	}
	// Every observed dictionary-covered community is in exactly one
	// cluster.
	want := 0
	for _, st := range os.Stats {
		if c.Dict.Category(uint32(st.Comm.ASN()), st.Comm.Value()) != dict.CatUnknown {
			want++
		}
	}
	if seen != want {
		t.Errorf("clusters cover %d communities, dictionary covers %d observed", seen, want)
	}
}

func TestSeedSweepTiny(t *testing.T) {
	cfg := corpus.TinyConfig()
	cfg.Days = 1
	r, err := SeedSweep(cfg, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["min_accuracy"] < 0.9 {
		t.Errorf("seed-robustness floor = %.3f; calibration overfits the default seed",
			r.Metrics["min_accuracy"])
	}
}

func TestFineGrainedTiny(t *testing.T) {
	c := tinyCorpus(t)
	r := FineGrained(c)
	if r.Metrics["scored"] < 50 {
		t.Fatalf("scored = %v", r.Metrics["scored"])
	}
	if r.Metrics["accuracy"] < 0.5 {
		t.Errorf("fine-grained accuracy = %.3f", r.Metrics["accuracy"])
	}
	if !strings.Contains(r.Render(), "truth \\ inferred") {
		t.Error("render missing confusion matrix")
	}
}

package bgpintent

// The benchmark harness: one benchmark per paper table/figure (see the
// per-experiment index in DESIGN.md §4), plus micro-benchmarks of the
// substrates. Experiment benches run on a shared corpus built once; its
// scale is the default benchmark corpus with BGPINTENT_BENCH_DAYS days
// of data (default 2; the EXPERIMENTS.md numbers use cmd/evalrepro with
// the full 7).

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"bgpintent/internal/asrel"
	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/corpus"
	"bgpintent/internal/dict"
	"bgpintent/internal/eval"
	"bgpintent/internal/mrt"
	"bgpintent/internal/simulate"
	"bgpintent/internal/topology"
)

var (
	benchOnce sync.Once
	benchC    *corpus.Corpus
	benchErr  error
)

func benchCorpus(b *testing.B) *corpus.Corpus {
	b.Helper()
	benchOnce.Do(func() {
		cfg := corpus.DefaultConfig()
		cfg.Days = 2
		if v := os.Getenv("BGPINTENT_BENCH_DAYS"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				cfg.Days = n
			}
		}
		benchC, benchErr = corpus.Build(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchC
}

// reportMetric surfaces an experiment's key numbers in the benchmark
// output so paper-vs-measured comparisons fall out of `go test -bench`.
func reportMetrics(b *testing.B, r *eval.Report, keys ...string) {
	for _, k := range keys {
		if v, ok := r.Metrics[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

// BenchmarkHeadlineInference regenerates the §6 headline totals
// (DESIGN.md experiment `headline`).
func BenchmarkHeadlineInference(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		r := eval.Headline(c)
		if i == 0 {
			reportMetrics(b, r, "accuracy", "action", "information")
		}
	}
}

// BenchmarkFig4Clusters regenerates Figure 4 (experiment `fig4`).
func BenchmarkFig4Clusters(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		r := eval.Fig4(c)
		if i == 0 {
			reportMetrics(b, r, "ases")
		}
	}
}

// BenchmarkFig6RatioCDF regenerates Figure 6 (experiment `fig6`).
func BenchmarkFig6RatioCDF(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		r := eval.Fig6(c)
		if i == 0 {
			reportMetrics(b, r, "best_threshold", "best_accuracy", "accuracy_at_160")
		}
	}
}

// BenchmarkFig7CustPeerCDF regenerates Figure 7 (experiment `fig7`).
func BenchmarkFig7CustPeerCDF(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		r := eval.Fig7(c)
		if i == 0 {
			reportMetrics(b, r, "best_threshold", "best_accuracy")
		}
	}
}

// BenchmarkFig9GapSweep regenerates Figure 9 (experiment `fig9`).
func BenchmarkFig9GapSweep(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		r := eval.Fig9(c, nil)
		if i == 0 {
			reportMetrics(b, r, "accuracy_no_clustering", "accuracy_at_140", "best_gap")
		}
	}
}

// BenchmarkFig10VantagePoints regenerates Figure 10 (experiment
// `fig10`) with 10 trials per point (evalrepro runs the paper's 50).
func BenchmarkFig10VantagePoints(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		r := eval.Fig10(c, []int{1, 3, 8, 20, 40, 80, 160}, 10, 7)
		if i == 0 {
			reportMetrics(b, r, "accuracy_p50_at_20", "coverage_p50_at_20")
		}
	}
}

// BenchmarkTable1LocationFilter regenerates Table 1 (experiment `tab1`).
func BenchmarkTable1LocationFilter(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		r := eval.Table1(c)
		if i == 0 {
			reportMetrics(b, r, "precision_before", "precision_after", "te_before", "te_after")
		}
	}
}

// BenchmarkDaysSweep regenerates the §6 days-of-data analysis
// (experiment `days`) over 3 days (evalrepro runs 7).
func BenchmarkDaysSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := corpus.DefaultConfig()
		r, err := eval.DaysSweep(cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportMetrics(b, r, "accuracy_day1", "accuracy_final")
		}
	}
}

// BenchmarkMonthsSweep regenerates the §6 longitudinal analysis
// (experiment `months`) over 3 months (evalrepro runs 12).
func BenchmarkMonthsSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := corpus.DefaultConfig()
		r, err := eval.MonthsSweep(cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportMetrics(b, r, "min_accuracy", "max_accuracy", "growth")
		}
	}
}

// BenchmarkAblations runs the DESIGN.md §4 design-choice ablations.
func BenchmarkAblations(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		r := eval.Ablations(c)
		if i == 0 {
			reportMetrics(b, r, "accuracy_baseline", "accuracy_no_siblings")
		}
	}
}

// ---- substrate micro-benchmarks ----

// BenchmarkClassify measures one full classification pass over the
// corpus.
func BenchmarkClassify(b *testing.B) {
	c := benchCorpus(b)
	opts := c.Options()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Classify(c.Store, opts)
	}
}

// BenchmarkObserve measures the on/off-path counting pass alone.
func BenchmarkObserve(b *testing.B) {
	c := benchCorpus(b)
	opts := c.Options()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Observe(c.Store, opts)
	}
}

// BenchmarkVPSweepRun measures one VP-subset trial (the Fig. 10 inner
// loop).
func BenchmarkVPSweepRun(b *testing.B) {
	c := benchCorpus(b)
	sweep := core.NewVPSweep(c.Store, c.Options())
	vps := sweep.VPs()
	subset := vps[:len(vps)/4]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep.Run(subset)
	}
}

// BenchmarkSimulateDay measures one day of route propagation at
// benchmark scale.
func BenchmarkSimulateDay(b *testing.B) {
	topo, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sim := simulate.New(topo, simulate.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunDay(i)
	}
}

// BenchmarkTupleStoreAdd measures tuple ingestion.
func BenchmarkTupleStoreAdd(b *testing.B) {
	topo, err := topology.Generate(topology.TinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	sim := simulate.New(topo, simulate.TinyConfig())
	day := sim.RunDay(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := core.NewTupleStore()
		for j := range day.Views {
			v := &day.Views[j]
			ts.AddView(v.VP, v.Path, v.Comms)
		}
	}
}

// ---- parallel pipeline benchmarks ----

var (
	benchMRTOnce  sync.Once
	benchMRTRibs  []string
	benchMRTError error
)

// writeBenchMRT writes a fresh default-scale corpus out as
// per-collector, per-day MRT RIB files under a temp dir and returns
// their paths. A fresh simulator (Days=0) is used so day replay starts
// from a clean state regardless of what benchCorpus already simulated.
// With matrix set, the simulator mirrors every origin-attached
// community as a large community (the std/lrg matrix), roughly
// doubling the community payload per view.
func writeBenchMRT(days int, matrix bool) ([]string, error) {
	cfg := corpus.DefaultConfig()
	cfg.Days = 0
	cfg.LargeMatrix = matrix
	c, err := corpus.Build(cfg)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "bgpintent-bench-mrt")
	if err != nil {
		return nil, err
	}
	var ribs []string
	const t0 = 1714521600
	for day := 0; day < days; day++ {
		res := c.Sim.RunDay(day)
		for col := 0; col < c.Sim.Collectors(); col++ {
			path := filepath.Join(dir, fmt.Sprintf("rc%02d.day%d.rib.mrt", col, day))
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			if err := c.Sim.WriteRIB(f, uint32(t0+day*86400), col, res); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
			ribs = append(ribs, path)
		}
	}
	return ribs, nil
}

// benchDays returns the benchmark day count (BGPINTENT_BENCH_DAYS,
// default 2).
func benchDays() int {
	days := 2
	if v := os.Getenv("BGPINTENT_BENCH_DAYS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			days = n
		}
	}
	return days
}

// benchMRTFiles memoizes writeBenchMRT for the in-tree benchmarks.
func benchMRTFiles(b *testing.B) []string {
	b.Helper()
	benchMRTOnce.Do(func() {
		benchMRTRibs, benchMRTError = writeBenchMRT(benchDays(), false)
	})
	if benchMRTError != nil {
		b.Fatal(benchMRTError)
	}
	return benchMRTRibs
}

// BenchmarkLoadMRTParallel measures the fan-out MRT load (decode into
// the sharded store plus the deterministic merge) across worker counts.
func BenchmarkLoadMRTParallel(b *testing.B) {
	ribs := benchMRTFiles(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, _, err := LoadMRT(context.Background(), Sources{RIBs: ribs},
					LoadOptions{Parallelism: workers})
				if err != nil {
					b.Fatal(err)
				}
				if c.Tuples() == 0 {
					b.Fatal("empty corpus")
				}
			}
		})
	}
}

// BenchmarkObserveParallel measures the partitioned on/off-path
// counting pass across worker counts.
func BenchmarkObserveParallel(b *testing.B) {
	c := benchCorpus(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := c.Options()
			opts.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Observe(c.Store, opts)
			}
		})
	}
}

// BenchmarkClassifyParallel measures the full observe+cluster+label
// pipeline across worker counts.
func BenchmarkClassifyParallel(b *testing.B) {
	c := benchCorpus(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := c.Options()
			opts.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Classify(c.Store, opts)
			}
		})
	}
}

// BenchmarkGaoInfer measures AS-relationship inference over the corpus
// paths.
func BenchmarkGaoInfer(b *testing.B) {
	c := benchCorpus(b)
	paths := c.Store.AllPaths()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asrel.Infer(paths)
	}
}

// BenchmarkMRTRoundTrip measures writing and re-scanning one collector
// RIB.
func BenchmarkMRTRoundTrip(b *testing.B) {
	topo, err := topology.Generate(topology.TinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	sim := simulate.New(topo, simulate.TinyConfig())
	day := sim.RunDay(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := sim.WriteRIB(&buf, 1714521600, 0, day); err != nil {
			b.Fatal(err)
		}
		sc := mrt.NewTableDumpScanner(&buf)
		for {
			if _, err := sc.Next(); err != nil {
				break
			}
		}
	}
}

// BenchmarkUpdateDecode measures BGP UPDATE message decoding.
func BenchmarkUpdateDecode(b *testing.B) {
	msg := &bgp.UpdateMessage{
		Attrs: bgp.PathAttributes{
			HasOrigin: true,
			ASPath:    bgp.NewASPath(65269, 7018, 1299, 64496),
			Communities: bgp.Communities{
				bgp.NewCommunity(1299, 2569), bgp.NewCommunity(1299, 35130),
				bgp.NewCommunity(7018, 1000),
			},
		},
		NLRI: []bgp.Prefix{bgp.MustParsePrefix("192.0.2.0/24")},
	}
	wire, err := msg.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bgp.DecodeUpdate(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeRegex measures dictionary range-regex synthesis and
// matching.
func BenchmarkRangeRegex(b *testing.B) {
	d := dict.NewDictionary()
	if err := d.Add(&dict.Entry{ASN: 1299, Pattern: dict.RangeRegex(20000, 39999), Sub: dict.SubLocation}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dict.RangeRegex(uint16(i%60000), uint16(i%60000+500))
		d.Category(1299, uint16(20000+i%20000))
	}
}

// BenchmarkSeedSweep runs the seed-robustness check over three corpora
// (evalrepro runs five).
func BenchmarkSeedSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := corpus.DefaultConfig()
		cfg.Days = 1
		r, err := eval.SeedSweep(cfg, []int64{1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportMetrics(b, r, "min_accuracy", "max_accuracy")
		}
	}
}

// BenchmarkFineGrained runs the §7 future-work extension: sub-category
// inference for information communities.
func BenchmarkFineGrained(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		r := eval.FineGrained(c)
		if i == 0 {
			reportMetrics(b, r, "accuracy", "scored")
		}
	}
}

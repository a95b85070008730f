package bgpintent

// Bench regression guard: a cheap CI tripwire that re-measures the
// numbers this codebase stakes its performance story on and compares
// them against the committed BENCH_pipeline.json baseline:
//
//   - load_mrt allocations per op, normalized per tuple so corpus size
//     (BGPINTENT_BENCH_DAYS) doesn't skew the comparison — fails on a
//     >20% regression, which would mean the columnar store's
//     allocation-free hot path has been eroded;
//   - load_mrt allocs per tuple on a mixed classic+large (std/lrg
//     matrix) corpus vs the classic-only number from the same run —
//     fails above 1.5×, which would mean keying large communities into
//     the store stopped being allocation-free;
//   - bytes allocated by one Observe, per tuple — fails above 16 B,
//     which would mean the evidence builder buffers (community, path)
//     pairs again — and by two SnapshotInfo calls, per distinct
//     community and vantage point — fails above 64 B, which would mean
//     counting copies or sorts the payload again, or is not cached;
//   - heap held by a stitched 1 000-tuple sharded load — fails above
//     1 MB, which would mean the shared arenas are back to reserving
//     full chunks whatever the corpus size;
//   - classify speedup at workers=4 vs workers=1 — fails below 1.0×,
//     which would mean parallel classification went back to being
//     slower than sequential (the pre-CSR pathology was 0.72×);
//   - load_mrt speedup at workers=4 vs workers=1 (only with >=4
//     schedulable CPUs) — fails below 1.5×, which would mean the
//     merge-free parallel load path has re-serialized.
//
// Gated behind BGPINTENT_BENCH_GUARD=1 because it runs the pipeline at
// benchmark fidelity (tens of seconds):
//
//	BGPINTENT_BENCH_GUARD=1 go test -run TestBenchGuard -v .

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"

	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
)

const (
	// guardLoadAllocHeadroom is how much per-tuple allocation growth the
	// guard tolerates before failing (measurement noise on allocs/op is
	// small; 20% catches any real per-view regression).
	guardLoadAllocHeadroom = 1.20
	// guardMinClassifySpeedup is the floor for classify's workers=4
	// speedup over sequential. Best-of-3 benchmark runs keep scheduler
	// noise out of the ratio; a genuine regression to the old
	// merge-heavy Observe shows up as ~0.7, far below the floor.
	guardMinClassifySpeedup = 1.0
	// guardMixedAllocFactor bounds how much a mixed classic+large corpus
	// may cost per tuple relative to the classic-only corpus measured in
	// the same run. The std/lrg matrix roughly doubles the community
	// payload per view, but large sets deduplicate through the shared
	// intern table, so the steady-state per-tuple cost is nearly flat
	// (measured ~1.01x); 1.5x is the tripwire for the keyed-large path
	// falling off the allocation-free hot path (e.g. per-view boxing of
	// large community slices or a map allocation per tuple).
	guardMixedAllocFactor = 1.5
	// guardMinLoadSpeedup is the floor for load_mrt's workers=4 speedup
	// over sequential, checked only with >=4 schedulable CPUs. The
	// merge-free store plus the frame/decode split should deliver well
	// above 2x at 4 workers; 1.5x is the tripwire for the load path
	// quietly re-serializing (a global lock on the hot path, the split
	// pipeline failing to activate, or a stitch that re-copies data).
	guardMinLoadSpeedup = 1.5
	// guardObserveBytesPerTuple bounds what one Observe may allocate,
	// per tuple of the corpus (measured 2.2 B on the stitched guard
	// corpus; grouping an insertion-order store adds one int32 per tuple
	// and per path).
	guardObserveBytesPerTuple = 16
	// guardSnapshotInfoBytesPerKey bounds SnapshotInfo's allocation per
	// distinct community or vantage point: 8-byte slots at >= 3/8 load,
	// doubled for the tables outgrown on the way (~43 B).
	guardSnapshotInfoBytesPerKey = 64
	// guardSmallLoadBytes bounds the heap a stitched load of
	// guardSmallLoadTuples tuples keeps alive (measured ~130 KB: the
	// shared arenas' first chunks and the intern table; three full arena
	// chunks used to pin 20 MB whatever the corpus size).
	guardSmallLoadTuples = 1000
	guardSmallLoadBytes  = 1 << 20
)

func TestBenchGuard(t *testing.T) {
	if os.Getenv("BGPINTENT_BENCH_GUARD") != "1" {
		t.Skip("set BGPINTENT_BENCH_GUARD=1 to run the bench regression guard")
	}
	raw, err := os.ReadFile("BENCH_pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline pipelineBenchReport
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatalf("parsing BENCH_pipeline.json: %v", err)
	}
	baseLoad := findBenchResult(&baseline, "load_mrt", 1)
	if baseLoad == nil || baseline.Tuples == 0 {
		t.Fatal("BENCH_pipeline.json has no load_mrt workers=1 baseline")
	}
	if baseline.SingleCore || baseline.GoMaxProcs < 2 {
		t.Logf("baseline was emitted at GOMAXPROCS=%d (single-core): its speedup columns are not "+
			"a scaling reference; the guard measures speedup fresh and only uses the baseline's "+
			"allocation counts", baseline.GoMaxProcs)
	}

	ribs, err := writeBenchMRT(benchDays(), false)
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := LoadMRT(context.Background(), Sources{RIBs: ribs}, LoadOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Tuples() == 0 {
		t.Fatal("empty bench corpus")
	}

	// Load allocation regression, per tuple.
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := LoadMRT(context.Background(), Sources{RIBs: ribs}, LoadOptions{Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	allocsPerTuple := float64(res.AllocsPerOp()) / float64(warm.Tuples())
	baseAllocsPerTuple := float64(baseLoad.AllocsPerOp) / float64(baseline.Tuples)
	limit := baseAllocsPerTuple * guardLoadAllocHeadroom
	t.Logf("load_mrt allocs/tuple: got %.3f, baseline %.3f, limit %.3f",
		allocsPerTuple, baseAllocsPerTuple, limit)
	if allocsPerTuple > limit {
		t.Errorf("load_mrt allocations regressed: %.3f allocs/tuple exceeds %.3f (baseline %.3f +%d%%)",
			allocsPerTuple, limit, baseAllocsPerTuple, int(guardLoadAllocHeadroom*100)-100)
	}

	// Mixed-community load tripwire: the same corpus with the std/lrg
	// matrix enabled, measured against the classic-only number from this
	// very run (self-relative, so baseline drift and host noise cancel).
	// Large communities are full inference subjects — keyed into the
	// tuple store through the shared intern table — and that keyed path
	// must stay within a constant factor of the classic hot path.
	mixedRibs, err := writeBenchMRT(benchDays(), true)
	if err != nil {
		t.Fatal(err)
	}
	mixedWarm, _, err := LoadMRT(context.Background(), Sources{RIBs: mixedRibs}, LoadOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mixedWarm.LargeCommunities() == 0 {
		t.Fatal("matrix bench corpus observed no large communities; mirroring inert")
	}
	mixedRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := LoadMRT(context.Background(), Sources{RIBs: mixedRibs}, LoadOptions{Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	mixedAllocsPerTuple := float64(mixedRes.AllocsPerOp()) / float64(mixedWarm.Tuples())
	mixedLimit := allocsPerTuple * guardMixedAllocFactor
	t.Logf("load_mrt mixed allocs/tuple: got %.3f, classic %.3f, limit %.3f (%d large communities)",
		mixedAllocsPerTuple, allocsPerTuple, mixedLimit, mixedWarm.LargeCommunities())
	if mixedAllocsPerTuple > mixedLimit {
		t.Errorf("mixed-community load regressed: %.3f allocs/tuple exceeds %.1fx the classic-only %.3f — "+
			"the keyed large-community path has fallen off the allocation-free hot path",
			mixedAllocsPerTuple, guardMixedAllocFactor, allocsPerTuple)
	}

	// Observe's transient memory: the path-grouped walk keeps one small
	// table per worker (and one int32 per tuple when the store is not
	// already path-grouped) — never a buffer of (community, path) pairs,
	// which cost 16 B per pair before the merge copies and the index.
	observeOpts := core.DefaultOptions()
	observeOpts.Workers = 1
	observeBytes := bytesAllocated(func() { core.Observe(warm.store, observeOpts) })
	observeBytesPerTuple := float64(observeBytes) / float64(warm.Tuples())
	t.Logf("observe transient bytes/tuple: got %.2f, limit %d", observeBytesPerTuple, guardObserveBytesPerTuple)
	if observeBytesPerTuple > guardObserveBytesPerTuple {
		t.Errorf("Observe allocated %.2f B per tuple, want <= %d — a per-pair buffer is back in the evidence builder",
			observeBytesPerTuple, guardObserveBytesPerTuple)
	}

	// SnapshotInfo counts distinct communities and vantage points by
	// hash-set dedup, once per corpus: two calls together allocate in
	// proportion to the distinct keys, not to the payload they dedup.
	var info SnapshotInfo
	first := bytesAllocated(func() { info = warm.SnapshotInfo("guard") })
	second := bytesAllocated(func() { info = warm.SnapshotInfo("guard") })
	infoLimit := uint64(guardSnapshotInfoBytesPerKey*(info.Communities+info.VantagePoints) + 4096)
	t.Logf("SnapshotInfo bytes: first %d, second %d, limit %d (%d communities, %d vantage points)",
		first, second, infoLimit, info.Communities, info.VantagePoints)
	if first+second > infoLimit {
		t.Errorf("two SnapshotInfo calls allocated %d B, want <= %d — counting is copying or sorting payload again",
			first+second, infoLimit)
	}
	if second > 1024 {
		t.Errorf("second SnapshotInfo call allocated %d B — the corpus counters are not cached", second)
	}

	// Residency floor: what a small sharded load keeps alive after the
	// stitch is in proportion to its tuples, not a fixed reservation.
	heapLive := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heapLive()
	sts := core.NewShardedTupleStore(64)
	for i := 0; i < guardSmallLoadTuples; i++ {
		path := []uint32{uint32(65000 + i%50), 7018, uint32(1000 + i)}
		comms := bgp.Communities{bgp.NewCommunity(7018, uint16(i)), bgp.NewCommunity(1299, uint16(i%100))}
		sts.AddView(uint32(1+i%20), path, comms)
	}
	small := sts.Stitch(1)
	sts = nil
	held := int64(heapLive()) - int64(before)
	t.Logf("heap held by a stitched %d-tuple load: %d B, limit %d", small.Len(), held, guardSmallLoadBytes)
	if small.Len() != guardSmallLoadTuples {
		t.Fatalf("small load holds %d tuples, want %d", small.Len(), guardSmallLoadTuples)
	}
	if held > guardSmallLoadBytes {
		t.Errorf("a stitched %d-tuple load holds %d B, want <= %d — the shared arenas reserve full chunks again",
			small.Len(), held, guardSmallLoadBytes)
	}
	runtime.KeepAlive(small)

	// Parallel scaling: best-of-3 at each worker count. On a
	// single-core host a workers=4 run measures scheduler overhead, not
	// parallelism, so the checks would reject healthy code — skip them.
	if runtime.GOMAXPROCS(0) < 2 {
		t.Logf("GOMAXPROCS=%d: skipping speedup checks (meaningless on one core)", runtime.GOMAXPROCS(0))
		return
	}
	bestOf3 := func(fn func()) int64 {
		best := int64(math.MaxInt64)
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					fn()
				}
			})
			if ns := r.NsPerOp(); ns < best {
				best = ns
			}
		}
		return best
	}
	classify := func(workers int) int64 {
		return bestOf3(func() { classify(t, warm, Params{Parallelism: workers}) })
	}
	seq := classify(1)
	par := classify(4)
	speedup := float64(seq) / float64(par)
	t.Logf("classify: workers=1 %dns, workers=4 %dns, speedup %.3f", seq, par, speedup)
	if speedup < guardMinClassifySpeedup {
		t.Errorf("classify speedup at workers=4 is %.3fx, want >= %.2fx — parallel classification is slower than sequential",
			speedup, guardMinClassifySpeedup)
	}

	// Load scaling needs at least as many schedulable CPUs as workers;
	// at GOMAXPROCS 2-3 a workers=4 ratio understates the pipeline.
	if runtime.GOMAXPROCS(0) < 4 {
		t.Logf("GOMAXPROCS=%d: skipping load_mrt speedup check (needs >=4)", runtime.GOMAXPROCS(0))
		return
	}
	load := func(workers int) int64 {
		return bestOf3(func() {
			if _, _, err := LoadMRT(context.Background(), Sources{RIBs: ribs}, LoadOptions{Parallelism: workers}); err != nil {
				t.Fatal(err)
			}
		})
	}
	loadSeq := load(1)
	loadPar := load(4)
	loadSpeedup := float64(loadSeq) / float64(loadPar)
	t.Logf("load_mrt: workers=1 %dns, workers=4 %dns, speedup %.3f (%d rib files)",
		loadSeq, loadPar, loadSpeedup, len(ribs))
	if loadSpeedup < guardMinLoadSpeedup {
		t.Errorf("load_mrt speedup at workers=4 is %.3fx, want >= %.2fx — the parallel load path has re-serialized",
			loadSpeedup, guardMinLoadSpeedup)
	}
}

// bytesAllocated returns the heap bytes fn allocates.
func bytesAllocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func findBenchResult(r *pipelineBenchReport, name string, workers int) *pipelineBenchResult {
	for i := range r.Results {
		res := &r.Results[i]
		if res.Name == name && res.Workers == workers {
			return res
		}
	}
	return nil
}

package bgpintent

// Allocation tripwires for the batch path, on one day of the
// default-scale corpus written out as MRT RIB files. They are ordinary
// tier-1 tests with constant ceilings: what they pin is behaviour (the
// hot paths stay allocation-light), not speed — speed is bgpbench's job
// (bash bench/run.sh). Each ceiling sits next to the value measured on
// 2026-10-05 (go1.24.0, 2 vCPU; 272 806 tuples, 154 420 paths).

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
	"time"
	"unsafe"

	"bgpintent/internal/core"
	"bgpintent/internal/simulate"
	"bgpintent/internal/topology"
)

const (
	// One sequential LoadMRT, heap allocations per unique tuple.
	// Measured 0.045 (0.61 while every new path allocated its key
	// string, 0.57 per tuple); more means a per-path or per-view
	// allocation is back on the columnar store's write path.
	guardLoadAllocsPerTuple = 0.063
	// The same load with every origin-attached community mirrored as a
	// large community, relative to the classic number from the same run.
	// Measured 1.14x; more means keying large communities into the store
	// left the allocation-free path (per-view boxing, a map per tuple).
	guardMixedAllocFactor = 1.5
	// Bytes one Observe allocates, per tuple. Measured 2.23 with the
	// walk's rank index, a word per group-arena word beside the distinct
	// keys, and 12-byte counts per rank (1.52 while each worker counted
	// into hash tables of its own; the ceiling was 16). A buffer of
	// (community, path) pairs costs 16 B per pair before any merge.
	guardObserveBytesPerTuple = 3
	// Bytes two SnapshotInfo calls allocate, per distinct community or
	// vantage point. Measured 37 (8-byte hash-set slots, doubled for the
	// tables outgrown on the way); more means counting copies or sorts
	// the payload again.
	guardSnapshotInfoBytesPerKey = 64
	// Bytes the second SnapshotInfo call may allocate. Measured 0: the
	// counts are cached per Corpus.
	guardSnapshotInfoRepeatBytes = 1024
	// Live heap a loaded Corpus and its Result hold, per tuple. Measured
	// 19.4 with set records of uvarint group ordinals (23.3 with 4-byte
	// group refs, whose ceiling was 27; before them, with the 8-byte
	// tuple and paths stored as hash-consed 8-byte hops; 34.7 with the
	// 12-byte tuple, 4-byte path ends and an ASN
	// arena, whose ceiling was 39; 43.2 with the 16-byte tuple, 8-byte
	// path spans and a header word per set record, whose ceiling was 48;
	// 54.6 with one flat record per distinct set, whose ceiling was 60;
	// 59.9 while each path also kept a span of organizations, whose
	// ceiling was 66; 76.9 with the 32-byte tuple record; 113.8 while the
	// stitched store kept a key string per path, the intern hash table and
	// the arenas' doubling slack); more means load-only state outlives Stitch again, sets are
	// stored flat again, paths stop sharing their suffixes, or the tuple,
	// hop or set record grew back.
	guardHeldBytesPerTuple = 20
	// How far Corpus.Footprint's reserved total may sit from the heap
	// the Corpus is measured to hold. Measured 0.1 % under (the slice
	// headers it does not count).
	guardFootprintTolerance = 0.05
	// How far above the heap it starts from a load of the guard corpus
	// may reach under GOGC 5, as a multiple of the heap the loaded Corpus
	// holds, at Parallelism 1 and 2. Measured 3.24-3.43x (peak 60.9-64.3
	// B per tuple, held 18.7), also beside another test binary, with set
	// records of uvarint group ordinals and a Stitch that collects the
	// load's tables before it allocates; up to 3.76x beside another
	// binary while Stitch allocated on top of the uncollected tables;
	// 3.03-3.20x (peak 68.4-72.4, held 22.6) with 4-byte group refs; 2.98-3.22x, one load of 42 at 3.38x, while the shards shared
	// one group intern. The ceiling was set at 3.22x plus 12 % for the
	// sampler's and the collector's timing; more means load-only state
	// grew, or outlives the step that needs it.
	guardLoadPeakOverHeld = 3.6
)

// writeGuardRIBs writes day 0 of the default-scale corpus as one RIB
// file per collector. With matrix set the simulator mirrors every
// origin-attached community as a large community.
func writeGuardRIBs(t *testing.T, topo *topology.Topology, matrix bool) []string {
	t.Helper()
	cfg := simulate.DefaultConfig()
	cfg.LargeMatrix = matrix
	sim := simulate.New(topo, cfg)
	dir := t.TempDir()
	res := sim.RunDay(0)
	var ribs []string
	for col := 0; col < sim.Collectors(); col++ {
		path := filepath.Join(dir, fmt.Sprintf("rc%02d.day0.rib.mrt", col))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.WriteRIB(f, 1714521600, col, res); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		ribs = append(ribs, path)
	}
	return ribs
}

// loadAllocsPerTuple loads ribs sequentially and returns the corpus and
// what one such load allocates per unique tuple.
func loadAllocsPerTuple(t *testing.T, ribs []string) (*Corpus, float64) {
	t.Helper()
	var c *Corpus
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if c, _, err = LoadMRT(context.Background(), Sources{RIBs: ribs}, LoadOptions{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if c.Tuples() == 0 {
		t.Fatal("empty guard corpus")
	}
	return c, allocs / float64(c.Tuples())
}

// bytesAllocated returns the heap bytes fn allocates.
func bytesAllocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestAllocationGuards(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two default-scale corpora")
	}
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items; alloc counts are noise")
	}
	topo, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, classic := loadAllocsPerTuple(t, writeGuardRIBs(t, topo, false))
	t.Logf("load: %.3f allocs/tuple over %d tuples, ceiling %.2f", classic, c.Tuples(), guardLoadAllocsPerTuple)
	if classic > guardLoadAllocsPerTuple {
		t.Errorf("LoadMRT allocates %.3f per tuple, want <= %.2f", classic, guardLoadAllocsPerTuple)
	}

	mc, mixed := loadAllocsPerTuple(t, writeGuardRIBs(t, topo, true))
	if mc.LargeCommunities() == 0 {
		t.Fatal("matrix corpus observed no large communities; mirroring inert")
	}
	t.Logf("mixed load: %.3f allocs/tuple (%.2fx classic, %d large communities), ceiling %.1fx",
		mixed, mixed/classic, mc.LargeCommunities(), guardMixedAllocFactor)
	if mixed > classic*guardMixedAllocFactor {
		t.Errorf("mixed-corpus LoadMRT allocates %.3f per tuple, want <= %.1fx the classic %.3f",
			mixed, guardMixedAllocFactor, classic)
	}

	opts := core.DefaultOptions()
	opts.Workers = 1
	observe := float64(bytesAllocated(func() { core.Observe(c.store, opts) })) / float64(c.Tuples())
	t.Logf("Observe: %.2f B/tuple, ceiling %d", observe, guardObserveBytesPerTuple)
	if observe > guardObserveBytesPerTuple {
		t.Errorf("Observe allocates %.2f B per tuple, want <= %d", observe, guardObserveBytesPerTuple)
	}

	var info SnapshotInfo
	first := bytesAllocated(func() { info = c.SnapshotInfo("guard") })
	second := bytesAllocated(func() { info = c.SnapshotInfo("guard") })
	keys := uint64(info.Communities + info.VantagePoints)
	t.Logf("SnapshotInfo: %d B then %d B for %d communities + %d vantage points, ceilings %d B/key and %d B",
		first, second, info.Communities, info.VantagePoints, guardSnapshotInfoBytesPerKey, guardSnapshotInfoRepeatBytes)
	if first+second > guardSnapshotInfoBytesPerKey*keys {
		t.Errorf("two SnapshotInfo calls allocate %d B for %d distinct keys, want <= %d B per key",
			first+second, keys, guardSnapshotInfoBytesPerKey)
	}
	if second > guardSnapshotInfoRepeatBytes {
		t.Errorf("a repeated SnapshotInfo call allocates %d B, want <= %d (the counts are cached)",
			second, guardSnapshotInfoRepeatBytes)
	}

	// A verdict crosses the facade by value: the deciding cluster of a
	// clustered key, classic or large, costs no allocation.
	res, err := mc.ClassifyContext(context.Background(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []CommunityKey{res.Labeled()[0].Community.Key(), res.LabeledLarge()[0].Key} {
		if l := res.LookupKey(k); !l.HasCluster || l.Cluster.Size == 0 {
			t.Fatalf("LookupKey(%v) = %+v, want the deciding cluster", k, l)
		}
		if allocs := testing.AllocsPerRun(100, func() { guardLookup = res.LookupKey(k) }); allocs != 0 {
			t.Errorf("LookupKey(%v) allocates %.1f times, want 0", k, allocs)
		}
	}
}

// TestTupleIsEightBytes pins the tuple record — the largest row of a
// loaded corpus — at a path ID and a community-set reference, with no
// count and no vantage point: a tuple's one vantage point is its path's
// first ASN, read off the path's first hop, and the set reference's top
// bit says whether the tuple has a list in the VP arena instead.
func TestTupleIsEightBytes(t *testing.T) {
	if size := unsafe.Sizeof(core.Tuple{}); size != 8 {
		t.Fatalf("core.Tuple is %d bytes, want 8", size)
	}
}

// guardLookup keeps the measured LookupKey calls from being optimised
// away.
var guardLookup KeyLookup

// heapLive is the live heap once garbage is collected; the second
// collection empties the sync.Pool victim caches the first one filled.
func heapLive() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestFootprintExplainsHeldHeap loads the guard corpus, classic and
// mirrored, and holds the byte accounting to the heap: what the Corpus
// keeps alive is what Footprint says it reserves (the byte analogue of
// bgpbench's trace.explained_fraction), and Corpus plus Result stay
// under the per-tuple ceiling. The classic corpus is loaded once more at
// Parallelism 2, where two shard owners build it, and held to the same
// tolerance and ceiling. The table it logs is the per-component
// decomposition of bgpbench's heap_bytes_per_tuple.
func TestFootprintExplainsHeldHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two default-scale corpora")
	}
	if raceEnabled {
		t.Skip("the race detector pads allocations; heap sizes are noise")
	}
	topo, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ribs := map[bool][]string{}
	for _, leg := range []struct {
		matrix      bool
		parallelism int
	}{{false, 1}, {true, 1}, {false, 2}} {
		matrix := leg.matrix
		if ribs[matrix] == nil {
			ribs[matrix] = writeGuardRIBs(t, topo, matrix)
		}
		before := heapLive()
		c, _, err := LoadMRT(context.Background(), Sources{RIBs: ribs[matrix]}, LoadOptions{Parallelism: leg.parallelism})
		if err != nil {
			t.Fatal(err)
		}
		corpus := heapLive() - before
		res, err := c.ClassifyContext(context.Background(), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		held := heapLive() - before
		tuples := float64(c.Tuples())

		fp := c.Footprint()
		used, reserved := fp.Total()
		t.Logf("matrix=%v parallelism=%d: %d tuples, %d paths; corpus holds %d B (%.1f B/tuple), corpus + result %d B (%.1f B/tuple)",
			matrix, leg.parallelism, c.Tuples(), c.Paths(), corpus, float64(corpus)/tuples, held, float64(held)/tuples)
		for _, r := range fp {
			t.Logf("  %-14s %10d B used %10d B reserved %7.2f B/tuple", r.Name, r.Used, r.Reserved, float64(r.Reserved)/tuples)
		}
		t.Logf("  %-14s %10d B used %10d B reserved %7.2f B/tuple", "total", used, reserved, float64(reserved)/tuples)

		if off := float64(reserved)/float64(corpus) - 1; off > guardFootprintTolerance || off < -guardFootprintTolerance {
			t.Errorf("matrix=%v parallelism=%d: Footprint reserves %d B, the corpus holds %d B: %.1f%% apart, want within %.0f%%",
				matrix, leg.parallelism, reserved, corpus, off*100, guardFootprintTolerance*100)
		}
		if perTuple := float64(held) / tuples; !matrix && perTuple > guardHeldBytesPerTuple {
			t.Errorf("parallelism=%d: Corpus + Result hold %.1f B per tuple, want <= %d", leg.parallelism, perTuple, guardHeldBytesPerTuple)
		}
		runtime.KeepAlive(c)
		runtime.KeepAlive(res)
	}
}

// TestWindowStoreFootprintExplainsHeldHeap holds the live window's store,
// a core.NewTupleStore, to the same byte accounting: fed one
// default-scale simulated day the way the window feeds it, it keeps
// alive what its Footprint says it reserves, within
// guardFootprintTolerance. The table it logs is the window store's bytes
// per tuple by component, a figure bgpbench's live-window
// heap_bytes_per_tuple does not read.
func TestWindowStoreFootprintExplainsHeldHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a default-scale day")
	}
	if raceEnabled {
		t.Skip("the race detector pads allocations; heap sizes are noise")
	}
	topo, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	views := simulate.New(topo, simulate.DefaultConfig()).RunDay(0).Views
	before := heapLive()
	ts := core.NewTupleStore()
	for _, v := range views {
		ts.AddViewLarge(v.VP, v.Path, v.Comms, v.LargeComms)
	}
	held := heapLive() - before
	tuples := float64(ts.Len())

	fp := ts.Footprint()
	used, reserved := fp.Total()
	t.Logf("%d views: %d tuples, %d paths; the store holds %d B (%.1f B/tuple)",
		len(views), ts.Len(), ts.PathCount(), held, float64(held)/tuples)
	for _, r := range fp {
		t.Logf("  %-14s %10d B used %10d B reserved %7.2f B/tuple", r.Name, r.Used, r.Reserved, float64(r.Reserved)/tuples)
	}
	t.Logf("  %-14s %10d B used %10d B reserved %7.2f B/tuple", "total", used, reserved, float64(reserved)/tuples)
	if off := float64(reserved)/float64(held) - 1; off > guardFootprintTolerance || off < -guardFootprintTolerance {
		t.Errorf("Footprint reserves %d B, the store holds %d B: %.1f%% apart, want within %.0f%%",
			reserved, held, off*100, guardFootprintTolerance*100)
	}
	runtime.KeepAlive(views)
	runtime.KeepAlive(ts)
}

// heapPeak runs fn while a sampler goroutine reads the heap's object
// bytes (runtime/metrics: live objects and dead ones not yet swept) every
// 200 µs, and returns the highest reading, taken once more after fn
// returns. The sampler has exited when heapPeak returns.
func heapPeak(fn func()) int64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() int64 {
		metrics.Read(sample)
		return int64(sample[0].Value.Uint64())
	}
	done, peak := make(chan struct{}), make(chan int64)
	go func() {
		high := read()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				peak <- max(high, read())
				return
			case <-tick.C:
				high = max(high, read())
			}
		}
	}()
	fn()
	close(done)
	return <-peak
}

// TestLoadPeakOverHeld bounds a load's high-water mark by what it leaves
// behind: LoadMRT of the guard corpus under GOGC 5, which keeps the heap
// near its live objects, at Parallelism 1 and 2 (two shard owners). The
// peak above the heap the load starts from, sampled through the load, may
// be at most guardLoadPeakOverHeld times the heap the loaded Corpus
// holds. It is the check behind "the load's peak is no worse" for a
// change to the load's transient state: shard arenas and tables, the
// Stitch scratch, the stitched output allocated beside the shards.
func TestLoadPeakOverHeld(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a default-scale corpus")
	}
	if raceEnabled {
		t.Skip("the race detector pads allocations; heap sizes are noise")
	}
	topo, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ribs := writeGuardRIBs(t, topo, false)
	defer debug.SetGCPercent(debug.SetGCPercent(5))
	for _, parallelism := range []int{1, 2} {
		before := heapLive()
		var c *Corpus
		peak := heapPeak(func() {
			if c, _, err = LoadMRT(context.Background(), Sources{RIBs: ribs}, LoadOptions{Parallelism: parallelism}); err != nil {
				t.Fatal(err)
			}
		})
		held := heapLive() - before
		tuples := float64(c.Tuples())
		ratio := float64(peak-before) / float64(held)
		t.Logf("parallelism=%d: %d tuples; peak %.1f B/tuple above the start, held %.1f B/tuple: %.2fx, ceiling %.2fx",
			parallelism, c.Tuples(), float64(peak-before)/tuples, float64(held)/tuples, ratio, guardLoadPeakOverHeld)
		if ratio > guardLoadPeakOverHeld {
			t.Errorf("parallelism=%d: the load peaks %.2fx the %d B it holds, want <= %.2fx",
				parallelism, ratio, held, guardLoadPeakOverHeld)
		}
		runtime.KeepAlive(c)
	}
}

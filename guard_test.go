package bgpintent

// Allocation tripwires for the batch path, on one day of the
// default-scale corpus written out as MRT RIB files. They are ordinary
// tier-1 tests with constant ceilings: what they pin is behaviour (the
// hot paths stay allocation-light), not speed — speed is bgpbench's job
// (bash bench/run.sh). Each ceiling sits next to the value measured on
// 2026-10-03 (go1.24.0, 2 vCPU; 272 806 tuples).

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bgpintent/internal/core"
	"bgpintent/internal/simulate"
	"bgpintent/internal/topology"
)

const (
	// One sequential LoadMRT, heap allocations per unique tuple.
	// Measured 0.61; more means a per-view allocation is back on the
	// columnar store's write path.
	guardLoadAllocsPerTuple = 0.87
	// The same load with every origin-attached community mirrored as a
	// large community, relative to the classic number from the same run.
	// Measured 1.01x; more means keying large communities into the store
	// left the allocation-free path (per-view boxing, a map per tuple).
	guardMixedAllocFactor = 1.5
	// Bytes one Observe allocates, per tuple. Measured 2.2; a buffer of
	// (community, path) pairs costs 16 B per pair before any merge.
	guardObserveBytesPerTuple = 16
	// Bytes two SnapshotInfo calls allocate, per distinct community or
	// vantage point. Measured 37 (8-byte hash-set slots, doubled for the
	// tables outgrown on the way); more means counting copies or sorts
	// the payload again.
	guardSnapshotInfoBytesPerKey = 64
	// Bytes the second SnapshotInfo call may allocate. Measured 0: the
	// counts are cached per Corpus.
	guardSnapshotInfoRepeatBytes = 1024
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
}

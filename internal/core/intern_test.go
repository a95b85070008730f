package core

import (
	"fmt"
	"slices"
	"testing"

	"bgpintent/internal/bgp"
)

// setRecordOf renders group ordinals as a set record, the last flagged.
func setRecordOf(ords ...uint32) []byte {
	var rec []byte
	for i, ord := range ords {
		rec = appendGroupRef(rec, ord, i == len(ords)-1)
	}
	return rec
}

// TestGroupRefCodec: a group ref is the uvarint ord<<1 | last, so an
// ordinal takes one byte below 64, two below 8192, three below 1<<20 and
// four at 1<<20; each decodes to its ordinal and flag and ends where the
// next ref starts, and a record's refs read back in order with only the
// last flagged.
func TestGroupRefCodec(t *testing.T) {
	for _, tc := range []struct {
		ord   uint32
		width int
	}{{0, 1}, {63, 1}, {64, 2}, {8191, 2}, {8192, 3}, {1<<20 - 1, 3}, {1 << 20, 4}, {1<<31 - 1, 5}} {
		for _, last := range []bool{false, true} {
			rec := appendGroupRef([]byte{0xAA}, tc.ord, last)
			if len(rec) != 1+tc.width {
				t.Errorf("ordinal %d (last %v) takes %d bytes, want %d", tc.ord, last, len(rec)-1, tc.width)
			}
			if ord, gotLast, next := groupRef(append(rec, 0x55), 1); ord != tc.ord || gotLast != last || next != len(rec) {
				t.Errorf("ordinal %d (last %v) reads back as %d (last %v), next ref at %d; want %d", tc.ord, last, ord, gotLast, next, len(rec))
			}
		}
	}
	ords := []uint32{0, 63, 64, 8191, 8192, 1<<20 - 1, 1 << 20}
	rec := setRecordOf(ords...)
	var got []uint32
	for i, last := 0, false; !last; {
		var ord uint32
		ord, last, i = groupRef(rec, i)
		got = append(got, ord)
		if last != (i == len(rec)) {
			t.Fatalf("ref %d of %v reads last=%v, ending at byte %d of %d", len(got)-1, ords, last, i, len(rec))
		}
	}
	if !slices.Equal(got, ords) || len(rec) != 1+1+2+2+3+3+4 {
		t.Fatalf("a record of %v (%d bytes) reads back as %v", ords, len(rec), got)
	}
}

// TestCommInternEmptyList pins the empty-set convention: ref 0, the one
// zero byte seeded at the head of every set arena, never entered in a
// table or appended, resolving to a set record of no groups, hence no
// communities of either kind — in a NewTupleStore, whose set index
// deduplicates inline, and in a shard, which appends its other records
// for Stitch.
func TestCommInternEmptyList(t *testing.T) {
	ts := NewTupleStore()
	sc := &addScratch{set: appendSet(nil, nil, nil)}
	sc.groupSet(ts)
	if ref := ts.addSet(sc.rec); len(sc.rec) != 0 || ref != 0 {
		t.Fatalf("addSet(%v) = %#x, want the empty record at 0", sc.rec, ref)
	}
	if tag := ts.hash.setTag(nil); tag != 0 {
		t.Fatalf("the empty record's tag is %#x, want 0", tag)
	}
	if ts.groups.tab.n != 0 || ts.sets.tab.n != 0 || len(ts.groups.arena) != 0 || len(ts.groups.at) != 0 || len(ts.sets.arena) != 1 {
		t.Fatalf("the empty set entered a table or an arena: %d groups, %d sets, %d group words, %d ordinals, %d set bytes",
			ts.groups.tab.n, ts.sets.tab.n, len(ts.groups.arena), len(ts.groups.at), len(ts.sets.arena))
	}
	if v := ts.setRecord(&Tuple{}); len(v) != 0 {
		t.Fatalf("set record at ref 0 = %v, want the empty set record", v)
	}
	if c, l := tupleCommunities(ts, &Tuple{}); len(c) != 0 || len(l) != 0 {
		t.Fatalf("a tuple on ref 0 carries %v and %v", c, l)
	}
	shard := NewShardedTupleStore(1).shards[0].ts
	if ref := shard.addSet(nil); ref != 0 || len(shard.sets.arena) != 1 {
		t.Fatalf("a shard's empty set: ref %#x, %d set bytes", ref, len(shard.sets.arena))
	}
}

// TestCommInternDupZeroAlloc guards the intern hot paths: re-interning
// groups a store holds — in a NewTupleStore and in a shard, each through
// its own group index — or a set record a NewTupleStore's set index
// holds, the overwhelmingly common case at steady state, must not
// allocate.
func TestCommInternDupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items; alloc counts are noise")
	}
	ts := NewTupleStore()
	sc := &addScratch{set: appendSet(nil, bgp.Communities{bgp.NewCommunity(1299, 100), bgp.NewCommunity(1299, 2569)},
		bgp.LargeCommunities{{GlobalAdmin: 1299, LocalData1: 1, LocalData2: 100}})}
	sc.groupSet(ts)
	canon := slices.Clone(sc.rec)
	want := ts.addSet(canon)
	var ref uint32
	if avg := testing.AllocsPerRun(200, func() {
		ref = ts.addSet(canon)
	}); avg != 0 {
		t.Errorf("duplicate set record allocates %.1f per run, want 0", avg)
	}
	if ref != want {
		t.Fatalf("duplicate set record returned %#x, want %#x", ref, want)
	}
	for name, store := range map[string]*TupleStore{"NewTupleStore": ts, "shard": NewShardedTupleStore(1).shards[0].ts} {
		sc.groupSet(store)
		canon := slices.Clone(sc.rec)
		if avg := testing.AllocsPerRun(200, func() {
			sc.groupSet(store)
		}); avg != 0 {
			t.Errorf("%s: re-interning known groups allocates %.1f per run, want 0", name, avg)
		}
		if !slices.Equal(sc.rec, canon) {
			t.Fatalf("%s: known groups re-interned as %v, were %v", name, sc.rec, canon)
		}
	}
}

// TestSetInternSeeded: a NewTupleStore's set index hashes from its
// store's seed, so which sets share a probe chain cannot be computed from
// outside the process. Two stores with different seeds place the same
// sixteen sets at (nearly) all different slots; an unseeded hash would
// place every one of them alike. Growth re-places slots on the tags they
// store, never rehashing a set: across the table's doublings, with and
// without colliding hashes, every set keeps its ref and the table counts
// each distinct set once.
func TestSetInternSeeded(t *testing.T) {
	set := func(i int) []byte {
		return setRecordOf(uint32(i+1), 1<<20|uint32(i))
	}
	for _, collide := range []bool{false, true} {
		ts := NewTupleStore()
		ts.hash.collide = collide
		// 64 slots double at 49 entries and every 3/4 load after, up to
		// 8192 slots at 3073; every set is added again, as a duplicate,
		// half way through.
		const n = 3200
		refs := make([]uint32, n)
		for i := range refs {
			refs[i] = ts.addSet(set(i))
			if ref := ts.addSet(set(i / 2)); ref != refs[i/2] {
				t.Fatalf("collide=%v: set %d re-added as %#x after %d inserts, was %#x", collide, i/2, ref, i+1, refs[i/2])
			}
		}
		fill := len(ts.sets.arena)
		for i, ref := range refs {
			if got := ts.addSet(set(i)); got != ref || !slices.Equal(ts.setRecord(&Tuple{set: ref}), set(i)) {
				t.Fatalf("collide=%v: set %d resolves to %#x after growth, was %#x", collide, i, got, ref)
			}
		}
		if tab := ts.sets.tab; tab.n != n || len(tab.slots) != 8192 {
			t.Fatalf("collide=%v: table holds %d entries in %d slots, want %d in 8192", collide, tab.n, len(tab.slots), n)
		}
		if got := len(ts.sets.arena); got != fill {
			t.Fatalf("collide=%v: re-adding known sets grew the arena %d -> %d bytes", collide, fill, got)
		}
		if collide {
			checkOneChain(t, "collide", ts.sets.tab.slots, ts.sets.tab.n)
		}
	}

	slots := func(seed uint64) []int {
		ts := NewTupleStore()
		ts.hash.seed = seed
		var at []int
		for i := 0; i < 16; i++ {
			ref := ts.addSet(setRecordOf(1299<<16 | uint32(i)))
			for j, s := range ts.sets.tab.slots {
				if s != 0 && uint32(s)-1 == ref {
					at = append(at, j)
				}
			}
		}
		return at
	}
	a, b := slots(1), slots(2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if len(a) != 16 || len(b) != 16 || same > 2 {
		t.Fatalf("seeds 1 and 2 place %d of 16 sets in the same slot (%v vs %v)", same, a, b)
	}
}

// TestShardedAddViewDupZeroAlloc is the sharded-store counterpart of
// TestAddViewDuplicateHitZeroAlloc: with routing and the shard lock in
// the path, a duplicate observation must still be
// allocation-free end to end (path-key render, canonicalization, view
// hash, table probe, content compare, VP binary search).
func TestShardedAddViewDupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items; alloc counts are noise")
	}
	sts := NewShardedTupleStore(8)
	path := asPath([]uint32{65269, 7018, 1299, 64496})
	comms := bgp.Communities{bgp.NewCommunity(1299, 2569), bgp.NewCommunity(1299, 100)}
	sts.AddViewASPathLarge(65269, path, comms, nil)
	// Pre-grow the VP list past the guarded runs so growVPs relocation
	// (amortized-free, not per-call-free) never fires under the meter.
	for vp := uint32(1); vp <= 64; vp++ {
		sts.AddViewASPathLarge(vp, path, comms, nil)
	}

	if avg := testing.AllocsPerRun(200, func() {
		sts.AddViewASPathLarge(65269, path, comms, nil)
	}); avg != 0 {
		t.Errorf("sharded AddViewASPathLarge duplicate hit allocates %.1f per run, want 0", avg)
	}

	messy := bgp.Communities{bgp.NewCommunity(1299, 100), bgp.NewCommunity(1299, 2569), bgp.NewCommunity(1299, 100)}
	if avg := testing.AllocsPerRun(200, func() {
		sts.AddViewASPathLarge(65269, path, messy, nil)
	}); avg != 0 {
		t.Errorf("sharded AddViewASPathLarge with messy comms allocates %.1f per run, want 0", avg)
	}
}

// TestFeederDupZeroAlloc is the feeder counterpart: once its outboxes
// have cycled through the owners and back, feeding duplicate views —
// prepared, appended to an outbox, handed over, applied — allocates
// nothing. The views spread over every shard, so every owner is fed.
func TestFeederDupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items; alloc counts are noise")
	}
	sts := NewShardedTupleStore(8)
	load := sts.Load(2, nil)
	defer load.Close()
	f := load.Feeder()
	defer f.Release()
	comms := bgp.Communities{bgp.NewCommunity(1299, 2569), bgp.NewCommunity(1299, 100)}
	paths := make([]bgp.ASPath, 64)
	for i := range paths {
		paths[i] = asPath([]uint32{65269, 7018, uint32(64496 + i)})
	}
	feed := func() {
		for n := 0; n < 4*outboxViews; n++ {
			f.AddViewASPathLarge(uint32(1+n%16), paths[n%len(paths)], comms, nil)
		}
	}
	for i := 0; i < 16; i++ { // insert, grow the VP lists, cycle the outboxes
		feed()
	}
	if avg := testing.AllocsPerRun(50, feed); avg != 0 {
		t.Errorf("feeding %d duplicate views allocates %.1f per run, want 0", 4*outboxViews, avg)
	}
}

// TestStitchedStoreKnowsItsLarges: whether a store's tuples carry large
// communities — what switches the large observation pass on — survives
// Stitch dropping the load's tables, in a store whose large tuple arrived
// first and in one whose large tuple arrived last, and larges that attach
// to no tuple do not set it.
func TestStitchedStoreKnowsItsLarges(t *testing.T) {
	path := asPath([]uint32{64500, 64501})
	comms := bgp.Communities{bgp.NewCommunity(64500, 1)}
	larges := bgp.LargeCommunities{{GlobalAdmin: 64500, LocalData1: 1, LocalData2: 1}}

	mixed := func(later bool) *ShardedTupleStore {
		sts := NewShardedTupleStore(4)
		sts.AddViewASPathLarge(1, path, comms, nil)
		sts.AddViewASPathLarge(2, path, comms, larges)
		if later {
			sts.AddViewASPathLarge(3, path, comms, nil)
		}
		return sts
	}
	ts := stitchChecked(t, "mixed", mixed(false), 1)
	if !ts.largeTuples {
		t.Fatal("stitched mixed store reports no large tuples")
	}
	if ts = stitchChecked(t, "mixed, then classic", mixed(true), 1); !ts.largeTuples {
		t.Fatal("mixed store reports no large tuples after a later classic view")
	}
	if got := Classify(ts, DefaultOptions()).Large().Observed(); got != 1 {
		t.Fatalf("classifying the stitched mixed store observed %d large communities, want 1", got)
	}

	classic := NewShardedTupleStore(4)
	classic.AddViewASPathLarge(1, path, comms, nil)
	// Larges that attach to no tuple count toward the statistics only.
	classic.AddViewASPathLarge(1, bgp.ASPath{}, nil, larges)
	ts = stitchChecked(t, "classic", classic, 1)
	if ts.largeTuples {
		t.Fatal("stitched classic-only store reports large tuples")
	}
	if got := ts.LargeCommunityCount(); got != 1 {
		t.Fatalf("stitched classic-only store counts %d larges, want the 1 noted", got)
	}

	lateLarge := NewShardedTupleStore(4)
	lateLarge.AddViewASPathLarge(1, path, comms, nil)
	lateLarge.AddViewASPathLarge(1, bgp.ASPath{}, nil, larges)
	lateLarge.AddViewASPathLarge(2, path, comms, larges)
	if ts = stitchChecked(t, "large last", lateLarge, 1); !ts.largeTuples {
		t.Fatal("store reports no large tuples when its first one arrived last")
	}
}

// TestStitchWorkerCounts checks Stitch itself is deterministic in its
// own parallelism knob (the shards are fixed work items; only their
// processing interleaves): one writer fills the shards in the same order
// every time, so even the layout must agree.
func TestStitchWorkerCounts(t *testing.T) {
	build := func() *ShardedTupleStore {
		sts := NewShardedTupleStore(16)
		for i := 0; i < 400; i++ {
			path := []uint32{uint32(100 + i%31), uint32(1 + i%13), uint32(500 + i%97)}
			comms := bgp.Communities{
				bgp.NewCommunity(uint16(100+i%31), uint16(i%50)),
				bgp.NewCommunity(uint16(1+i%13), uint16(i%20)),
			}
			sts.AddViewASPathLarge(uint32(1+i%9), bgp.NewASPath(path...), comms, nil)
		}
		return sts
	}
	ref := dumpStore(stitchChecked(t, "workers=1", build(), 1))
	for _, workers := range []int{2, 4, 8} {
		if got := dumpStore(stitchChecked(t, fmt.Sprintf("workers=%d", workers), build(), workers)); !slices.Equal(got, ref) {
			t.Fatalf("Stitch(%d) differs from Stitch(1)", workers)
		}
	}
}

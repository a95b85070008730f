package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"bgpintent/internal/bgp"
)

// setRecordOf renders group refs as a set record: the refs, the last
// flagged lastGroup.
func setRecordOf(refs ...uint32) []bgp.Community {
	rec := make([]bgp.Community, len(refs))
	for i, ref := range refs {
		rec[i] = bgp.Community(ref)
	}
	if len(rec) > 0 {
		rec[len(rec)-1] |= lastGroup
	}
	return rec
}

// TestCommInternConcurrent hammers one intern table from many
// goroutines with overlapping set records and verifies the exact-
// identity contract: every interning of the same record, from any
// goroutine at any time, yields the same ref, and the ref resolves —
// framed by its lastGroup flag — to the record's contents. Run under
// -race this also exercises the lock-free probe against concurrent
// inserts and table growth.
func TestCommInternConcurrent(t *testing.T) {
	const (
		goroutines = 8
		lists      = 3000 // overlapping across goroutines; forces several grows
		rounds     = 3
	)
	// Ten group refs a record: together the records outgrow the arena's
	// first three chunks, so lock-free readers keep resolving refs while
	// new chunks are published under them.
	mk := func(i int) []bgp.Community {
		refs := make([]uint32, 10)
		for k := range refs {
			refs[k] = uint32(i%500+k+1)<<16 | uint32(i>>(k%2))
		}
		return setRecordOf(refs...)
	}
	ci := &newStoreInterns().sets
	refs := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			got := make([]uint32, lists)
			for r := 0; r < rounds; r++ {
				for i := 0; i < lists; i++ {
					// Each goroutine starts at its own position so inserts
					// interleave instead of racing on the same first list.
					j := (i + g*lists/goroutines) % lists
					ref := ci.intern(mk(j))
					if r == 0 && got[j] == 0 {
						got[j] = ref
					} else if got[j] != ref {
						t.Errorf("g%d list %d: ref changed %#x -> %#x", g, j, got[j], ref)
						return
					}
				}
			}
			refs[g] = got
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for g := 1; g < goroutines; g++ {
		for i := range refs[g] {
			if refs[g][i] != refs[0][i] {
				t.Fatalf("list %d: goroutines disagree on ref: %#x vs %#x", i, refs[0][i], refs[g][i])
			}
		}
	}
	for i := 0; i < lists; i++ {
		if got, want := ci.view(refs[0][i]), mk(i); !slices.Equal(got, want) {
			t.Fatalf("list %d: view %v, want %v", i, got, want)
		}
	}
	if got := len(*ci.arena.chunks.Load()); got < 4 {
		t.Fatalf("the arena holds %d chunks; the test must outgrow three", got)
	}
}

// TestCommInternEmptyList pins the empty-set convention: ref 0, seeded
// at the head of the arena and never entered in the table, resolving to
// a set record of no groups, hence no communities of either kind.
func TestCommInternEmptyList(t *testing.T) {
	sh := newStoreInterns()
	ci := &sh.sets
	sc := &addScratch{set: appendSet(nil, nil, nil)}
	sc.groupSet(&sh.groups)
	if ref := ci.intern(sc.rec); len(sc.rec) != 0 || ref != 0 {
		t.Fatalf("intern(%v) = %#x, want the empty record at 0", sc.rec, ref)
	}
	if live, _ := ci.tableSize(); live != 0 {
		t.Fatalf("the empty set entered the table: %d entries", live)
	}
	if v := ci.view(0); len(v) != 0 {
		t.Fatalf("view of ref 0 = %v, want the empty set record", v)
	}
	ts := &TupleStore{shared: sh}
	if c, l := tupleCommunities(ts, &Tuple{}); len(c) != 0 || len(l) != 0 {
		t.Fatalf("a tuple on ref 0 carries %v and %v", c, l)
	}
}

// TestCommInternDupZeroAlloc guards the intern hot path: re-interning
// a list already in the table — the overwhelmingly common case at
// steady state — must not allocate.
func TestCommInternDupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items; alloc counts are noise")
	}
	sh := newStoreInterns()
	ci := &sh.sets
	sc := &addScratch{set: appendSet(nil, bgp.Communities{bgp.NewCommunity(1299, 100), bgp.NewCommunity(1299, 2569)},
		bgp.LargeCommunities{{GlobalAdmin: 1299, LocalData1: 1, LocalData2: 100}})}
	sc.groupSet(&sh.groups)
	canon := sc.rec
	want := ci.intern(canon)
	var ref uint32
	if avg := testing.AllocsPerRun(200, func() {
		ref = ci.intern(canon)
	}); avg != 0 {
		t.Errorf("duplicate intern allocates %.1f per run, want 0", avg)
	}
	if ref != want {
		t.Fatalf("duplicate intern returned %#x, want %#x", ref, want)
	}
}

// TestSetInternSeeded: the set intern hashes from its store's seed, so
// which sets share a probe chain cannot be computed from outside the
// process. Two stores with different seeds place the same sixteen sets
// at (nearly) all different slots; an unseeded hash would place every
// one of them alike. Growth re-places slots on the tags they store, never
// rehashing a set: across three table doublings, with and without
// colliding hashes, every set keeps its ref and the table counts each
// distinct set once.
func TestSetInternSeeded(t *testing.T) {
	for _, collide := range []bool{false, true} {
		sh := newStoreInterns()
		sh.collide = collide
		set := func(i int) []bgp.Community {
			return setRecordOf(uint32(i+1), 1<<20|uint32(i))
		}
		// 1024 slots double at 769, 1537 and 3073 entries; every set is
		// interned again, as a duplicate, half way through.
		const n = 3200
		refs := make([]uint32, n)
		for i := range refs {
			refs[i] = sh.sets.intern(set(i))
			if ref := sh.sets.intern(set(i / 2)); ref != refs[i/2] {
				t.Fatalf("collide=%v: set %d re-interned as %#x after %d inserts, was %#x", collide, i/2, ref, i+1, refs[i/2])
			}
		}
		fill := arenaRow("", &sh.sets.arena).Used
		for i, ref := range refs {
			if got := sh.sets.intern(set(i)); got != ref || !slices.Equal(sh.sets.view(ref), set(i)) {
				t.Fatalf("collide=%v: set %d resolves to %#x (%v) after growth, was %#x", collide, i, got, sh.sets.view(got), ref)
			}
		}
		if live, slots := sh.sets.tableSize(); live != n || slots != 8192 {
			t.Fatalf("collide=%v: table holds %d entries in %d slots, want %d in 8192", collide, live, slots, n)
		}
		if got := arenaRow("", &sh.sets.arena).Used; got != fill {
			t.Fatalf("collide=%v: re-interning known sets grew the arena %d -> %d B", collide, fill, got)
		}
		if collide {
			checkOneChain(t, "collide", &sh.sets)
		}
	}

	slots := func(seed uint64) []int {
		sh := newStoreInterns()
		sh.seed = seed
		var at []int
		for i := 0; i < 16; i++ {
			ref := sh.sets.intern(setRecordOf(1299<<16 | uint32(i)))
			tab := sh.sets.table.Load()
			for j := range tab.slots {
				if s := tab.slots[j].Load(); s != 0 && uint32(s) == ref {
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
// TestAddViewDuplicateHitZeroAlloc: with the shared intern table and
// ASN arena in the path, a duplicate observation must still be
// allocation-free end to end (path-key render, canonicalization, view
// hash, table probe, content compare, VP binary search).
func TestShardedAddViewDupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items; alloc counts are noise")
	}
	sts := NewShardedTupleStore(8)
	path := []uint32{65269, 7018, 1299, 64496}
	comms := bgp.Communities{bgp.NewCommunity(1299, 2569), bgp.NewCommunity(1299, 100)}
	sts.AddView(65269, path, comms)
	// Pre-grow the VP list past the guarded runs so growVPs relocation
	// (amortized-free, not per-call-free) never fires under the meter.
	for vp := uint32(1); vp <= 64; vp++ {
		sts.AddView(vp, path, comms)
	}

	if avg := testing.AllocsPerRun(200, func() {
		sts.AddView(65269, path, comms)
	}); avg != 0 {
		t.Errorf("sharded AddView duplicate hit allocates %.1f per run, want 0", avg)
	}

	messy := bgp.Communities{bgp.NewCommunity(1299, 100), bgp.NewCommunity(1299, 2569), bgp.NewCommunity(1299, 100)}
	if avg := testing.AllocsPerRun(200, func() {
		sts.AddView(65269, path, messy)
	}); avg != 0 {
		t.Errorf("sharded AddView with messy comms allocates %.1f per run, want 0", avg)
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

// TestSharedArenaOffsets exercises placement across chunk boundaries:
// the first chunk holds arenaMinChunk elements and each next one twice
// its predecessor, up to the full chunk size; a list longer than that
// gets a chunk of its own length; a list that does not fit the newest
// chunk's tail starts the next chunk, copying nothing; and after all of
// it every returned offset still resolves to the exact values appended.
func TestSharedArenaOffsets(t *testing.T) {
	var a sharedArena[uint32]
	type appended struct {
		off  uint32
		vals []uint32
	}
	var all []appended
	next := uint32(0)
	add := func(n int) {
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = next
			next++
		}
		all = append(all, appended{off: a.append(vals), vals: vals})
	}
	// A chunk's reservation is its capacity: once succeeded, its length
	// is clipped to its fill.
	chunkLens := func() []int {
		var lens []int
		for _, c := range *a.chunks.Load() {
			lens = append(lens, cap(c))
		}
		return lens
	}
	// Small appends fill three chunks, each twice the one before.
	for next < 3*arenaMinChunk {
		add(3)
	}
	if got := chunkLens(); !slices.Equal(got, []int{arenaMinChunk, arenaMinChunk << 1, arenaMinChunk << 2}) {
		t.Fatalf("after %d elements: chunk lengths %v, want %d doubling twice", next, got, arenaMinChunk)
	}
	// A list longer than twice the newest chunk gets a chunk of its length.
	add(internChunkSize / 4)
	if got := chunkLens(); len(got) != 4 || got[3] != internChunkSize/4 {
		t.Fatalf("after a %d-element list: chunk lengths %v", internChunkSize/4, got)
	}
	// Large appends turn chunks over; sizes double up to the full chunk.
	for round := 0; round < 5; round++ {
		add(internChunkSize/2 + 1)
		add(2)
	}
	got := chunkLens()
	for i := 1; i < len(got); i++ {
		if got[i] > internChunkSize || got[i] < min(2*got[i-1], internChunkSize) {
			t.Fatalf("chunk lengths %v: chunk %d neither doubles its predecessor nor is full", got, i)
		}
	}
	if got[len(got)-1] != internChunkSize {
		t.Fatalf("chunk lengths %v never reach the full %d", got, internChunkSize)
	}
	check := func() {
		t.Helper()
		for i, ap := range all {
			got := a.from(ap.off)[:len(ap.vals)]
			if len(got) != len(ap.vals) {
				t.Fatalf("append %d: view length %d, want %d", i, len(got), len(ap.vals))
			}
			for j := range got {
				if got[j] != ap.vals[j] {
					t.Fatalf("append %d: view[%d] = %d, want %d", i, j, got[j], ap.vals[j])
				}
			}
		}
		// The filled prefixes are every value appended, once, in order —
		// no chunk's unused tail among them.
		want := uint32(0)
		for _, c := range a.filled() {
			for _, v := range c {
				if v != want {
					t.Fatalf("filled prefixes: value %d where %d belongs", v, want)
				}
				want++
			}
		}
		if want != next {
			t.Fatalf("filled prefixes hold %d values, %d were appended", want, next)
		}
	}
	check()
	// Trimming leaves no slack behind the newest chunk and moves nothing
	// else; the next append starts a chunk twice the trimmed one.
	fill := a.fill
	a.trim()
	got = chunkLens()
	if last := got[len(got)-1]; last != fill {
		t.Fatalf("trimmed chunk reserves %d elements for a fill of %d", last, fill)
	}
	check()
	add(2)
	if after := chunkLens(); len(after) != len(got)+1 || after[len(got)] != min(2*fill, internChunkSize) {
		t.Fatalf("chunk lengths %v after appending to a trimmed chunk of %d", after, fill)
	}
	check()
}

// TestStitchStoreStillAcceptsViews pins the lazy reindex: a stitched
// store can keep ingesting, deduplicating against the stitched contents
// through tables it builds on the first AddView — the intern tables
// Stitch released among them.
func TestStitchStoreStillAcceptsViews(t *testing.T) {
	type view struct {
		vp    uint32
		path  []uint32
		comms bgp.Communities
	}
	var views []view
	for i := 0; i < 50; i++ {
		views = append(views, view{
			vp:    uint32(1 + i%3),
			path:  []uint32{uint32(100 + i%7), 7018, uint32(200 + i)},
			comms: bgp.Communities{bgp.NewCommunity(uint16(100+i%7), uint16(i))},
		})
	}
	sts := NewShardedTupleStore(4)
	for _, v := range views {
		sts.AddView(v.vp, v.path, v.comms)
	}
	ts := stitchChecked(t, "stitched", sts, 2)
	nTuples, nPaths := ts.Len(), ts.PathCount()
	for _, li := range []*listIntern{&ts.shared.sets, &ts.shared.groups} {
		if live, slots := li.tableSize(); live != 0 || slots != 0 {
			t.Fatalf("stitched store still holds an intern table: %d entries in %d slots", live, slots)
		}
	}
	commFill := func() int64 { return arenaRow("", &ts.shared.sets.arena).Used }
	groupFill := func() int64 { return arenaRow("", &ts.shared.groups.arena).Used }
	groups0 := groupFill()
	asnFill := func() int64 { return sliceRow("", ts.asnArena).Used }
	comms0, asns0 := commFill(), asnFill()

	// Exact duplicate of an existing observation: nothing may grow.
	dupPath := []uint32{uint32(100), 7018, uint32(200)}
	dupComms := bgp.Communities{bgp.NewCommunity(100, 0)}
	before := dumpStore(ts)
	ts.AddView(1, dupPath, dupComms)
	equalDumps(t, dumpStore(ts), before, "after an exact duplicate")
	if live, _ := ts.shared.sets.tableSize(); live != len(views) {
		t.Fatalf("rebuilt intern table holds %d lists, the tuples refer to %d", live, len(views))
	}
	if live, _ := ts.shared.groups.tableSize(); live != len(views) {
		t.Fatalf("rebuilt group table holds %d groups, the sets refer to %d", live, len(views))
	}
	// Every original view again, from new vantage points: only VP sets
	// change, so the store equals one built from the doubled input,
	// layout included.
	doubled := NewShardedTupleStore(4)
	for _, v := range views {
		ts.AddView(v.vp+100, v.path, v.comms)
		doubled.AddView(v.vp, v.path, v.comms)
		doubled.AddView(v.vp+100, v.path, v.comms)
	}
	equalDumps(t, dumpStore(ts), dumpStore(stitchChecked(t, "doubled", doubled, 1)), "re-fed vs doubled input")
	if commFill() != comms0 || groupFill() != groups0 || asnFill() != asns0 {
		t.Fatalf("re-feeding known views grew the arenas: sets %d -> %d B, groups %d -> %d B, ASNs %d -> %d B",
			comms0, commFill(), groups0, groupFill(), asns0, asnFill())
	}
	// A new path under a known community list: the list resolves to the
	// ref its tuples already carry, so only the ASN arena grows.
	ts.AddView(1, []uint32{9999, 8888}, dupComms)
	if ts.Len() != nTuples+1 || ts.PathCount() != nPaths+1 {
		t.Fatalf("new tuple not appended: %d/%d, want %d/%d",
			ts.Len(), ts.PathCount(), nTuples+1, nPaths+1)
	}
	if c, _ := tupleCommunities(ts, &ts.tuples[nTuples]); !slices.Equal(c, dupComms) {
		t.Fatalf("new tuple carries %v, want %v", c, dupComms)
	}
	if commFill() != comms0 || asnFill() != asns0+8 {
		t.Fatalf("a new path under a known list: community arena %d -> %d B (want unchanged), ASN arena %d -> %d B (want +8)",
			comms0, commFill(), asns0, asnFill())
	}
	// Genuinely new tuple, path and list: its set record is one flagged
	// group ref, one word.
	ts.AddView(1, []uint32{9999, 7777}, bgp.Communities{bgp.NewCommunity(9999, 1)})
	if ts.Len() != nTuples+2 || ts.PathCount() != nPaths+2 || commFill() != comms0+4 {
		t.Fatalf("new tuple not appended: %d/%d with %d B of communities, want %d/%d with %d B",
			ts.Len(), ts.PathCount(), commFill(), nTuples+2, nPaths+2, comms0+4)
	}
	if got := ts.LargeCommunityCount(); got != 0 {
		t.Fatalf("unexpected large communities: %d", got)
	}
}

// TestStitchedStoreKnowsItsLarges: whether a store's tuples carry large
// communities — what switches the large observation pass on — survives
// Stitch releasing the intern table and a post-stitch AddView rebuilding
// it, and larges that attach to no tuple do not set it.
func TestStitchedStoreKnowsItsLarges(t *testing.T) {
	path, comms := []uint32{64500, 64501}, bgp.Communities{bgp.NewCommunity(64500, 1)}
	larges := bgp.LargeCommunities{{GlobalAdmin: 64500, LocalData1: 1, LocalData2: 1}}

	mixed := NewShardedTupleStore(4)
	mixed.AddView(1, path, comms)
	mixed.AddViewLarge(2, path, comms, larges)
	ts := stitchChecked(t, "mixed", mixed, 1)
	if !ts.largeTuples {
		t.Fatal("stitched mixed store reports no large tuples")
	}
	ts.AddView(3, path, comms)
	if !ts.largeTuples {
		t.Fatal("mixed store reports no large tuples after a post-stitch AddView")
	}
	if got := Classify(ts, DefaultOptions()).Large().Observed(); got != 1 {
		t.Fatalf("classifying the stitched mixed store observed %d large communities, want 1", got)
	}

	classic := NewShardedTupleStore(4)
	classic.AddView(1, path, comms)
	// Larges that attach to no tuple count toward the statistics only.
	classic.AddViewLarge(1, nil, nil, larges)
	ts = stitchChecked(t, "classic", classic, 1)
	if ts.largeTuples {
		t.Fatal("stitched classic-only store reports large tuples")
	}
	ts.AddViewLarge(2, path, comms, larges)
	if !ts.largeTuples {
		t.Fatal("store reports no large tuples after its first one arrived post-stitch")
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
			sts.AddView(uint32(1+i%9), path, comms)
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

package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"bgpintent/internal/bgp"
)

// synthView is one generated observation for store tests.
type synthView struct {
	vp    uint32
	path  []uint32
	comms bgp.Communities
	large bgp.LargeCommunities
}

// genViews builds a deterministic stream of views with heavy path and
// tuple reuse, prepending, duplicate communities, and some large
// communities — the shapes AddView has to canonicalize.
func genViews(seed int64, n int) []synthView {
	rng := rand.New(rand.NewSource(seed))
	views := make([]synthView, n)
	for i := range views {
		pathLen := 2 + rng.Intn(4)
		path := make([]uint32, 0, pathLen+2)
		for j := 0; j < pathLen; j++ {
			asn := uint32(100 + rng.Intn(400))
			path = append(path, asn)
			if rng.Intn(5) == 0 { // prepend
				path = append(path, asn)
			}
		}
		nc := rng.Intn(4)
		comms := make(bgp.Communities, 0, nc+1)
		for j := 0; j < nc; j++ {
			c := bgp.NewCommunity(uint16(100+rng.Intn(50)), uint16(rng.Intn(300)))
			comms = append(comms, c)
			if rng.Intn(6) == 0 { // duplicate
				comms = append(comms, c)
			}
		}
		v := synthView{vp: uint32(1 + rng.Intn(30)), path: path, comms: comms}
		if rng.Intn(10) == 0 {
			v.large = bgp.LargeCommunities{{GlobalAdmin: uint32(rng.Intn(5)), LocalData1: 1, LocalData2: uint32(rng.Intn(3))}}
		}
		views[i] = v
	}
	return views
}

// tupleCommunities reads a tuple's communities back through its groups.
func tupleCommunities(ts *TupleStore, t *Tuple) (comms bgp.Communities, larges bgp.LargeCommunities) {
	ts.eachGroup(t, func(cs bgp.Communities, ls []bgp.Community) {
		comms = append(comms, cs...)
		for i := 0; i+2 < len(ls); i += 3 {
			larges = append(larges, bgp.LargeCommunity{GlobalAdmin: uint32(ls[i]), LocalData1: uint32(ls[i+1]), LocalData2: uint32(ls[i+2])})
		}
	})
	return comms, larges
}

// dumpStore renders a store's full logical content in canonical order:
// one line per tuple with the path key, the communities of both kinds and
// the VPs, plus the distinct larges, read off the tuples one by one and
// off the noted set.
func dumpStore(ts *TupleStore) []string {
	lines := make([]string, 0, len(ts.tuples))
	distinct := storeLarges(ts)
	for i := range ts.tuples {
		t := &ts.tuples[i]
		comms, larges := tupleCommunities(ts, t)
		lines = append(lines, fmt.Sprintf("t %v %v %v %v %v", ts.pathKey(t.PathID), ts.Path(t.PathID).ASNs, comms, larges, ts.TupleVPs(i)))
	}
	larges := make([]string, 0, len(distinct))
	for lc := range distinct {
		larges = append(larges, "l "+lc.String())
	}
	sortStrings(larges)
	return append(lines, larges...)
}

// storeLarges returns the distinct larges a store holds, read tuple by
// tuple and off the noted set: not the stored-group walk that
// LargeCommunityCount takes.
func storeLarges(ts *TupleStore) map[bgp.LargeCommunity]bool {
	out := make(map[bgp.LargeCommunity]bool)
	for i := range ts.tuples {
		_, larges := tupleCommunities(ts, &ts.tuples[i])
		for _, lc := range larges {
			out[lc] = true
		}
	}
	ts.noted.each(func(lc bgp.LargeCommunity, _ uint64, _ *struct{}) { out[lc] = true })
	return out
}

func sortStrings(s []string) { slices.Sort(s) }

// sortedDump is dumpStore with the tuple lines also sorted, for
// comparing stores that may order tuples differently (sequential
// insertion order vs canonical merge order).
func sortedDump(ts *TupleStore) []string {
	d := dumpStore(ts)
	sortStrings(d)
	return d
}

func equalDumps(t *testing.T, a, b []string, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d lines vs %d lines", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: line %d differs:\n  %s\n  %s", label, i, a[i], b[i])
		}
	}
}

// setCollide sets the collide hook on a sharded store and on every
// shard's copy of its hash.
func (s *ShardedTupleStore) setCollide(on bool) {
	s.hash.collide = on
	for i := range s.shards {
		s.shards[i].ts.hash.collide = on
	}
}

// cloneShards returns a sharded store over copies of s's shards. Stitch
// consumes the shards it stitches (it drops their tables and groups), so
// stitching one set of shards more than once takes a copy for all but
// the last.
func cloneShards(s *ShardedTupleStore) *ShardedTupleStore {
	c := &ShardedTupleStore{shards: make([]tupleShard, len(s.shards)), shift: s.shift, hash: s.hash, noted: s.noted}
	for i := range s.shards {
		ts := *s.shards[i].ts
		ts.groups.arena = slices.Clone(ts.groups.arena)
		ts.groups.at = slices.Clone(ts.groups.at)
		ts.sets.arena = slices.Clone(ts.sets.arena)
		c.shards[i].ts = &ts
	}
	return c
}

// shardTuples renders the tuples of every shard as dumpStore does, read
// through each shard's own groups, sorted: what the views left, for a
// stitched store's tuples to read back as.
func shardTuples(sts *ShardedTupleStore) []string {
	var out []string
	for i := range sts.shards {
		for _, line := range dumpStore(sts.shards[i].ts) {
			if strings.HasPrefix(line, "t ") {
				out = append(out, line)
			}
		}
	}
	sortStrings(out)
	return out
}

// stitchChecked stitches sts on the given number of workers and holds
// the result to the stitched-store shape: PathID non-decreasing, so each
// path's tuples are contiguous and Observe walks them as they lie; every
// PathID a hop marked as a path's head, and PathCount the marked hops;
// every next ref the origin sentinel or an earlier hop, as a shard
// appends a path's hops origin first; hop columns and VP arena without
// slack, the VP lists, count word and VPs, tiling the VP arena in tuple
// order; a large count that is the tuples' and the noted larges; a group
// arena and a set arena that hold each distinct group and record once
// (checkGroupArena, checkSetArena); tuples that read back as the shards
// held them; and a layout that depends on the shard contents alone —
// Stitch(1) and Stitch(4) of the same shards dump alike and lay out the
// same group arena and set-arena bytes. Stitch consumes the shards, so
// the comparison stitches run on copies (cloneShards), and the store
// returned is stitched from sts itself.
func stitchChecked(t *testing.T, label string, sts *ShardedTupleStore, workers int) *TupleStore {
	t.Helper()
	held := shardTuples(sts)
	first := cloneShards(sts).Stitch(1)
	one := dumpStore(first)
	equalDumps(t, dumpStore(cloneShards(sts).Stitch(4)), one, label+": Stitch(4) vs Stitch(1)")
	ts := sts.Stitch(workers)
	equalDumps(t, dumpStore(ts), one, fmt.Sprintf("%s: Stitch(%d) vs Stitch(1)", label, workers))
	if !sameArenas(ts, first) {
		t.Fatalf("%s: Stitch(%d) and Stitch(1) lay out different set or group arenas", label, workers)
	}
	var tuples []string
	for _, line := range sortedDump(ts) {
		if strings.HasPrefix(line, "t ") {
			tuples = append(tuples, line)
		}
	}
	equalDumps(t, tuples, held, label+": stitched tuples vs the shards'")
	checkGroupArena(t, label, ts)
	checkSetArena(t, label, ts)
	seen := make([]bool, len(ts.hopASN))
	for i := range ts.tuples {
		id := ts.tuples[i].PathID
		if i > 0 && id < ts.tuples[i-1].PathID {
			t.Fatalf("%s: tuple %d has path %d after path %d", label, i, id, ts.tuples[i-1].PathID)
		}
		if seen[id] && id != ts.tuples[i-1].PathID {
			t.Fatalf("%s: path %d's tuples are not contiguous (tuple %d)", label, id, i)
		}
		if ts.hopNext[id]&pathHead == 0 {
			t.Fatalf("%s: tuple %d's path %d is a hop that heads no path", label, i, id)
		}
		seen[id] = true
	}
	if len(ts.hopASN) != cap(ts.hopASN) || len(ts.hopNext) != len(ts.hopASN) || len(ts.hopNext) != cap(ts.hopNext) {
		t.Fatalf("%s: stitched hops hold %d ASNs in %d and %d next refs in %d",
			label, len(ts.hopASN), cap(ts.hopASN), len(ts.hopNext), cap(ts.hopNext))
	}
	for id, next := range ts.hopNext {
		if n := next &^ pathHead; n != originHop && int(n) >= id {
			t.Fatalf("%s: hop %d is followed by hop %d", label, id, n)
		}
	}
	if heads := len(pathHeads(ts)); heads != ts.PathCount() {
		t.Fatalf("%s: %d hops head a path, PathCount %d", label, heads, ts.PathCount())
	}
	vpWords := 0
	for i := range ts.tuples {
		if ts.tuples[i].set&multiVP != 0 {
			if off := *ts.vpIndex.get(int32(i), hashU32(uint32(i))); int(off) != vpWords {
				t.Fatalf("%s: tuple %d's VP list lies at %d, after %d words of lists", label, i, off, vpWords)
			}
			vpWords += 1 + len(ts.TupleVPs(i))
		}
	}
	if vpWords != len(ts.vpArena) || len(ts.vpArena) != cap(ts.vpArena) {
		t.Fatalf("%s: the VP lists take %d words of a VP arena of %d in %d", label, vpWords, len(ts.vpArena), cap(ts.vpArena))
	}
	if got, want := ts.LargeCommunityCount(), len(storeLarges(ts)); got != want {
		t.Fatalf("%s: LargeCommunityCount %d, the tuples and the noted set hold %d", label, got, want)
	}
	return ts
}

// checkSetArena holds a stitched store's set arena to the bulk
// deduplication's result: exactly sized, the empty record at 0 and then
// records no two of which are equal, every one of them some tuple's set,
// and every tuple's ref the start of one — or 0, exactly when its set is
// empty.
func checkSetArena(t *testing.T, label string, ts *TupleStore) {
	t.Helper()
	arena := ts.sets.arena
	if len(arena) == 0 || arena[0] != 0 || len(arena) != cap(arena) || ts.sets.tab.slots != nil {
		t.Fatalf("%s: stitched set arena of %d bytes in %d, head %v, with a table", label, len(arena), cap(arena), arena[:min(1, len(arena))])
	}
	recs := setRecords(arena)
	seen := make(map[string]uint32, len(recs))
	for ref, rec := range recs {
		key := fmt.Sprint(rec)
		if other, dup := seen[key]; dup {
			t.Fatalf("%s: set record %v stored twice, at %d and %d", label, rec, other, ref)
		}
		seen[key] = ref
	}
	used := make(map[uint32]bool, len(recs))
	for i := range ts.tuples {
		ref := ts.tuples[i].setRef()
		comms, larges := tupleCommunities(ts, &ts.tuples[i])
		empty := len(comms)+len(larges) == 0
		if ref == 0 && !empty || ref != 0 && (empty || recs[ref] == nil) {
			t.Fatalf("%s: tuple %d refers to set record %d, which no record starts at, for %v %v", label, i, ref, comms, larges)
		}
		used[ref] = true
	}
	for ref, rec := range recs {
		if !used[ref] {
			t.Fatalf("%s: set record %v at %d is no tuple's", label, rec, ref)
		}
	}
}

// checkGroupArena holds a stitched store's groups to the bulk
// deduplication's result: an exactly sized arena and ordinal table of
// groups no two of which are equal (checkGroups), every one of them
// referred to by some tuple's set record, with no table.
func checkGroupArena(t *testing.T, label string, ts *TupleStore) {
	t.Helper()
	g := &ts.groups
	if len(g.arena) != cap(g.arena) || len(g.at) != cap(g.at) || g.tab.slots != nil || !g.byOrdinal {
		t.Fatalf("%s: stitched group arena of %d words in %d, %d ordinals in %d, table %v, by ordinal %v",
			label, len(g.arena), cap(g.arena), len(g.at), cap(g.at), g.tab.slots != nil, g.byOrdinal)
	}
	refs := make(map[uint32]bool)
	for i := range ts.tuples {
		for _, ord := range groupOrds(ts, &ts.tuples[i]) {
			refs[ord] = true
		}
	}
	checkStoredGroups(t, label, ts, refs)
}

// sameArenas reports whether two stores lay out the same group arena,
// ordinals and set arena.
func sameArenas(a, b *TupleStore) bool {
	return slices.Equal(a.sets.arena, b.sets.arena) && slices.Equal(a.groups.arena, b.groups.arena) && slices.Equal(a.groups.at, b.groups.at)
}

// TestStitchDedupsSetRecords: shards store their own groups and append a
// set record per new tuple, and Stitch deduplicates all shards' groups,
// then all their records, each translated to the stitched ordinals, at
// once, in hash partitions. A group or a set carried by tuples in
// different shards gets one ref in the stitched store, whose arenas — the
// same group words, ordinals and set bytes at 1, 2 and 8 workers — hold
// the same groups and sets as a NewTupleStore fed the same views, which
// deduplicates inline, and whose tuples read back as that store's; with
// seeded and with colliding hashes (every record then falls in one
// partition and one probe chain).
func TestStitchDedupsSetRecords(t *testing.T) {
	for _, collide := range []bool{false, true} {
		label := fmt.Sprintf("collide=%v", collide)
		// 40 community sets over 600 paths toward 60 origins, so every set
		// recurs in several shards.
		plain, sts := NewTupleStore(), NewShardedTupleStore(16)
		plain.hash.collide = collide
		sts.setCollide(collide)
		for i := 0; i < 600; i++ {
			path := []uint32{uint32(100 + i%7), uint32(200 + i%11), uint32(300 + i%60)}
			var comms bgp.Communities
			for k := 0; k <= i%40%5; k++ {
				comms = append(comms, bgp.NewCommunity(uint16(1+(i%40+k)%13), uint16(i%40)))
			}
			var larges bgp.LargeCommunities
			if i%40%3 == 0 {
				larges = bgp.LargeCommunities{{GlobalAdmin: uint32(i % 40), LocalData1: 1, LocalData2: 2}}
			}
			if i%40 == 39 {
				comms, larges = nil, nil
			}
			plain.AddViewLarge(path[0], path, comms, larges)
			sts.AddViewASPathLarge(path[0], bgp.NewASPath(path...), comms, larges)
		}
		shardsOf := make(map[string]map[int]bool)
		for i := range sts.shards {
			ts := sts.shards[i].ts
			for j := range ts.tuples {
				key := setKey(tupleCommunities(ts, &ts.tuples[j]))
				if shardsOf[key] == nil {
					shardsOf[key] = make(map[int]bool)
				}
				shardsOf[key][i] = true
			}
		}
		spread := 0
		for _, in := range shardsOf {
			if len(in) > 1 {
				spread++
			}
		}
		if len(shardsOf) != 40 || spread < 30 {
			t.Fatalf("%s: %d distinct sets, %d of them in more than one shard; the test needs 40 and 30", label, len(shardsOf), spread)
		}

		var first *TupleStore
		for _, workers := range []int{1, 2, 8} {
			ts := cloneShards(sts).Stitch(workers)
			checkGroupArena(t, label, ts)
			checkSetArena(t, label, ts)
			if workers == 1 {
				first = ts
			} else if !sameArenas(ts, first) {
				t.Fatalf("%s: Stitch(%d) lays out a set arena, group arena or ordinals unlike Stitch(1)'s", label, workers)
			}
			refOf := make(map[string]uint32)
			for i := range ts.tuples {
				key := setKey(tupleCommunities(ts, &ts.tuples[i]))
				if ref, ok := refOf[key]; ok && ref != ts.tuples[i].setRef() {
					t.Fatalf("%s: Stitch(%d) gives set %s refs %d and %d", label, workers, key, ref, ts.tuples[i].setRef())
				}
				refOf[key] = ts.tuples[i].setRef()
			}
			stored := func(ts *TupleStore) []string {
				var out []string
				for ref := range setRecords(ts.sets.arena) {
					cs, ls := tupleCommunities(ts, &Tuple{set: ref})
					out = append(out, fmt.Sprint(cs, ls))
				}
				sortStrings(out)
				return out
			}
			equalDumps(t, sortedDump(ts), sortedDump(plain), fmt.Sprintf("%s: Stitch(%d) vs NewTupleStore", label, workers))
			equalDumps(t, stored(ts), stored(plain), fmt.Sprintf("%s: Stitch(%d) vs NewTupleStore set records", label, workers))
			storedGroups := func(ts *TupleStore) []string {
				var out []string
				for _, g := range groupRecords(ts) {
					out = append(out, fmt.Sprint(g))
				}
				sortStrings(out)
				return out
			}
			equalDumps(t, storedGroups(ts), storedGroups(plain), fmt.Sprintf("%s: Stitch(%d) vs NewTupleStore groups", label, workers))
			if len(ts.groups.arena) != len(plain.groups.arena) {
				t.Fatalf("%s: Stitch(%d) holds %d group words, the NewTupleStore %d", label, workers, len(ts.groups.arena), len(plain.groups.arena))
			}
			if n, want := len(setRecords(ts.sets.arena)), len(setRecords(plain.sets.arena)); n != want {
				t.Fatalf("%s: Stitch(%d) holds %d set records, the NewTupleStore %d", label, workers, n, want)
			}
		}
	}
}

// TestShardedMergeMatchesSequential: the merged sharded store holds
// exactly the tuples, paths, VPs and large communities of a sequential
// TupleStore fed the same views, for several shard counts.
func TestShardedMergeMatchesSequential(t *testing.T) {
	views := genViews(1, 5000)
	seq := NewTupleStore()
	for _, v := range views {
		seq.AddView(v.vp, v.path, v.comms)
		seq.NoteLarge(v.large)
	}
	for _, shards := range []int{1, 2, 7, 64} {
		sts := NewShardedTupleStore(shards)
		for _, v := range views {
			sts.AddViewASPathLarge(v.vp, bgp.NewASPath(v.path...), v.comms, nil)
			sts.NoteLarge(v.large)
		}
		// Odd shard counts stitch at the default (GOMAXPROCS) worker
		// count; the rest at one that differs from the shard count.
		workers := 3
		if shards%2 == 1 {
			workers = 0
		}
		merged := stitchChecked(t, fmt.Sprintf("shards=%d", shards), sts, workers)
		if got, want := merged.Len(), seq.Len(); got != want {
			t.Fatalf("shards=%d: Len=%d, want %d", shards, got, want)
		}
		if merged.PathCount() != seq.PathCount() {
			t.Fatalf("shards=%d: PathCount=%d, want %d", shards, merged.PathCount(), seq.PathCount())
		}
		if merged.LargeCommunityCount() != seq.LargeCommunityCount() {
			t.Fatalf("shards=%d: LargeCommunityCount=%d, want %d", shards, merged.LargeCommunityCount(), seq.LargeCommunityCount())
		}
		equalDumps(t, sortedDump(merged), sortedDump(seq), fmt.Sprintf("shards=%d vs sequential", shards))
	}
}

// feedStriped feeds views into sts from writers goroutines, goroutine w
// taking views w, w+writers, … so each interleaves over the whole range,
// maximizing cross-shard contention. Views go in through the store's own
// AddViewASPathLarge or, with viaFeeders, through a Feeder per goroutine
// of a ShardLoad with writers owners. Larges are noted apart, as
// NoteLarge(v.large), so every goroutine takes the noted set's lock.
func feedStriped(sts *ShardedTupleStore, views []synthView, writers int, viaFeeders bool) {
	var load *ShardLoad
	if viaFeeders {
		load = sts.Load(writers, nil)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			add := func(v synthView) { sts.AddViewASPathLarge(v.vp, asPath(v.path), v.comms, nil) }
			if load != nil {
				f := load.Feeder()
				defer f.Release()
				add = func(v synthView) { f.AddViewASPathLarge(v.vp, asPath(v.path), v.comms, nil) }
			}
			for i := w; i < len(views); i += writers {
				v := views[i]
				add(v)
				sts.NoteLarge(v.large)
			}
		}(w)
	}
	wg.Wait()
	if load != nil {
		load.Close()
	}
}

// asPath is path as one AS_SEQUENCE.
func asPath(path []uint32) bgp.ASPath {
	return bgp.ASPath{Segments: []bgp.PathSegment{{Type: bgp.SegmentTypeASSequence, ASNs: path}}}
}

// TestShardedMergeContentIndependentOfWriters: the merged store holds the
// same tuples, paths, VP sets and larges no matter how many goroutines
// fed it, in what order the views arrived, or whether each view was
// written by the goroutine that decoded it or handed to its shard's owner
// by a Feeder. Its layout — path IDs and tuple order — follows arrival
// order and is not compared: no output depends on it
// (TestLoadOutputsDeterministic holds the outputs).
func TestShardedMergeContentIndependentOfWriters(t *testing.T) {
	views := genViews(2, 4000)
	var reference []string
	for _, viaFeeders := range []bool{false, true} {
		for _, writers := range []int{1, 2, 8} {
			label := fmt.Sprintf("feeders=%v writers=%d", viaFeeders, writers)
			sts := NewShardedTupleStore(16)
			feedStriped(sts, views, writers, viaFeeders)
			// Stitch with as many workers as writers: the content must not
			// depend on the feeding or the stitching parallelism.
			dump := sortedDump(stitchChecked(t, label, sts, writers))
			if reference == nil {
				reference = dump
				continue
			}
			equalDumps(t, dump, reference, label+" vs writers=1")
		}
	}
}

// TestShardedStoreRace hammers one store from many goroutines, directly
// and through feeders at 1, 2 and 8 writers, every goroutine noting
// larges beside its views; run under -race it proves the locking and the
// hand-over to shard owners are sound.
func TestShardedStoreRace(t *testing.T) {
	views := genViews(3, 2000)
	for _, tc := range []struct {
		writers    int
		viaFeeders bool
	}{{8, false}, {1, true}, {2, true}, {8, true}} {
		sts := NewShardedTupleStore(4)
		feedStriped(sts, views, tc.writers, tc.viaFeeders)
		if ts := sts.Stitch(2); ts.Len() == 0 || ts.LargeCommunityCount() == 0 {
			t.Fatalf("writers=%d feeders=%v: %d tuples and %d larges after concurrent load",
				tc.writers, tc.viaFeeders, ts.Len(), ts.LargeCommunityCount())
		}
	}
}

// TestFeederMatchesAddView: a store fed through a ShardLoad's feeders —
// two goroutines, one to eight owners, outboxes handed over full and at
// Close — holds exactly what the same views fed one by one through
// AddViewASPathLarge leave: tuples, paths, VPs, and the distinct larges, those
// on an empty path included, with seeded and with colliding table hashes
// (on a shorter stream: every colliding probe walks one chain). With one
// owner no goroutine is started.
func TestFeederMatchesAddView(t *testing.T) {
	views := genViews(4, 7000)
	for i := range views {
		switch i % 50 {
		case 0: // larges on an empty path: noted, no tuple
			views[i].path = nil
			views[i].large = bgp.LargeCommunities{{GlobalAdmin: 7, LocalData1: uint32(i), LocalData2: 1}}
		case 1: // a path that repeats an AS apart
			views[i].path = append(views[i].path, views[i].path[0])
		}
	}
	for _, collide := range []bool{false, true} {
		views := views
		if collide {
			views = views[:1500]
		}
		want := NewShardedTupleStore(16)
		want.setCollide(collide)
		for _, v := range views {
			want.AddViewASPathLarge(v.vp, bgp.NewASPath(v.path...), v.comms, v.large)
		}
		wantDump := sortedDump(want.Stitch(1))
		for _, owners := range []int{1, 2, 8} {
			label := fmt.Sprintf("collide=%v owners=%d", collide, owners)
			sts := NewShardedTupleStore(16)
			sts.setCollide(collide)
			before := runtime.NumGoroutine()
			load := sts.Load(owners, nil)
			if started := runtime.NumGoroutine() - before; owners == 1 && started != 0 {
				t.Fatalf("%s: Load started %d goroutines", label, started)
			}
			const feeders = 2
			var wg sync.WaitGroup
			for g := 0; g < feeders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					f := load.Feeder()
					defer f.Release()
					for i := g; i < len(views); i += feeders {
						v := views[i]
						f.AddViewASPathLarge(v.vp, asPath(v.path), v.comms, v.large)
					}
				}(g)
			}
			wg.Wait()
			load.Close()
			equalDumps(t, sortedDump(sts.Stitch(2)), wantDump, label+" vs AddViewASPathLarge")
		}
	}
}

// TestShardCountsRounding: shard counts round up to powers of two and
// degenerate inputs still work.
func TestShardCountsRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{-1, 1}, {0, 1}, {1, 1}, {3, 4}, {8, 8}, {9, 16}} {
		if got := len(NewShardedTupleStore(tc.in).shards); got != tc.want {
			t.Errorf("NewShardedTupleStore(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestLoopedPathIdentity: a path's identity is its key — the ASN
// sequence with prepending collapsed — which its chain of hops spells,
// although its ASNs are the key's distinct ones. A B A is not A B (same
// distinct ASNs), A A B is (prepending), and an AS_SET flattened behind
// its sequence is the path those words spell. The naive reduction is the
// reference, distinct-ASN lists included: a NewTupleStore and the sharded
// store must agree with it, and with each other dump for dump, through the
// shards and Stitch (which rebases the hops' next refs), before and after later
// views that add vantage points to known paths and new looped paths, with
// every table hash forced to collide as well.
func TestLoopedPathIdentity(t *testing.T) {
	const A, B, C = 64500, 64501, 64502
	comms := bgp.Communities{bgp.NewCommunity(100, 1)}
	aggregated := bgp.ASPath{Segments: []bgp.PathSegment{
		{Type: bgp.SegmentTypeASSequence, ASNs: []uint32{A, B}},
		{Type: bgp.SegmentTypeASSet, ASNs: []uint32{C, A}},
	}}
	paths := [][]uint32{
		{A, B, A},    // poisoned: a path of its own
		{A, B},       // the loop-free path with the same distinct ASNs
		{A, A, B},    // A B prepended
		{A, B, C, A}, // what aggregated flattens to
		{A, B, C},    // the loop-free path with those distinct ASNs
		{B, A, B, A}, // two repeats
	}
	later := [][]uint32{{A, B, A}, {B, A, B}, {A, B, B, A}, {A, C}}

	for _, collide := range []bool{false, true} {
		for _, shards := range []int{1, 64} {
			label := fmt.Sprintf("collide=%v shards=%d", collide, shards)
			plain := NewTupleStore()
			plain.hash.collide = collide
			// The views go to the plain store and, with the aggregated path
			// unflattened, to every sharded store fed.
			var views []refView
			var asPaths []bgp.ASPath
			add := func(vp uint32, p []uint32, asp bgp.ASPath) {
				views = append(views, refView{vp: vp, path: p, comms: comms})
				asPaths = append(asPaths, asp)
				plain.AddView(vp, p, comms)
			}
			stitched := func(label string) *TupleStore {
				sts := NewShardedTupleStore(shards)
				sts.setCollide(collide)
				for i, v := range views {
					sts.AddViewASPathLarge(v.vp, asPaths[i], v.comms, nil)
				}
				return stitchChecked(t, label, sts, 2)
			}
			for i, p := range paths {
				add(uint32(i), p, bgp.NewASPath(p...))
			}
			add(9, aggregated.Flatten(), aggregated)

			want := referenceReduce(views)
			ts := stitched(label)
			if ts.Len() != 5 {
				t.Fatalf("%s: %d tuples after Stitch, want 5", label, ts.Len())
			}
			checkReduction(t, label+" plain", plain, want)
			checkReduction(t, label+" stitched", ts, want)
			equalDumps(t, sortedDump(ts), sortedDump(plain), label+" stitched vs plain")
			// The five keys end in 12 distinct suffixes, one hop each: A, B
			// A, A B A, B, A B, C A, B C A, A B C A, C, B C, A B C, B A B A.
			for _, s := range []*TupleStore{plain, ts} {
				if len(s.hopASN) != 12 {
					t.Fatalf("%s: %d hops, want 12", label, len(s.hopASN))
				}
			}

			// Known views add vantage points only; of the later paths one is
			// known, one new and looped, one known under prepending, one new.
			for i, p := range append(paths, later...) {
				add(uint32(20+i), p, bgp.NewASPath(p...))
			}
			want = referenceReduce(views)
			ts = stitched(label + " re-fed")
			checkReduction(t, label+" plain re-fed", plain, want)
			checkReduction(t, label+" stitched re-fed", ts, want)
			equalDumps(t, sortedDump(ts), sortedDump(plain), label+" re-fed vs plain")
			for _, s := range []*TupleStore{plain, ts} {
				// B A B and A C add one hop each; B and A B, C are known.
				if s.PathCount() != 7 || s.Len() != 7 || len(s.hopASN) != 14 {
					t.Fatalf("%s: after the later views %d paths, %d tuples, %d hops; want 7, 7 and 14",
						label, s.PathCount(), s.Len(), len(s.hopASN))
				}
			}
		}
	}
}

// TestStitchedStoreIsReadOnly: a stitched store takes no views — every
// AddView*, and NoteLarge, panics with the read-only message and leaves
// it as it was, as does a second Stitch of the consumed shards — and
// reads like a NewTupleStore fed the same views:
// Observe's records, LargeCommunityCount, the (community, path) pairs
// EachPathCommunity visits, and every Footprint row that holds data. Of
// the rows, only the VP arena differs in bytes (a stitched store packs
// its lists), and the load-time tables are empty.
func TestStitchedStoreIsReadOnly(t *testing.T) {
	views := genViews(5, 3000)
	for i := range views {
		if i%40 == 0 { // larges on an empty path: noted, no tuple
			views[i].path = nil
			views[i].large = bgp.LargeCommunities{{GlobalAdmin: 9, LocalData1: uint32(i), LocalData2: 2}}
		}
	}
	for i := 1; i < 300; i += 3 { // lists of 2 to 13 vantage points
		for k := uint32(0); k <= uint32(i%12); k++ {
			v := views[i]
			v.vp = 100 + k
			views = append(views, v)
		}
	}
	plain, sts := NewTupleStore(), NewShardedTupleStore(16)
	for _, v := range views {
		plain.AddViewLarge(v.vp, v.path, v.comms, v.large)
		sts.AddViewASPathLarge(v.vp, bgp.NewASPath(v.path...), v.comms, v.large)
	}
	ts := stitchChecked(t, "read-only", sts, 2)

	before := dumpStore(ts)
	v := views[1]
	for _, call := range []struct {
		name string
		fn   func()
	}{
		{"AddView", func() { ts.AddView(v.vp, v.path, v.comms) }},
		{"AddViewLarge", func() { ts.AddViewLarge(v.vp, v.path, v.comms, v.large) }},
		{"AddViewLarge, empty path", func() { ts.AddViewLarge(v.vp, nil, nil, views[0].large) }},
		{"NoteLarge", func() { ts.NoteLarge(views[0].large) }},
		{"Stitch again", func() { sts.Stitch(1) }},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "read-only") {
					t.Fatalf("%s on a stitched store: recovered %v, want the read-only panic", call.name, r)
				}
			}()
			call.fn()
		}()
	}
	equalDumps(t, dumpStore(ts), before, "after the refused views")
	equalDumps(t, sortedDump(ts), sortedDump(plain), "stitched vs plain")

	opts := DefaultOptions()
	got, want := Observe(ts, opts), Observe(plain, opts)
	if !slices.Equal(got.Stats, want.Stats) || !slices.Equal(got.Larges, want.Larges) || len(got.Larges) == 0 {
		t.Fatalf("Observe: %d classic and %d large records stitched, %d and %d plain",
			len(got.Stats), len(got.Larges), len(want.Stats), len(want.Larges))
	}
	if got, want := ts.LargeCommunityCount(), plain.LargeCommunityCount(); got != want {
		t.Fatalf("LargeCommunityCount: %d stitched, %d plain", got, want)
	}
	pairs := func(ts *TupleStore) []string {
		var out []string
		EachPathCommunity(ts, opts, func(c bgp.Community, path []uint32) {
			out = append(out, fmt.Sprint(c, path))
		})
		sortStrings(out)
		return out
	}
	equalDumps(t, pairs(ts), pairs(plain), "EachPathCommunity stitched vs plain")

	plainRows := make(map[string]FootprintRow)
	for _, r := range plain.Footprint() {
		plainRows[r.Name] = r
	}
	for _, r := range ts.Footprint() {
		p := plainRows[r.Name]
		switch r.Name {
		case "set_table", "group_table", "index_tables":
			if r.Used != 0 || r.Reserved != 0 || p.Used == 0 {
				t.Fatalf("Footprint %s: %+v stitched, %+v plain; want empty stitched", r.Name, r, p)
			}
		case "vp_arena":
			if r.Used == 0 || r.Used >= p.Used || r.Reserved != r.Used {
				t.Fatalf("Footprint %s: %+v stitched, %+v plain; want packed", r.Name, r, p)
			}
		case "set_arena":
			// A ref's width follows its group's ordinal, and the two stores
			// number their groups apart: the records are the same, not
			// their bytes.
			if n, want := len(setRecords(ts.sets.arena)), len(setRecords(plain.sets.arena)); r.Reserved != r.Used || n != want {
				t.Fatalf("Footprint %s: %+v stitched holding %d records, %+v plain holding %d; want packed, as many", r.Name, r, n, p, want)
			}
		default:
			if r.Used != p.Used {
				t.Fatalf("Footprint %s: %d B used stitched, %d B plain", r.Name, r.Used, p.Used)
			}
		}
	}
}

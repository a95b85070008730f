package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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
// the VPs, plus the large-community set.
func dumpStore(ts *TupleStore) []string {
	lines := make([]string, 0, len(ts.tuples)+len(ts.large))
	for i := range ts.tuples {
		t := &ts.tuples[i]
		comms, larges := tupleCommunities(ts, t)
		lines = append(lines, fmt.Sprintf("t %v %v %v %v %v", ts.pathKey(t.PathID), ts.Path(t.PathID).ASNs, comms, larges, ts.TupleVPs(t)))
	}
	larges := make([]string, 0, len(ts.large))
	for lc := range ts.large {
		larges = append(larges, "l "+lc.String())
	}
	sortStrings(larges)
	return append(lines, larges...)
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

// stitchChecked stitches sts on the given number of workers and holds
// the result to the stitched-store shape: PathID non-decreasing, so each
// path's tuples are contiguous and Observe walks them as they lie; an
// ASN arena without slack; the looped-path index ascending by ID; and a
// layout that depends on the shard contents alone — Stitch(1) and
// Stitch(4) of the same shards dump alike. Stitch only reads the shards,
// so the comparison stitches come first and the store returned is the
// last one made, the one the shared storage belongs to.
func stitchChecked(t *testing.T, label string, sts *ShardedTupleStore, workers int) *TupleStore {
	t.Helper()
	one := dumpStore(sts.Stitch(1))
	equalDumps(t, dumpStore(sts.Stitch(4)), one, label+": Stitch(4) vs Stitch(1)")
	ts := sts.Stitch(workers)
	equalDumps(t, dumpStore(ts), one, fmt.Sprintf("%s: Stitch(%d) vs Stitch(1)", label, workers))
	seen := make([]bool, ts.PathCount())
	for i := range ts.tuples {
		id := ts.tuples[i].PathID
		if i > 0 && id < ts.tuples[i-1].PathID {
			t.Fatalf("%s: tuple %d has path %d after path %d", label, i, id, ts.tuples[i-1].PathID)
		}
		if seen[id] && id != ts.tuples[i-1].PathID {
			t.Fatalf("%s: path %d's tuples are not contiguous (tuple %d)", label, id, i)
		}
		seen[id] = true
	}
	if len(ts.asnArena) != cap(ts.asnArena) {
		t.Fatalf("%s: stitched ASN arena holds %d words in %d", label, len(ts.asnArena), cap(ts.asnArena))
	}
	for i := 1; i < len(ts.loops); i++ {
		if ts.loops[i-1].id >= ts.loops[i].id {
			t.Fatalf("%s: looped-path index out of order: %v", label, ts.loops)
		}
	}
	return ts
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
			sts.AddView(v.vp, v.path, v.comms)
			sts.NoteLarge(v.large)
		}
		if got, want := sts.Len(), seq.Len(); got != want {
			t.Fatalf("shards=%d: Len=%d, want %d", shards, got, want)
		}
		// Odd shard counts stitch at the default (GOMAXPROCS) worker
		// count; the rest at one that differs from the shard count.
		workers := 3
		if shards%2 == 1 {
			workers = 0
		}
		merged := stitchChecked(t, fmt.Sprintf("shards=%d", shards), sts, workers)
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
// AddView or, with viaFeeders, through a Feeder per goroutine of a
// ShardLoad with writers owners. Larges are noted apart, as
// NoteLarge(v.large).
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
			add := func(v synthView) { sts.AddView(v.vp, v.path, v.comms) }
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
// and through feeders at 1, 2 and 8 writers, with concurrent readers of
// the aggregate length; run under -race it proves the locking and the
// hand-over to shard owners are sound.
func TestShardedStoreRace(t *testing.T) {
	views := genViews(3, 2000)
	for _, tc := range []struct {
		writers    int
		viaFeeders bool
	}{{8, false}, {1, true}, {2, true}, {8, true}} {
		sts := NewShardedTupleStore(4)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			feedStriped(sts, views, tc.writers, tc.viaFeeders)
		}()
		// Concurrent readers of the aggregate length.
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					_ = sts.Len()
				}
			}()
		}
		wg.Wait()
		if sts.Len() == 0 {
			t.Fatalf("writers=%d feeders=%v: store empty after concurrent load", tc.writers, tc.viaFeeders)
		}
	}
}

// TestFeederMatchesAddView: a store fed through a ShardLoad's feeders —
// two goroutines, one to eight owners, outboxes handed over full and at
// Close — holds exactly what the same views fed one by one through
// AddViewLarge leave: tuples, paths, VPs, and the distinct larges, those
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
		want.shared.collide = collide
		for _, v := range views {
			want.AddViewLarge(v.vp, v.path, v.comms, v.large)
		}
		wantDump := sortedDump(want.Stitch(1))
		for _, owners := range []int{1, 2, 8} {
			label := fmt.Sprintf("collide=%v owners=%d", collide, owners)
			sts := NewShardedTupleStore(16)
			sts.shared.collide = collide
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
			equalDumps(t, sortedDump(sts.Stitch(2)), wantDump, label+" vs AddViewLarge")
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
// sequence with prepending collapsed — although a store stores that key
// only for a path that repeats an AS apart. A B A is not A B (same
// distinct ASNs), A A B is (prepending), and an AS_SET flattened behind
// its sequence is the path those words spell. The naive reduction is the
// reference, distinct-ASN lists included: a NewTupleStore and the sharded
// store must agree with it, and with each other dump for dump, through the
// shards, Stitch (which rebases the ASN spans) and post-stitch AddViews
// (which append to the exactly-sized ASN arena), with every table hash
// forced to collide as well.
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
			plain.shared.collide = collide
			sts := NewShardedTupleStore(shards)
			sts.shared.collide = collide
			var views []refView
			for i, p := range paths {
				views = append(views, refView{vp: uint32(i), path: p, comms: comms})
				plain.AddView(uint32(i), p, comms)
				sts.AddView(uint32(i), p, comms)
			}
			views = append(views, refView{vp: 9, path: aggregated.Flatten(), comms: comms})
			plain.AddView(9, aggregated.Flatten(), comms)
			sts.AddViewASPath(9, aggregated, comms)
			if sts.Len() != 5 {
				t.Fatalf("%s: %d tuples in the shards, want 5", label, sts.Len())
			}

			want := referenceReduce(views)
			ts := stitchChecked(t, label, sts, 2)
			checkReduction(t, label+" plain", plain, want)
			checkReduction(t, label+" stitched", ts, want)
			equalDumps(t, sortedDump(ts), sortedDump(plain), label+" stitched vs plain")
			for _, s := range []*TupleStore{plain, ts} {
				if len(s.loops) != 3 {
					t.Fatalf("%s: %d paths with stored keys, want 3", label, len(s.loops))
				}
			}

			// Known views add vantage points only; of the later paths one is
			// known, one new and looped, one known under prepending, one new.
			for i, p := range append(paths, later...) {
				views = append(views, refView{vp: uint32(20 + i), path: p, comms: comms})
				plain.AddView(uint32(20+i), p, comms)
				ts.AddView(uint32(20+i), p, comms)
			}
			want = referenceReduce(views)
			checkReduction(t, label+" plain re-fed", plain, want)
			checkReduction(t, label+" stitched re-fed", ts, want)
			equalDumps(t, sortedDump(ts), sortedDump(plain), label+" re-fed vs plain")
			for _, s := range []*TupleStore{plain, ts} {
				if s.PathCount() != 7 || s.Len() != 7 || len(s.loops) != 4 {
					t.Fatalf("%s: after the later views %d paths, %d tuples, %d stored keys; want 7, 7 and 4",
						label, s.PathCount(), s.Len(), len(s.loops))
				}
			}
		}
	}
}

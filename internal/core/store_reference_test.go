package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"bgpintent/internal/bgp"
)

// refReduction is the outcome of the §4 data reduction: every unique
// (AS path, communities, large communities) identity with the set of
// vantage points that saw it, the unique paths, the distinct suffixes of
// their keys — one hop each in a store — and the distinct large
// communities (which count even on views without a usable path).
type refReduction struct {
	vps      map[string]map[uint32]bool
	paths    map[string]bool
	suffixes map[string]bool
	larges   map[bgp.LargeCommunity]bool
}

func newRefReduction() refReduction {
	return refReduction{
		vps:      make(map[string]map[uint32]bool),
		paths:    make(map[string]bool),
		suffixes: make(map[string]bool),
		larges:   make(map[bgp.LargeCommunity]bool),
	}
}

// refIdentity renders one tuple identity from plain integers, so the
// reference and the stores are compared on content alone.
func refIdentity(path []uint32, comms []bgp.Community, larges []bgp.LargeCommunity) string {
	c := make([]uint32, len(comms))
	for i := range comms {
		c[i] = uint32(comms[i])
	}
	l := make([][3]uint32, len(larges))
	for i, lc := range larges {
		l[i] = [3]uint32{lc.GlobalAdmin, lc.LocalData1, lc.LocalData2}
	}
	return fmt.Sprint(path, "|", c, "|", l)
}

// refSortedSet returns the distinct elements of xs in ascending order,
// through a map and the standard sort — none of the store's
// canonicalization code.
func refSortedSet[T comparable](xs []T, less func(a, b T) bool) []T {
	seen := make(map[T]bool)
	var out []T
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// refCollapse returns path with prepending (adjacent repeats) collapsed:
// the path's identity, computed without the store's collapsePath.
func refCollapse(path []uint32) []uint32 {
	var collapsed []uint32
	for i, asn := range path {
		if i == 0 || asn != path[i-1] {
			collapsed = append(collapsed, asn)
		}
	}
	return collapsed
}

// refDistinct returns path's distinct ASNs in first-appearance order: a
// path's PathInfo.ASNs, computed without the store.
func refDistinct(path []uint32) []uint32 {
	var out []uint32
	seen := make(map[uint32]bool, len(path))
	for _, asn := range path {
		if !seen[asn] {
			seen[asn] = true
			out = append(out, asn)
		}
	}
	return out
}

// referenceReduce is the naive §4 reduction. It shares no code with
// TupleStore or ShardedTupleStore.
func referenceReduce(views []refView) refReduction {
	r := newRefReduction()
	for _, v := range views {
		for _, lc := range v.larges {
			r.larges[lc] = true
		}
		if len(v.path) == 0 {
			continue
		}
		collapsed := refCollapse(v.path)
		comms := refSortedSet(v.comms, func(a, b bgp.Community) bool { return a < b })
		larges := refSortedSet(v.larges, func(a, b bgp.LargeCommunity) bool {
			if a.GlobalAdmin != b.GlobalAdmin {
				return a.GlobalAdmin < b.GlobalAdmin
			}
			if a.LocalData1 != b.LocalData1 {
				return a.LocalData1 < b.LocalData1
			}
			return a.LocalData2 < b.LocalData2
		})
		id := refIdentity(collapsed, comms, larges)
		if r.vps[id] == nil {
			r.vps[id] = make(map[uint32]bool)
		}
		r.vps[id][v.vp] = true
		r.paths[fmt.Sprint(collapsed)] = true
		for i := range collapsed {
			r.suffixes[fmt.Sprint(collapsed[i:])] = true
		}
	}
	return r
}

// pathKey reads path id's key back off its chain: the ASN of every hop
// from the first to the origin's.
func (ts *TupleStore) pathKey(id int32) []uint32 {
	var key []uint32
	for h := uint32(id); h != originHop; h = ts.hopNext[h] &^ pathHead {
		key = append(key, ts.hopASN[h])
	}
	return key
}

// pathHeads returns the IDs of a store's paths: the hops marked as heads.
func pathHeads(ts *TupleStore) []int32 {
	var ids []int32
	for id, next := range ts.hopNext {
		if next&pathHead != 0 {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// reduceStore reads a store back into the reference's shape, failing on
// anything a reduction must never hold: one identity in two tuples, a
// repeated vantage point, one path under two IDs, a path whose ASNs are
// not its key's distinct ASNs.
func reduceStore(t *testing.T, label string, ts *TupleStore) refReduction {
	t.Helper()
	r := newRefReduction()
	for _, id := range pathHeads(ts) {
		key := ts.pathKey(id)
		p := fmt.Sprint(key)
		if r.paths[p] {
			t.Fatalf("%s: path %s interned twice", label, p)
		}
		r.paths[p] = true
		if got, want := fmt.Sprint(ts.Path(id).ASNs), fmt.Sprint(refDistinct(key)); got != want {
			t.Fatalf("%s: path %s has ASNs %s, want %s", label, p, got, want)
		}
	}
	for i := range ts.tuples {
		tu := &ts.tuples[i]
		comms, larges := tupleCommunities(ts, tu)
		for _, lc := range larges {
			r.larges[lc] = true
		}
		id := refIdentity(ts.pathKey(tu.PathID), comms, larges)
		if r.vps[id] != nil {
			t.Fatalf("%s: identity %s held by two tuples", label, id)
		}
		r.vps[id] = make(map[uint32]bool)
		for _, vp := range ts.TupleVPs(i) {
			if r.vps[id][vp] {
				t.Fatalf("%s: tuple %s lists vantage point %d twice", label, id, vp)
			}
			r.vps[id][vp] = true
		}
	}
	ts.noted.each(func(lc bgp.LargeCommunity, _ uint64, _ *struct{}) { r.larges[lc] = true })
	return r
}

func checkReduction(t *testing.T, label string, ts *TupleStore, want refReduction) {
	t.Helper()
	got := reduceStore(t, label, ts)
	if len(got.vps) != len(want.vps) || ts.Len() != len(want.vps) {
		t.Fatalf("%s: %d tuples (Len %d), reference has %d", label, len(got.vps), ts.Len(), len(want.vps))
	}
	for id, vps := range want.vps {
		if len(got.vps[id]) != len(vps) {
			t.Fatalf("%s: tuple %s seen by %d vantage points, reference %d", label, id, len(got.vps[id]), len(vps))
		}
		for vp := range vps {
			if !got.vps[id][vp] {
				t.Fatalf("%s: tuple %s lacks vantage point %d", label, id, vp)
			}
		}
	}
	if len(got.paths) != len(want.paths) || ts.PathCount() != len(want.paths) {
		t.Fatalf("%s: %d paths (PathCount %d), reference has %d", label, len(got.paths), ts.PathCount(), len(want.paths))
	}
	for p := range want.paths {
		if !got.paths[p] {
			t.Fatalf("%s: path %s missing", label, p)
		}
	}
	var vps []uint32
	for _, set := range want.vps {
		for vp := range set {
			vps = append(vps, vp)
		}
	}
	if got, want := ts.VPSet(), refSortedSet(vps, func(a, b uint32) bool { return a < b }); !slices.Equal(got, want) {
		t.Fatalf("%s: VPSet %v, reference %v", label, got, want)
	}
	if all := ts.AllPaths(); len(all) != len(want.paths) {
		t.Fatalf("%s: AllPaths has %d paths, reference %d", label, len(all), len(want.paths))
	}
	if len(ts.hopASN) != len(want.suffixes) {
		t.Fatalf("%s: %d hops, the paths end in %d distinct suffixes", label, len(ts.hopASN), len(want.suffixes))
	}
	if len(got.larges) != len(want.larges) || ts.LargeCommunityCount() != len(want.larges) {
		t.Fatalf("%s: %d distinct large communities (count %d), reference has %d",
			label, len(got.larges), ts.LargeCommunityCount(), len(want.larges))
	}
	for lc := range want.larges {
		if !got.larges[lc] {
			t.Fatalf("%s: large community %v missing", label, lc)
		}
	}
}

// storeViews builds one random view stream out of a refUniverse (which
// brings prepended paths, 0:0, 65535:65535, VP/ASN 0 and 0xFFFFFFFF, and
// identities seen from several vantage points) and adds what the
// reduction must see through: the same set in another order and with
// repeats, near-twins that differ from a view in exactly one of path,
// communities and larges, and one path under a classic-only, a
// large-only, a mixed and an empty set. Every fourth seed also carries a
// community list of one α over 4 Ki long: one group of that many words.
func storeViews(seed int64) []refView {
	rng := rand.New(rand.NewSource(seed))
	u := newRefUniverse(rng)
	base := u.views(rng, 1+rng.Intn(300), seed%3 != 0)
	views := make([]refView, 0, 2*len(base)+4)
	classic, large := u.comms[:1+rng.Intn(len(u.comms))], u.larges[:1+rng.Intn(len(u.larges))]
	for _, v := range []refView{{comms: classic}, {larges: large}, {comms: classic, larges: large}, {}} {
		v.vp, v.path = u.asns[rng.Intn(len(u.asns))], u.paths[0]
		views = append(views, v)
	}
	for _, v := range base {
		views = append(views, v)
		w := v
		switch rng.Intn(6) {
		case 0: // same identity, other spelling
			w.vp = u.asns[rng.Intn(len(u.asns))]
			w.comms = append(append(bgp.Communities{}, v.comms...), v.comms...)
			rng.Shuffle(len(w.comms), func(i, j int) { w.comms[i], w.comms[j] = w.comms[j], w.comms[i] })
			w.larges = append(append(bgp.LargeCommunities{}, v.larges...), v.larges...)
			rng.Shuffle(len(w.larges), func(i, j int) { w.larges[i], w.larges[j] = w.larges[j], w.larges[i] })
		case 1: // only the path differs
			w.path = append(append([]uint32{}, v.path...), u.asns[rng.Intn(len(u.asns))])
		case 2: // only the communities differ
			w.comms = append(append(bgp.Communities{}, v.comms...), u.comms[rng.Intn(len(u.comms))])
		case 3: // only the larges differ
			w.larges = append(append(bgp.LargeCommunities{}, v.larges...), u.larges[rng.Intn(len(u.larges))])
		case 4: // no usable path: the larges still count
			w.path = nil
			w.larges = append(w.larges, bgp.LargeCommunity{GlobalAdmin: uint32(rng.Intn(3)), LocalData2: 7})
		default:
			continue
		}
		views = append(views, w)
	}
	if seed%4 == 0 {
		long := refView{vp: 1, path: u.paths[0]}
		for i := 0; i < 4396; i++ {
			long.comms = append(long.comms, bgp.Community(i))
		}
		long.comms = append(long.comms, long.comms[:5]...)
		views = append(views, long, long)
		views[len(views)-1].vp = 2
	}
	return views
}

// TestStoreMatchesReference: the naive reduction, a NewTupleStore (the
// live window's store) and the sharded store after Stitch hold exactly
// the same tuples, vantage-point sets, paths and distinct large
// communities, for every combination of concurrent writers, shard count
// and Stitch workers — and a sharded store fed the whole stream twice
// stitches to the same content, while one also fed nine new vantage
// points for a multi-VP tuple grows that list past a power of two. The
// second round makes every view hash alike, in the
// NewTupleStore as in the shards, so each store's tables, its group and
// set indexes among them, degenerate into one probe chain apiece: the
// results must be the same, because the content comparison, not the tag,
// decides identity. (Dropping the path or set compare from addView, or
// the content compare from recordIndex.intern, fails this round.)
func TestStoreMatchesReference(t *testing.T) {
	for _, collide := range []bool{false, true} {
		for seed := int64(1); seed <= 12; seed++ {
			views := storeViews(seed)
			later := growVPs(views)
			want := referenceReduce(views)
			wantLater := referenceReduce(append(views, later...))

			plain := NewTupleStore()
			plain.hash.collide = collide
			plainLabel := fmt.Sprintf("seed %d collide=%v plain", seed, collide)
			for _, v := range views {
				plain.AddViewLarge(v.vp, v.path, v.comms, v.larges)
			}
			checkReduction(t, plainLabel, plain, want)
			for _, v := range later {
				plain.AddViewLarge(v.vp, v.path, v.comms, v.larges)
			}
			checkReduction(t, plainLabel+" grown", plain, wantLater)
			if collide {
				checkOneChain(t, plainLabel+" sets", plain.sets.tab.slots, plain.sets.tab.n)
				checkOneChain(t, plainLabel+" groups", plain.groups.tab.slots, plain.groups.tab.n)
			}

			for _, writers := range []int{1, 2, 8} {
				for _, shards := range []int{1, 7, 64} {
					for _, workers := range []int{1, 4} {
						label := fmt.Sprintf("seed %d collide=%v writers=%d shards=%d stitch=%d", seed, collide, writers, shards, workers)
						// stitched feeds views into a fresh sharded store from
						// writers goroutines, checks its shards' group tables, and stitches it.
						stitched := func(label string, views []refView) *TupleStore {
							sts := NewShardedTupleStore(shards)
							sts.setCollide(collide)
							var wg sync.WaitGroup
							for w := 0; w < writers; w++ {
								wg.Add(1)
								go func(w int) {
									defer wg.Done()
									for i := w; i < len(views); i += writers {
										v := views[i]
										sts.AddViewASPathLarge(v.vp, bgp.NewASPath(v.path...), v.comms, v.larges)
									}
								}(w)
							}
							wg.Wait()
							if collide {
								for i := range sts.shards {
									tab := &sts.shards[i].ts.groups.tab
									checkOneChain(t, fmt.Sprintf("%s shard %d groups", label, i), tab.slots, tab.n)
								}
							}
							return stitchChecked(t, label, sts, workers)
						}
						checkReduction(t, label, stitched(label, views), want)
						if writers == 1 {
							checkReduction(t, label+" refed", stitched(label+" refed", append(views[:len(views):len(views)], views...)), want)
						}
						checkReduction(t, label+" grown", stitched(label+" grown", append(views[:len(views):len(views)], later...)), wantLater)
					}
				}
			}
		}
	}
}

// checkOneChain asserts that a table whose hash is forced to zero holds
// its live entries as one probe chain: slots [0, live) all filled.
func checkOneChain(t *testing.T, label string, slots []uint64, live int) {
	t.Helper()
	for i := range slots {
		if filled := slots[i] != 0; filled != (i < live) {
			t.Fatalf("%s: table slot %d filled=%v with %d entries: not one chain", label, i, filled, live)
		}
	}
}

// TestHopStoreMatchesReference feeds the shapes a store of hops has to
// get right through a NewTupleStore and through Stitch of 1, 7 and 64
// shards, with seeded and with colliding hashes, and holds each store to
// the naive reduction: its tuples and their VP sets, its paths (through
// PathCount, AllPaths and Path, whose ASNs are the key's distinct ones in
// first-appearance order) and its hops, one per distinct key suffix. The
// shapes:
//   - paths that differ only in their first ASN, which share every other
//     hop;
//   - a path that is another's suffix, fed after it (an inner hop comes to
//     head a path) and before it;
//   - a path that is a proper prefix of another with the same
//     communities, in both orders: A B is not A B C;
//   - a looped key and an AS_SET flattened behind its sequence;
//   - tuples whose one VP is not their path's first ASN, and multi-VP
//     tuples grown past a power of two, on tuples that Stitch reorders
//     (the suffix path arrives after the path it ends).
//
// Each shape kills a mutant: a path compare that stops before the origin
// takes A B for A B C (colliding round), a hop keyed without its next
// hop merges A B C with D B E, a Stitch that keeps VP lists at their
// shard-local tuple indexes reads a reordered tuple's VPs off another's,
// and routing views by the whole key rather than the origin stores each
// shared suffix once per shard it reaches (the hop count).
func TestHopStoreMatchesReference(t *testing.T) {
	const A, B, C, D, E, X, Y = 64500, 64501, 64502, 64503, 64504, 64505, 64506
	c1 := bgp.Communities{bgp.NewCommunity(100, 1)}
	c2 := bgp.Communities{bgp.NewCommunity(200, 2), bgp.NewCommunity(100, 1)}
	l1 := bgp.LargeCommunities{{GlobalAdmin: A, LocalData1: 1, LocalData2: 2}}
	aggregated := bgp.ASPath{Segments: []bgp.PathSegment{
		{Type: bgp.SegmentTypeASSequence, ASNs: []uint32{E, A, B}},
		{Type: bgp.SegmentTypeASSet, ASNs: []uint32{C, A}},
	}}
	views := []refView{
		{vp: X, path: []uint32{X, A, B, C}, comms: c1}, // differ only in the first ASN
		{vp: Y, path: []uint32{Y, A, B, C}, comms: c1},
		{vp: A, path: []uint32{A, B, C}, comms: c1}, // a suffix of both, after them
		{vp: 7, path: []uint32{B, C}, comms: c2},    // another, VP not the first ASN
		{vp: D, path: []uint32{D, E}, comms: c2},    // a suffix before its path
		{vp: C, path: []uint32{C, D, E}, comms: c2},
		{vp: A, path: []uint32{A, B}, comms: c1},       // a prefix of A B C
		{vp: D, path: []uint32{D, B, E}, comms: c1},    // B's hop with another next
		{vp: A, path: []uint32{A, B, A}, comms: c1},    // looped
		{vp: A, path: []uint32{A, A, B, A}, comms: c1}, // the same key, prepended
		{vp: 9, path: []uint32{C, D}, comms: c1, larges: l1},
		{vp: 9, path: []uint32{C, D, E, A}, comms: c1, larges: l1}, // C D a prefix, fed first
	}
	asPaths := make([]bgp.ASPath, len(views), len(views)+1)
	for i, v := range views {
		asPaths[i] = bgp.NewASPath(v.path...)
	}
	views = append(views, refView{vp: E, path: aggregated.Flatten(), comms: c2})
	asPaths = append(asPaths, aggregated)
	// Multi-VP tuples: more vantage points, past a power of two, for the
	// suffix and the prefix tuples (which Stitch moves ahead of the paths
	// they end or start) and for a tuple that has one list already.
	for _, i := range []int{2, 3, 6} {
		for vp := uint32(1); vp <= 5; vp++ {
			v := views[i]
			v.vp = vp * 1000
			views = append(views, v)
			asPaths = append(asPaths, asPaths[i])
		}
	}
	want := referenceReduce(views)
	if len(want.vps) != 12 || len(want.paths) != 12 {
		t.Fatalf("the reference holds %d tuples on %d paths, want 12 on 12", len(want.vps), len(want.paths))
	}

	for _, collide := range []bool{false, true} {
		plain := NewTupleStore()
		plain.hash.collide = collide
		for _, v := range views {
			plain.AddViewLarge(v.vp, v.path, v.comms, v.larges)
		}
		label := fmt.Sprintf("collide=%v", collide)
		checkReduction(t, label+" plain", plain, want)
		for _, shards := range []int{1, 7, 64} {
			label := fmt.Sprintf("%s shards=%d", label, shards)
			sts := NewShardedTupleStore(shards)
			sts.setCollide(collide)
			for i, v := range views {
				sts.AddViewASPathLarge(v.vp, asPaths[i], v.comms, v.larges)
			}
			ts := stitchChecked(t, label, sts, 2)
			checkReduction(t, label, ts, want)
			equalDumps(t, sortedDump(ts), sortedDump(plain), label+" stitched vs plain")
		}
	}
}

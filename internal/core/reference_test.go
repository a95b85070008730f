package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"bgpintent/internal/asrel"
	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
)

// refView is one raw observation: what a collector saw, before any
// canonicalization, interning or deduplication.
type refView struct {
	vp     uint32
	path   []uint32
	comms  bgp.Communities
	larges bgp.LargeCommunities
}

type refCounts struct{ on, off int }

// refEvidence is the naive §5.2 step 3: per community, the set of
// unique AS paths it was seen on, split by whether its α is on the path.
// It shares no code with the store or the observe walk.
type refEvidence struct {
	classic map[bgp.Community]refCounts
	large   map[bgp.LargeCommunity]refCounts
	asnSeen map[uint32]bool
	orgs    OrgMapper

	// pairs holds, per classic community, the keys of the unique paths
	// it was seen on; paths maps a key to its ASNs, prepending collapsed.
	pairs map[bgp.Community]map[string]bool
	paths map[string][]uint32
}

func referenceObserve(views []refView, vpFilter map[uint32]bool, orgs OrgMapper) refEvidence {
	paths := make(map[string][]uint32) // path key -> ASNs, prepending collapsed
	classic := make(map[bgp.Community]map[string]bool)
	large := make(map[bgp.LargeCommunity]map[string]bool)
	ev := refEvidence{
		pairs:   classic,
		paths:   paths,
		classic: make(map[bgp.Community]refCounts),
		large:   make(map[bgp.LargeCommunity]refCounts),
		asnSeen: make(map[uint32]bool),
		orgs:    orgs,
	}
	for _, v := range views {
		if len(v.path) == 0 || vpFilter != nil && !vpFilter[v.vp] {
			continue
		}
		var collapsed []uint32
		for i, asn := range v.path {
			if i == 0 || asn != v.path[i-1] {
				collapsed = append(collapsed, asn)
			}
			ev.asnSeen[asn] = true
		}
		key := fmt.Sprint(collapsed)
		paths[key] = collapsed
		for _, c := range v.comms {
			if classic[c] == nil {
				classic[c] = make(map[string]bool)
			}
			classic[c][key] = true
		}
		for _, lc := range v.larges {
			if large[lc] == nil {
				large[lc] = make(map[string]bool)
			}
			large[lc][key] = true
		}
	}
	count := func(alpha uint32, on map[string]bool) (rc refCounts) {
		for key := range on {
			if ev.sameAS(alpha, paths[key]) {
				rc.on++
			} else {
				rc.off++
			}
		}
		return rc
	}
	for c, on := range classic {
		ev.classic[c] = count(uint32(c.ASN()), on)
	}
	for lc, on := range large {
		ev.large[lc] = count(lc.GlobalAdmin, on)
	}
	return ev
}

// sameAS reports whether alpha, or a sibling under the org mapper, is
// among asns.
func (ev refEvidence) sameAS(alpha uint32, asns []uint32) bool {
	for _, asn := range asns {
		if asn == alpha {
			return true
		}
		if ev.orgs != nil {
			a, okA := ev.orgs.Org(alpha)
			b, okB := ev.orgs.Org(asn)
			if okA && okB && a == b {
				return true
			}
		}
	}
	return false
}

func (ev refEvidence) alphaOnPath(alpha uint32) bool {
	seen := make([]uint32, 0, len(ev.asnSeen))
	for asn := range ev.asnSeen {
		seen = append(seen, asn)
	}
	return ev.sameAS(alpha, seen)
}

// refUniverse is the small vocabulary random corpora draw from, so paths
// recur under several overlapping community sets and tuples differ only
// in their larges. It includes the keys a sentinel-encoded hash table
// would drop: 0:0, 65535:65535 and VP/ASN 0 and 0xFFFFFFFF.
type refUniverse struct {
	asns   []uint32
	paths  [][]uint32
	comms  []bgp.Community
	larges []bgp.LargeCommunity
}

func newRefUniverse(rng *rand.Rand) refUniverse {
	u := refUniverse{asns: []uint32{0, 0xFFFFFFFF, 65535, 64512}}
	for len(u.asns) < 14 {
		u.asns = append(u.asns, uint32(1+rng.Intn(40)))
	}
	for i := 0; i < 2+rng.Intn(30); i++ {
		var path []uint32
		for hops := 1 + rng.Intn(5); hops > 0; hops-- {
			asn := u.asns[rng.Intn(len(u.asns))]
			path = append(path, asn)
			for rng.Intn(4) == 0 { // prepending
				path = append(path, asn)
			}
		}
		u.paths = append(u.paths, path)
	}
	u.comms = []bgp.Community{bgp.NewCommunity(0, 0), bgp.NewCommunity(65535, 65535)}
	for i := 0; i < 3+rng.Intn(20); i++ {
		alpha := u.asns[rng.Intn(len(u.asns))]
		if rng.Intn(4) == 0 {
			alpha = uint32(rng.Intn(50)) // an α that may never be on a path
		}
		u.comms = append(u.comms, bgp.NewCommunity(uint16(alpha), uint16(rng.Intn(6)*100)))
	}
	u.larges = []bgp.LargeCommunity{{}, {GlobalAdmin: 0xFFFFFFFF, LocalData1: 0xFFFFFFFF, LocalData2: 0xFFFFFFFF}}
	for i := 0; i < rng.Intn(8); i++ {
		u.larges = append(u.larges, bgp.LargeCommunity{
			GlobalAdmin: u.asns[rng.Intn(len(u.asns))],
			LocalData1:  uint32(rng.Intn(2)),
			LocalData2:  uint32(rng.Intn(4)),
		})
	}
	return u
}

// views draws n views; one in eight arrives again from 2–9 vantage
// points, the first of them the path's own first AS (an eBGP peer), the
// rest mostly not.
func (u refUniverse) views(rng *rand.Rand, n int, withLarges bool) []refView {
	views := make([]refView, 0, n)
	for len(views) < n {
		v := refView{vp: u.asns[rng.Intn(len(u.asns))]}
		if rng.Intn(50) > 0 { // the rare view has no usable path
			v.path = u.paths[rng.Intn(len(u.paths))]
		}
		for k := rng.Intn(5); k > 0; k-- {
			v.comms = append(v.comms, u.comms[rng.Intn(len(u.comms))])
		}
		if withLarges {
			for k := rng.Intn(3); k > 0; k-- {
				v.larges = append(v.larges, u.larges[rng.Intn(len(u.larges))])
			}
		}
		views = append(views, v)
		if rng.Intn(8) == 0 && len(v.path) > 0 {
			v.vp = v.path[0]
			views = append(views, v)
			for k := rng.Intn(8); k > 0; k-- {
				v.vp = u.asns[rng.Intn(len(u.asns))]
				views = append(views, v)
			}
		}
	}
	return views[:n]
}

// growVPs returns views that add nine new vantage points to the first
// identity in views seen from several: enough to take its VP list past
// the next power of two whatever its length (2–9) was.
func growVPs(views []refView) []refView {
	vps := make(map[string]map[uint32]bool)
	for _, v := range views {
		if len(v.path) == 0 {
			continue
		}
		id := fmt.Sprint(v.path, v.comms, v.larges)
		if vps[id] == nil {
			vps[id] = make(map[uint32]bool)
		}
		vps[id][v.vp] = true
		if len(vps[id]) < 2 {
			continue
		}
		later := make([]refView, 9)
		for i := range later {
			later[i] = v
			later[i].vp = 0xFFFF0000 + uint32(i)
		}
		return later
	}
	return nil
}

// TestObserveMatchesReference: the observe walk equals the naive
// reference over random small corpora, for a plain insertion-order store
// (grouped by counting sort) and stitched stores (grouped as laid out,
// every other seed with their table hashes forced to collide) at every
// worker count, with and without a VP filter and sibling orgs. The orgs
// reach the walk through Options.Orgs alone, the way every caller passes
// them. Some identities arrive from several vantage points, and one of
// them gains nine more, its list grown past a power of two.
func TestObserveMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := newRefUniverse(rng)
		views := u.views(rng, 1+rng.Intn(400), seed%3 != 0)
		later := growVPs(views)

		orgs := testOrgs{}
		for _, asn := range u.asns {
			if rng.Intn(2) == 0 {
				orgs[asn] = fmt.Sprintf("org%d", rng.Intn(4))
			}
		}
		vpFilter := refVPFilter(rng, u)
		stores := map[string]*TupleStore{"plain": NewTupleStore()}
		for _, v := range append(views, later...) {
			stores["plain"].AddViewLarge(v.vp, v.path, v.comms, v.larges)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			sts := NewShardedTupleStore(1 << rng.Intn(7))
			sts.setCollide(seed%2 == 0)
			for _, v := range append(views, later...) {
				sts.AddViewASPathLarge(v.vp, bgp.NewASPath(v.path...), v.comms, v.larges)
			}
			stores[fmt.Sprintf("stitched/%d", workers)] = stitchChecked(t, fmt.Sprintf("seed %d stitch=%d", seed, workers), sts, workers)
		}
		views = append(views, later...)

		for name, ts := range stores {
			for _, variant := range []struct {
				name string
				opts Options
			}{
				{"full", Options{}},
				{"vpfilter", Options{VPFilter: vpFilter}},
				{"orgs", Options{Orgs: orgs}},
				{"vpfilter+orgs", Options{VPFilter: vpFilter, Orgs: orgs}},
			} {
				want := referenceObserve(views, variant.opts.VPFilter, variant.opts.Orgs)
				for _, workers := range []int{1, 2, 4, 8} {
					got, err := observeWith(context.Background(), ts, variant.opts, workers)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("seed %d %s %s workers=%d", seed, name, variant.name, workers)
					checkAgainstReference(t, label, got, want, u)
				}
			}
		}
	}
}

func checkAgainstReference(t *testing.T, label string, got *ObservationSet, want refEvidence, u refUniverse) {
	t.Helper()
	checkRecords(t, label, got.Stats, want.classic)
	checkRecords(t, label+" large", got.Larges, want.large)
	for alpha := uint32(0); alpha < 50; alpha++ {
		if g, w := got.AlphaOnPath(alpha), want.alphaOnPath(alpha); g != w {
			t.Fatalf("%s: AlphaOnPath(%d) = %v, reference %v", label, alpha, g, w)
		}
	}
	for _, alpha := range u.asns {
		if g, w := got.AlphaOnPath(alpha), want.alphaOnPath(alpha); g != w {
			t.Fatalf("%s: AlphaOnPath(%d) = %v, reference %v", label, alpha, g, w)
		}
	}
}

// checkRecords: the records are strictly in key order — the order
// ClassifyObserved cuts without sorting — and carry exactly the
// reference's communities and counts.
func checkRecords[K Key[K]](t *testing.T, label string, got []Stats[K], want map[K]refCounts) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d communities, reference has %d", label, len(got), len(want))
	}
	for i, g := range got {
		if i > 0 && got[i-1].Comm.Compare(g.Comm) >= 0 {
			t.Fatalf("%s: record %d (%v) does not follow %v in key order", label, i, g.Comm, got[i-1].Comm)
		}
		if w, ok := want[g.Comm]; !ok || g.OnPath != w.on || g.OffPath != w.off {
			t.Fatalf("%s: stats %+v, reference %+v (observed %v)", label, g, w, ok)
		}
	}
}

// distinctASNs is a path's ASNs with every revisit dropped, in
// first-appearance order: the path a visitor of EachPathCommunity sees.
func distinctASNs(path []uint32) []uint32 {
	var out []uint32
	for _, asn := range path {
		if !slices.Contains(out, asn) {
			out = append(out, asn)
		}
	}
	return out
}

// refStores returns a plain insertion-order store and a stitched one
// holding the same views.
func refStores(t *testing.T, label string, views []refView) map[string]*TupleStore {
	plain, sts := NewTupleStore(), NewShardedTupleStore(4)
	for _, v := range views {
		plain.AddViewLarge(v.vp, v.path, v.comms, v.larges)
		sts.AddViewASPathLarge(v.vp, bgp.NewASPath(v.path...), v.comms, v.larges)
	}
	return map[string]*TupleStore{"plain": plain, "stitched": stitchChecked(t, label, sts, 2)}
}

// refVPFilter admits about half the universe's ASNs as vantage points.
func refVPFilter(rng *rand.Rand, u refUniverse) map[uint32]bool {
	filter := make(map[uint32]bool)
	for _, asn := range u.asns {
		if rng.Intn(2) == 0 {
			filter[asn] = true
		}
	}
	return filter
}

// TestEachPathCommunityMatchesReference: the walk visits each unique
// (classic community, path) pair of the naive reference exactly once, on
// a plain and a stitched store, with and without a VP filter. Two
// collapsed paths that differ only in where they revisit an AS share
// their distinct-ASN list, so pairs are counted by that list.
func TestEachPathCommunityMatchesReference(t *testing.T) {
	type pair struct {
		c    bgp.Community
		path string
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := newRefUniverse(rng)
		views := u.views(rng, 1+rng.Intn(400), seed%3 != 0)
		label := fmt.Sprintf("seed %d", seed)
		for _, filter := range []map[uint32]bool{nil, refVPFilter(rng, u)} {
			ref := referenceObserve(views, filter, nil)
			want := make(map[pair]int)
			for c, keys := range ref.pairs {
				for key := range keys {
					want[pair{c, fmt.Sprint(distinctASNs(ref.paths[key]))}]++
				}
			}
			for name, ts := range refStores(t, label, views) {
				got := make(map[pair]int)
				EachPathCommunity(ts, Options{VPFilter: filter}, func(c bgp.Community, path []uint32) {
					got[pair{c, fmt.Sprint(path)}]++
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s filter=%v: visited %v, reference %v", label, name, filter != nil, got, want)
				}
			}
		}
	}
}

// denseWalkCheck observes ts under opts on 1, 2 and 8 workers, requires
// the three sets to be identical, and checks them against the naive
// reference over views: every record is in key order with the
// reference's counts, and none is a rank nobody counted (0/0).
func denseWalkCheck(t *testing.T, label string, ts *TupleStore, views []refView, opts Options) *ObservationSet {
	t.Helper()
	var first *ObservationSet
	for _, workers := range []int{1, 2, 8} {
		got, err := observeWith(context.Background(), ts, opts, workers)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("%s: %d workers observe %+v, one worker %+v", label, workers, got, first)
		}
	}
	for _, r := range first.Stats {
		if r.OnPath+r.OffPath == 0 {
			t.Fatalf("%s: record %v counts no path", label, r.Comm)
		}
	}
	for _, r := range first.Larges {
		if r.OnPath+r.OffPath == 0 {
			t.Fatalf("%s: large record %v counts no path", label, r.Comm)
		}
	}
	want := referenceObserve(views, opts.VPFilter, opts.Orgs)
	checkRecords(t, label, first.Stats, want.classic)
	checkRecords(t, label+" large", first.Larges, want.large)
	return first
}

// TestDenseWalkWideArena: the walk resolves group ordinals of every
// width across a wide flat group arena. 9 000 distinct eight-community
// groups, 900 large ones and 13 two-community ones take ordinals past
// 8192, so tuples refer to groups by one-, two- and three-byte refs, and
// many groups lie past word 1<<16; the store's first path is one hop, so
// its ID is 0, which a rank's last path must not start at.
func TestDenseWalkWideArena(t *testing.T) {
	var views []refView
	views = append(views, refView{vp: 7, path: []uint32{7}, comms: bgp.Communities{bgp.NewCommunity(7, 1)}})
	for i := 0; i < 9000; i++ {
		v := refView{
			vp:    uint32(1 + i%97),
			path:  []uint32{uint32(1 + i%97), uint32(200 + i%13), uint32(5000 + i%7)},
			comms: bgp.Communities{bgp.NewCommunity(uint16(200+i%13), 1)},
		}
		for k := 0; k < 8; k++ {
			v.comms = append(v.comms, bgp.NewCommunity(uint16(1+i%60), uint16(8*i+k)))
		}
		if i%10 == 0 {
			v.larges = bgp.LargeCommunities{{GlobalAdmin: uint32(5000 + i%7), LocalData1: uint32(i), LocalData2: 3}}
		}
		views = append(views, v)
	}
	views = append(views, refView{vp: 8, path: []uint32{8, 7}, comms: bgp.Communities{bgp.NewCommunity(7, 1)}})
	plain, sts := NewTupleStore(), NewShardedTupleStore(4)
	for _, v := range views {
		plain.AddViewLarge(v.vp, v.path, v.comms, v.larges)
		sts.AddViewASPathLarge(v.vp, bgp.NewASPath(v.path...), v.comms, v.larges)
	}
	if plain.tuples[0].PathID != 0 {
		t.Fatalf("the plain store's first tuple is on path %d, want 0", plain.tuples[0].PathID)
	}
	for name, ts := range map[string]*TupleStore{"plain": plain, "stitched": stitchChecked(t, "wide", sts, 2)} {
		var widths [4]int // refs by byte width
		deep := 0
		for i := range ts.tuples {
			for _, ord := range groupOrds(ts, &ts.tuples[i]) {
				widths[len(appendGroupRef(nil, ord, false))]++
				if ts.groups.at[ord] >= 1<<16 {
					deep++
				}
			}
		}
		if widths[1] == 0 || widths[2] == 0 || widths[3] == 0 || deep == 0 {
			t.Fatalf("%s: over %d groups in %d words, tuples refer by %d one-, %d two- and %d three-byte refs, %d past word 1<<16",
				name, len(ts.groups.at), len(ts.groups.arena), widths[1], widths[2], widths[3], deep)
		}
		os := denseWalkCheck(t, name, ts, views, Options{})
		if i, ok := slices.BinarySearchFunc(os.Stats, bgp.NewCommunity(7, 1), func(r Stats[bgp.Community], c bgp.Community) int {
			return r.Comm.Compare(c)
		}); !ok || os.Stats[i].OnPath != 2 {
			t.Fatalf("%s: 7:1 is not on its two paths, path 0 included: %+v", name, os.Stats[i])
		}
		denseWalkCheck(t, name+" vpfilter", ts, views, Options{VPFilter: map[uint32]bool{1: true, 8: true, 50: true}})
	}
}

// TestDenseWalkUnvisitedGroups: a VP filter that leaves stored groups
// unvisited — 20:2 and the large 20:1:1 are carried only by a view the
// filter drops — leaves their ranks uncounted, and an uncounted rank is
// no record.
func TestDenseWalkUnvisitedGroups(t *testing.T) {
	views := []refView{
		{vp: 10, path: []uint32{10, 20}, comms: bgp.Communities{bgp.NewCommunity(20, 1)}},
		{vp: 11, path: []uint32{11, 20}, comms: bgp.Communities{bgp.NewCommunity(20, 2), bgp.NewCommunity(30, 5)},
			larges: bgp.LargeCommunities{{GlobalAdmin: 20, LocalData1: 1, LocalData2: 1}}},
		{vp: 10, path: []uint32{10, 30}, comms: bgp.Communities{bgp.NewCommunity(30, 5)}},
	}
	for name, ts := range refStores(t, "unvisited", views) {
		os := denseWalkCheck(t, name, ts, views, Options{VPFilter: map[uint32]bool{10: true}})
		if len(os.Stats) != 2 || os.Larges == nil || len(os.Larges) != 0 {
			t.Fatalf("%s: filtered walk gives %+v and larges %+v, want 20:1 and 30:5 and no large record", name, os.Stats, os.Larges)
		}
	}
}

// TestDenseWalkLargeOnlyAndEmptySets: tuples whose sets hold only large
// communities, or nothing at all, count into the large ranks alone, or
// into none; a store of empty sets observes no record of either kind.
func TestDenseWalkLargeOnlyAndEmptySets(t *testing.T) {
	large := func(ga, ld1, ld2 uint32) bgp.LargeCommunity {
		return bgp.LargeCommunity{GlobalAdmin: ga, LocalData1: ld1, LocalData2: ld2}
	}
	largeOnly := []refView{
		{vp: 1, path: []uint32{1, 2, 3}, larges: bgp.LargeCommunities{large(3, 0, 1), large(2, 9, 9)}},
		{vp: 4, path: []uint32{4, 3}, larges: bgp.LargeCommunities{large(3, 0, 1)}},
		{vp: 4, path: []uint32{4, 3}},
		{vp: 5, path: []uint32{5, 6}, larges: bgp.LargeCommunities{large(0xFFFFFFFF, 0, 0), large(0, 0, 0)}},
	}
	empty := []refView{{vp: 1, path: []uint32{1, 2}}, {vp: 3, path: []uint32{3}}}
	for name, ts := range refStores(t, "large-only", largeOnly) {
		os := denseWalkCheck(t, "large-only "+name, ts, largeOnly, Options{})
		if len(os.Stats) != 0 || len(os.Larges) != 4 {
			t.Fatalf("large-only %s: %d classic and %d large records, want 0 and 4", name, len(os.Stats), len(os.Larges))
		}
	}
	for name, ts := range refStores(t, "empty", empty) {
		os := denseWalkCheck(t, "empty "+name, ts, empty, Options{})
		if os.Stats == nil || len(os.Stats) != 0 || os.Larges != nil {
			t.Fatalf("empty %s: records %+v and larges %+v, want none and nil", name, os.Stats, os.Larges)
		}
	}
}

// referenceCustomerPeer is the §5.1 customer:peer feature over raw
// views: per community, each unique collapsed path on which α has a
// neighbour — the next AS after α's first appearance that the path has
// not visited before — counts once, as a customer or a peer of α.
func referenceCustomerPeer(views []refView, vpFilter map[uint32]bool, rels RelLookup) map[bgp.Community]CustPeerStats {
	pairs := make(map[bgp.Community]map[string][]uint32)
	for _, v := range views {
		if len(v.path) == 0 || vpFilter != nil && !vpFilter[v.vp] {
			continue
		}
		var collapsed []uint32
		for i, asn := range v.path {
			if i == 0 || asn != v.path[i-1] {
				collapsed = append(collapsed, asn)
			}
		}
		for _, c := range v.comms {
			if pairs[c] == nil {
				pairs[c] = make(map[string][]uint32)
			}
			pairs[c][fmt.Sprint(collapsed)] = collapsed
		}
	}
	out := make(map[bgp.Community]CustPeerStats)
	for c, paths := range pairs {
		alpha := uint32(c.ASN())
		st := CustPeerStats{Comm: c}
		for _, path := range paths {
			i := slices.Index(path, alpha)
			if i < 0 {
				continue
			}
			for j := i + 1; j < len(path); j++ {
				if next := path[j]; !slices.Contains(path[:j], next) {
					if rels.IsCustomerOf(next, alpha) {
						st.Customer++
					} else if rels.IsPeer(next, alpha) {
						st.Peer++
					}
					break
				}
			}
		}
		if st.Customer+st.Peer > 0 {
			out[c] = st
		}
	}
	return out
}

// TestCustomerPeerMatchesReference: CustomerPeer equals the naive
// customer:peer count over random corpora and random relationship
// graphs, on a plain and a stitched store, with and without a VP filter.
func TestCustomerPeerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := newRefUniverse(rng)
		views := u.views(rng, 1+rng.Intn(400), seed%3 != 0)
		rels := asrel.NewGraph()
		for _, a := range u.asns {
			for _, b := range u.asns {
				switch rng.Intn(6) {
				case 0:
					rels.SetP2C(a, b)
				case 1:
					rels.SetP2P(a, b)
				}
			}
		}
		label := fmt.Sprintf("seed %d", seed)
		for _, filter := range []map[uint32]bool{nil, refVPFilter(rng, u)} {
			want := referenceCustomerPeer(views, filter, rels)
			for name, ts := range refStores(t, label, views) {
				got := CustomerPeer(ts, Options{VPFilter: filter}, rels)
				if len(got) != len(want) {
					t.Fatalf("%s %s filter=%v: %d communities, reference has %d", label, name, filter != nil, len(got), len(want))
				}
				for c, w := range want {
					if g := got[c]; g == nil || *g != w {
						t.Fatalf("%s %s filter=%v: %v = %+v, reference %+v", label, name, filter != nil, c, g, w)
					}
				}
			}
		}
	}
}

// refKey is a community of either kind reduced to what §5.2 steps 2, 4
// and 5 look at: the signalling AS, the function selector (0 for classic
// communities) and the value.
type refKey struct{ alpha, fn, val uint32 }

type refCluster struct {
	lo, hi  refKey // first and last member
	members int
	label   dict.Category
}

// refInference is the naive §5.2 steps 2, 4 and 5 over reference
// evidence: sort the keys, cut a group where (α, fn) changes, drop the
// groups of a private or never-on-path α, cut a cluster where the value
// gap exceeds MinGap, and label each cluster by the decision rule. It
// shares no code with the classifier.
type refInference struct {
	clusters []refCluster
	labels   map[refKey]dict.Category
	excluded map[refKey]ExcludeReason
}

func referenceClassify(counts map[refKey]refCounts, private, onPath func(alpha uint32) bool, opts Options) refInference {
	keys := make([]refKey, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.alpha != b.alpha {
			return a.alpha < b.alpha
		}
		if a.fn != b.fn {
			return a.fn < b.fn
		}
		return a.val < b.val
	})
	inf := refInference{labels: map[refKey]dict.Category{}, excluded: map[refKey]ExcludeReason{}}
	label := func(members []refKey) dict.Category {
		var on, off int
		var ratios float64
		for _, k := range members {
			c := counts[k]
			on, off = on+c.on, off+c.off
			ratios += float64(c.on) / math.Max(float64(c.off), 1)
		}
		ratio := ratios / float64(len(members))
		if opts.PooledRatio {
			ratio = float64(on) / math.Max(float64(off), 1)
		}
		if off == 0 || on != 0 && ratio >= opts.RatioThreshold {
			return dict.CatInformation
		}
		return dict.CatAction
	}
	for start := 0; start < len(keys); {
		end := start + 1
		for end < len(keys) && keys[end].alpha == keys[start].alpha && keys[end].fn == keys[start].fn &&
			int64(keys[end].val)-int64(keys[end-1].val) <= int64(opts.MinGap) {
			end++
		}
		members := keys[start:end]
		start = end
		var reason ExcludeReason
		if alpha := members[0].alpha; opts.DisableExclusions {
		} else if private(alpha) {
			reason = ExcludePrivateASN
		} else if !onPath(alpha) {
			reason = ExcludeNeverOnPath
		}
		if reason != ExcludeNone {
			for _, k := range members {
				inf.excluded[k] = reason
			}
			continue
		}
		cl := refCluster{lo: members[0], hi: members[len(members)-1], members: len(members), label: label(members)}
		inf.clusters = append(inf.clusters, cl)
		for _, k := range members {
			inf.labels[k] = cl.label
		}
	}
	return inf
}

// checkClassified compares one kind's classifier output with the
// reference, cluster for cluster.
func checkClassified[K Key[K]](t *testing.T, label string, got *kindView[K], want refInference) {
	t.Helper()
	ref := func(k K) refKey { return refKey{k.Admin(), k.Fn(), k.Local()} }
	if got.ClusterCount() != len(want.clusters) {
		t.Fatalf("%s: %d clusters, reference has %d", label, got.ClusterCount(), len(want.clusters))
	}
	members := mappedMembers(got)
	for i, w := range want.clusters {
		g, ms := got.ClusterSummaryAt(i), members(i)
		if (refKey{g.Alpha, g.Fn, g.Lo}) != w.lo || (refKey{g.Alpha, g.Fn, g.Hi}) != w.hi ||
			g.Size != w.members || len(ms) != w.members || g.Label != w.label ||
			ref(ms[0].Comm) != w.lo || ref(ms[len(ms)-1].Comm) != w.hi {
			t.Fatalf("%s: cluster %d = %+v, reference %+v", label, i, g, w)
		}
	}
	labels, excluded := labelsOf(got), excludedOf(got)
	if len(labels) != len(want.labels) || len(excluded) != len(want.excluded) || got.Observed() != len(want.labels)+len(want.excluded) {
		t.Fatalf("%s: %d labels, %d exclusions, %d observed; reference has %d and %d",
			label, len(labels), len(excluded), got.Observed(), len(want.labels), len(want.excluded))
	}
	for k, cat := range labels {
		if w, ok := want.labels[ref(k)]; !ok || w != cat {
			t.Fatalf("%s: label[%v] = %v, reference %v (present=%v)", label, k, cat, w, ok)
		}
	}
	for k, reason := range excluded {
		if w, ok := want.excluded[ref(k)]; !ok || w != reason {
			t.Fatalf("%s: excluded[%v] = %v, reference %v (present=%v)", label, k, reason, w, ok)
		}
	}
}

// TestClassifyMatchesReference: clustering, exclusion and labelling of
// both kinds of key equal the naive reference over random corpora with
// many (α, fn) groups, at every worker count, across gap and threshold
// settings and both ablations.
func TestClassifyMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := newRefUniverse(rng)
		for i := 0; i < 150; i++ { // many more signalling ASes, mostly off every path
			alpha := uint32(1 + rng.Intn(120))
			u.comms = append(u.comms, bgp.NewCommunity(uint16(alpha), uint16(rng.Intn(8)*70)))
			u.larges = append(u.larges, bgp.LargeCommunity{GlobalAdmin: alpha, LocalData1: uint32(rng.Intn(3)), LocalData2: uint32(rng.Intn(8) * 70)})
		}
		u.larges = append(u.larges, bgp.LargeCommunity{GlobalAdmin: 4200000001, LocalData1: 1, LocalData2: 1})
		views := u.views(rng, 200+rng.Intn(600), true)
		ts := NewTupleStore()
		for _, v := range views {
			ts.AddViewLarge(v.vp, v.path, v.comms, v.larges)
		}
		ev := referenceObserve(views, nil, nil)
		classic, large := map[refKey]refCounts{}, map[refKey]refCounts{}
		for c, rc := range ev.classic {
			classic[refKey{uint32(c.ASN()), 0, uint32(c.Value())}] = rc
		}
		for lc, rc := range ev.large {
			large[refKey{lc.GlobalAdmin, lc.LocalData1, lc.LocalData2}] = rc
		}
		private16 := func(alpha uint32) bool { return alpha >= 64512 }
		private32 := func(alpha uint32) bool { return alpha >= 64512 && alpha <= 65535 || alpha >= 4200000000 }

		os := Observe(ts, Options{Workers: 1})
		for _, opts := range []Options{
			{MinGap: 140, RatioThreshold: 160},
			{MinGap: 0, RatioThreshold: 1.5},
			{MinGap: 69, RatioThreshold: 2},
			{MinGap: 70, RatioThreshold: 2, PooledRatio: true},
			{MinGap: 1000, RatioThreshold: 1, DisableExclusions: true},
		} {
			wantClassic := referenceClassify(classic, private16, ev.alphaOnPath, opts)
			wantLarge := referenceClassify(large, private32, ev.alphaOnPath, opts)
			for _, workers := range []int{1, 2, 8} {
				opts.Workers = workers
				inf := ClassifyObserved(os, opts)
				label := fmt.Sprintf("seed %d %+v", seed, opts)
				checkClassified(t, label+" classic", &inf.kindView, wantClassic)
				checkClassified(t, label+" large", &inf.large, wantLarge)
			}
		}
	}
}

// TestMirroredCorpusClassifiesAlike is the metamorphic property the one
// key path promises: mirror every classic α:β as the large α:7:β on the
// same views and the large clusters, labels and exclusions are the
// classic ones, cluster for cluster.
func TestMirroredCorpusClassifiesAlike(t *testing.T) {
	mirror := func(c bgp.Community) bgp.LargeCommunity {
		return bgp.LargeCommunity{GlobalAdmin: uint32(c.ASN()), LocalData1: 7, LocalData2: uint32(c.Value())}
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := newRefUniverse(rng)
		ts := NewTupleStore()
		for _, v := range u.views(rng, 1+rng.Intn(400), false) {
			var larges bgp.LargeCommunities
			for _, c := range v.comms {
				larges = append(larges, mirror(c))
			}
			ts.AddViewLarge(v.vp, v.path, v.comms, larges)
		}
		inf := Classify(ts, Options{MinGap: 140, RatioThreshold: 2, Workers: 1 + int(seed%3)})
		labels, excluded := labelsOf(inf), excludedOf(&inf.kindView)
		largeLabels, largeExcluded := labelsOf(inf.Large()), excludedOf(&inf.large)
		if inf.large.ClusterCount() != inf.ClusterCount() || len(largeLabels) != len(labels) ||
			len(largeExcluded) != len(excluded) {
			t.Fatalf("seed %d: large %d clusters/%d labels/%d exclusions, classic %d/%d/%d", seed,
				inf.large.ClusterCount(), len(largeLabels), len(largeExcluded),
				inf.ClusterCount(), len(labels), len(excluded))
		}
		classicMembers, largeMembers := mappedMembers(&inf.kindView), mappedMembers(&inf.large)
		for i := 0; i < inf.ClusterCount(); i++ {
			want := inf.ClusterSummaryAt(i)
			want.Fn = 7
			var wantMembers []Stats[bgp.LargeCommunity]
			for _, m := range classicMembers(i) {
				wantMembers = append(wantMembers, Stats[bgp.LargeCommunity]{Comm: mirror(m.Comm), OnPath: m.OnPath, OffPath: m.OffPath})
			}
			if l, lm := inf.large.ClusterSummaryAt(i), largeMembers(i); l != want || !reflect.DeepEqual(lm, wantMembers) {
				t.Fatalf("seed %d: large cluster %d = %+v %v, classic mirrored %+v %v", seed, i, l, lm, want, wantMembers)
			}
		}
		for c, cat := range labels {
			if got := largeLabels[mirror(c)]; got != cat {
				t.Fatalf("seed %d: %v labeled %v, its mirror %v", seed, c, cat, got)
			}
		}
		for c, reason := range excluded {
			if got := largeExcluded[mirror(c)]; got != reason {
				t.Fatalf("seed %d: %v excluded %v, its mirror %v", seed, c, reason, got)
			}
			if a, b := inf.Verdict(c), inf.large.Verdict(mirror(c)); a.Stats.OnPath != b.Stats.OnPath || a.Stats.OffPath != b.Stats.OffPath {
				t.Fatalf("seed %d: excluded %v evidence %+v, its mirror %+v", seed, c, a.Stats, b.Stats)
			}
		}
	}
}

package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bgpintent/internal/bgp"
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
}

func referenceObserve(views []refView, vpFilter map[uint32]bool, orgs OrgMapper, dirty map[uint16]bool) refEvidence {
	paths := make(map[string][]uint32) // path key -> ASNs, prepending collapsed
	classic := make(map[bgp.Community]map[string]bool)
	large := make(map[bgp.LargeCommunity]map[string]bool)
	ev := refEvidence{
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
			if dirty != nil && !dirty[c.ASN()] {
				continue
			}
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
	if dirty == nil { // the delta path does not observe larges
		for lc, on := range large {
			ev.large[lc] = count(lc.GlobalAdmin, on)
		}
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

func (u refUniverse) views(rng *rand.Rand, n int, withLarges bool) []refView {
	views := make([]refView, n)
	for i := range views {
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
		views[i] = v
	}
	return views
}

// TestObserveMatchesReference: the observe walk equals the naive
// reference over random small corpora, for a plain insertion-order store
// (grouped by counting sort) and stitched stores (grouped as laid out)
// at every worker count, with and without a VP filter, sibling orgs and
// a dirty-α restriction.
func TestObserveMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := newRefUniverse(rng)
		views := u.views(rng, 1+rng.Intn(400), seed%3 != 0)

		orgs := testOrgs{}
		for _, asn := range u.asns {
			if rng.Intn(2) == 0 {
				orgs[asn] = fmt.Sprintf("org%d", rng.Intn(4))
			}
		}
		vpFilter := make(map[uint32]bool)
		for _, asn := range u.asns {
			if rng.Intn(2) == 0 {
				vpFilter[asn] = true
			}
		}
		dirty := make(map[uint16]bool)
		for _, c := range u.comms {
			if rng.Intn(3) == 0 {
				dirty[c.ASN()] = true
			}
		}

		stores := map[string]*TupleStore{"plain": NewTupleStore()}
		for _, v := range views {
			stores["plain"].AddViewLarge(v.vp, v.path, v.comms, v.larges)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			sts := NewShardedTupleStore(1 << rng.Intn(7))
			for _, v := range views {
				sts.AddViewLarge(v.vp, v.path, v.comms, v.larges)
			}
			stores[fmt.Sprintf("stitched/%d", workers)] = sts.Stitch(workers)
		}

		for name, ts := range stores {
			ts.AnnotateOrgs(orgs)
			for _, variant := range []struct {
				name  string
				opts  Options
				dirty map[uint16]bool
			}{
				{"full", Options{}, nil},
				{"vpfilter", Options{VPFilter: vpFilter}, nil},
				{"orgs", Options{Orgs: orgs}, nil},
				{"dirty", Options{}, dirty},
				{"vpfilter+orgs+dirty", Options{VPFilter: vpFilter, Orgs: orgs}, dirty},
			} {
				want := referenceObserve(views, variant.opts.VPFilter, variant.opts.Orgs, variant.dirty)
				for _, workers := range []int{1, 2, 4, 8} {
					got, err := observeWith(context.Background(), ts, variant.opts, variant.dirty, workers)
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
	if len(got.Stats) != len(want.classic) {
		t.Fatalf("%s: %d communities, reference has %d", label, len(got.Stats), len(want.classic))
	}
	for c, w := range want.classic {
		g := got.Stats[c]
		if g == nil || g.Comm != c || g.OnPath != w.on || g.OffPath != w.off {
			t.Fatalf("%s: stats[%v] = %+v, reference %+v", label, c, g, w)
		}
	}
	if len(got.LargeStats) != len(want.large) {
		t.Fatalf("%s: %d large communities, reference has %d", label, len(got.LargeStats), len(want.large))
	}
	for lc, w := range want.large {
		g := got.LargeStats[lc]
		if g == nil || g.Comm != lc || g.OnPath != w.on || g.OffPath != w.off {
			t.Fatalf("%s: large stats[%v] = %+v, reference %+v", label, lc, g, w)
		}
	}
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

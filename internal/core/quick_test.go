package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"bgpintent/internal/bgp"
)

// TestClusterIndexesQuick: for random sorted β lists and gaps, the
// clustering must partition the list into contiguous, ordered segments
// whose internal adjacent gaps are <= gap and whose boundary gaps are
// > gap.
func TestClusterIndexesQuick(t *testing.T) {
	f := func(raw []uint16, gap uint8) bool {
		betas := append([]uint16(nil), raw...)
		sort.Slice(betas, func(i, j int) bool { return betas[i] < betas[j] })
		// clusterIndexes expects deduplicated input like Classify builds.
		betas = dedupU16(betas)
		g := int(gap)
		idx := clusterIndexes(betas, g)
		if len(betas) == 0 {
			return len(idx) == 0
		}
		// Partition: contiguous cover of [0, len).
		pos := 0
		for _, pair := range idx {
			if pair[0] != pos || pair[1] <= pair[0] {
				return false
			}
			pos = pair[1]
		}
		if pos != len(betas) {
			return false
		}
		// Gap property.
		for _, pair := range idx {
			for i := pair[0] + 1; i < pair[1]; i++ {
				if int(betas[i])-int(betas[i-1]) > g {
					return false
				}
			}
		}
		for k := 1; k < len(idx); k++ {
			lo := betas[idx[k][0]]
			hi := betas[idx[k-1][1]-1]
			if int(lo)-int(hi) <= g {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func dedupU16(v []uint16) []uint16 {
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// TestTupleStoreQuick: adding random views never loses communities, and
// tuple count is bounded by view count.
func TestTupleStoreQuick(t *testing.T) {
	f := func(seeds []uint32) bool {
		ts := NewTupleStore()
		views := 0
		want := make(map[bgp.Community]bool)
		for _, s := range seeds {
			vp := 1 + s%7
			path := []uint32{vp, 100 + s%5, 1000 + s%13}
			comm := bgp.NewCommunity(uint16(100+s%5), uint16(s%50))
			ts.AddView(vp, path, bgp.Communities{comm})
			want[comm] = true
			views++
		}
		if ts.Len() > views {
			return false
		}
		got := make(map[bgp.Community]bool)
		for _, c := range ts.Communities() {
			got[c] = true
		}
		if len(got) != len(want) {
			return false
		}
		for c := range want {
			if !got[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// oracleStore is a deliberately naive map-based tuple store — the shape
// the columnar TupleStore replaced — retained as a reference model:
// path key -> canonical set key -> VP set.
type oracleStore struct {
	tuples map[string]map[string]map[uint32]bool // pathKey -> setKey -> VPs
	paths  map[string][]uint32                   // pathKey -> distinct ASNs
}

func newOracleStore() *oracleStore {
	return &oracleStore{
		tuples: make(map[string]map[string]map[uint32]bool),
		paths:  make(map[string][]uint32),
	}
}

func (o *oracleStore) addView(vp uint32, path []uint32, comms bgp.Communities, larges bgp.LargeCommunities) {
	if len(path) == 0 {
		return
	}
	key := fmt.Sprint(refCollapse(path))
	if _, ok := o.paths[key]; !ok {
		var distinct []uint32
		for _, asn := range path {
			if !containsASN(distinct, asn) {
				distinct = append(distinct, asn)
			}
		}
		o.paths[key] = distinct
	}
	ck := setKey(comms.Canonical(), larges.Canonical())
	byComms := o.tuples[key]
	if byComms == nil {
		byComms = make(map[string]map[uint32]bool)
		o.tuples[key] = byComms
	}
	vps := byComms[ck]
	if vps == nil {
		vps = make(map[uint32]bool)
		byComms[ck] = vps
	}
	vps[vp] = true
}

// setKey renders canonical communities and large communities as one
// string, sharing no code with the store's set records.
func setKey(comms bgp.Communities, larges bgp.LargeCommunities) string {
	return fmt.Sprint([]bgp.Community(comms), "|", []bgp.LargeCommunity(larges))
}

// quickViews derives a small view stream from quick's seeds: overlapping
// paths and sets so dedup, VP merge and canonicalization all fire;
// prepended paths; classic-only, large-only, mixed and empty sets; a
// vantage point that is the path's first AS or not; and one in three
// seeds seen again from 2–9 further vantage points.
func quickViews(seeds []uint32) []refView {
	var views []refView
	for _, s := range seeds {
		vp := 1 + s%5
		v := refView{vp: vp, path: []uint32{vp, 100 + s%3, 100 + s%3, 200 + s%7}} // prepend collapses
		if s%7 == 0 {
			v.path[0] = 50
		}
		for i := uint32(0); i < s%4 && s%4 != 1; i++ {
			v.comms = append(v.comms, bgp.NewCommunity(uint16(100+s%3), uint16((s+i)%9)))
		}
		if s%4 == 1 || s%4 == 3 {
			v.larges = bgp.LargeCommunities{{GlobalAdmin: 100 + s%3, LocalData1: s % 2, LocalData2: s % 5}}
		}
		views = append(views, v)
		if s%3 == 0 {
			for k := 2 + s%8; k > 0; k-- {
				v.vp = 300 + k
				views = append(views, v)
			}
		}
	}
	return views
}

// TestColumnarMatchesOracleQuick: on random corpora a NewTupleStore and
// a stitched sharded store, both with seeded or with colliding hashes,
// hold exactly the oracle's logical content — same tuple set, same
// per-tuple VP sets, same interned paths — before and after later views
// (in a stitched store, before its Stitch) take a multi-VP list past a
// power of two. This
// pins the arena bookkeeping (inline and arena VP lists, VP growth, set
// records, path interning) to a model too simple to share its bugs.
func TestColumnarMatchesOracleQuick(t *testing.T) {
	matches := func(ts *TupleStore, oracle *oracleStore) bool {
		if ts.Len() != countOracleTuples(oracle) || ts.PathCount() != len(oracle.paths) {
			return false
		}
		tuples := ts.Tuples()
		for i := range tuples {
			tu := &tuples[i]
			key := fmt.Sprint(ts.pathKey(tu.PathID))
			if !slices.Equal(ts.Path(tu.PathID).ASNs, oracle.paths[key]) {
				return false
			}
			wantVPs := oracle.tuples[key][setKey(tupleCommunities(ts, tu))]
			gotVPs := ts.TupleVPs(i)
			if len(gotVPs) != len(wantVPs) || !slices.IsSorted(gotVPs) {
				return false
			}
			for _, vp := range gotVPs {
				if !wantVPs[vp] {
					return false
				}
			}
		}
		return true
	}
	f := func(seeds []uint32, collide bool) bool {
		views := quickViews(seeds)
		later := growVPs(views)
		plain := NewTupleStore()
		plain.hash.collide = collide
		stitched := func(label string, views []refView) *TupleStore {
			sts := NewShardedTupleStore(4)
			sts.setCollide(collide)
			for _, v := range views {
				sts.AddViewASPathLarge(v.vp, bgp.NewASPath(v.path...), v.comms, v.larges)
			}
			return stitchChecked(t, label, sts, 2)
		}
		oracle := newOracleStore()
		for _, v := range views {
			plain.AddViewLarge(v.vp, v.path, v.comms, v.larges)
			oracle.addView(v.vp, v.path, v.comms, v.larges)
		}
		if !matches(plain, oracle) || !matches(stitched("quick", views), oracle) {
			return false
		}
		for _, v := range later {
			plain.AddViewLarge(v.vp, v.path, v.comms, v.larges)
			oracle.addView(v.vp, v.path, v.comms, v.larges)
		}
		return matches(plain, oracle) && matches(stitched("quick grown", append(views, later...)), oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func countOracleTuples(o *oracleStore) int {
	n := 0
	for _, byComms := range o.tuples {
		n += len(byComms)
	}
	return n
}

// TestCommunityStatsRatioQuick: the ratio is finite, non-negative and
// monotone in OnPath.
func TestCommunityStatsRatioQuick(t *testing.T) {
	f := func(on, off uint16) bool {
		a := Stats[bgp.Community]{OnPath: int(on), OffPath: int(off)}
		b := Stats[bgp.Community]{OnPath: int(on) + 1, OffPath: int(off)}
		if a.Ratio() < 0 {
			return false
		}
		return b.Ratio() > a.Ratio()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestClassifyLabelsSubsetOfObserved: every label refers to an observed
// community and no community is both labeled and excluded.
func TestClassifyLabelsSubsetOfObserved(t *testing.T) {
	ts := buildSyntheticStore()
	inf := Classify(ts, DefaultOptions())
	observed := make(map[bgp.Community]bool)
	for _, c := range ts.Communities() {
		observed[c] = true
	}
	labels, excluded := labelsOf(inf), excludedOf(&inf.kindView)
	for c := range labels {
		if !observed[c] {
			t.Fatalf("label for unobserved community %v", c)
		}
		if _, dual := excluded[c]; dual {
			t.Fatalf("%v both labeled and excluded", c)
		}
	}
	for c := range excluded {
		if !observed[c] {
			t.Fatalf("exclusion for unobserved community %v", c)
		}
	}
	if len(labels)+len(excluded) != len(observed) {
		t.Fatalf("labels(%d)+excluded(%d) != observed(%d)",
			len(labels), len(excluded), len(observed))
	}
}

// TestClusterMembersMatchLabels: each cluster's members carry the
// cluster's label in the final map.
func TestClusterMembersMatchLabels(t *testing.T) {
	ts := buildSyntheticStore()
	inf := Classify(ts, DefaultOptions())
	members := mappedMembers(&inf.kindView)
	for i, cl := range summaries(inf) {
		if cl.Lo > cl.Hi {
			t.Fatalf("inverted cluster %+v", cl)
		}
		for _, m := range members(i) {
			if m.Comm.Admin() != cl.Alpha {
				t.Fatalf("cluster %d has member %v", cl.Alpha, m.Comm)
			}
			if v := m.Comm.Local(); v < cl.Lo || v > cl.Hi {
				t.Fatalf("member %v outside cluster [%d,%d]", m.Comm, cl.Lo, cl.Hi)
			}
			if inf.Category(m.Comm) != cl.Label {
				t.Fatalf("member %v label %v != cluster label %v", m.Comm, inf.Category(m.Comm), cl.Label)
			}
		}
	}
}

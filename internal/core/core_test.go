package core

import (
	"fmt"
	"slices"
	"testing"

	"bgpintent/internal/asrel"
	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
	"bgpintent/internal/simulate"
	"bgpintent/internal/topology"
)

func c(asn, val uint16) bgp.Community { return bgp.NewCommunity(asn, val) }

func TestTupleStoreDedup(t *testing.T) {
	ts := NewTupleStore()
	path := []uint32{65269, 7018, 1299, 64496}
	comms := bgp.Communities{c(1299, 2569), c(1299, 100)}

	ts.AddView(65269, path, comms)
	ts.AddView(65269, path, bgp.Communities{c(1299, 100), c(1299, 2569)}) // same, reordered
	if ts.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ts.Len())
	}
	ts.AddView(65270, path, comms) // same tuple from a second VP
	if ts.Len() != 1 {
		t.Fatalf("Len after second VP = %d, want 1", ts.Len())
	}
	if vps := ts.TupleVPs(0); len(vps) != 2 || vps[0] != 65269 || vps[1] != 65270 {
		t.Errorf("VPs = %v", vps)
	}
	// Different communities: a new tuple, same interned path.
	ts.AddView(65269, path, bgp.Communities{c(1299, 2569)})
	if ts.Len() != 2 || ts.PathCount() != 1 {
		t.Errorf("Len = %d PathCount = %d", ts.Len(), ts.PathCount())
	}
	// Prepending collapses into the same path.
	ts.AddView(65269, []uint32{65269, 7018, 7018, 7018, 1299, 64496}, comms)
	if ts.PathCount() != 1 {
		t.Errorf("PathCount after prepended variant = %d, want 1", ts.PathCount())
	}
	// Empty paths are ignored.
	ts.AddView(1, nil, comms)
	if ts.Len() != 2 {
		t.Errorf("empty path added a tuple")
	}
}

func TestTupleStoreAccessors(t *testing.T) {
	ts := NewTupleStore()
	ts.AddView(10, []uint32{10, 20, 30}, bgp.Communities{c(20, 5)})
	ts.AddView(11, []uint32{11, 20, 30}, bgp.Communities{c(20, 5), c(30, 7)})
	if got := ts.VPSet(); len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Errorf("VPSet = %v", got)
	}
	if got := ts.Communities(); len(got) != 2 || got[0] != c(20, 5) || got[1] != c(30, 7) {
		t.Errorf("Communities = %v", got)
	}
}

// TestDistinctVPsCountWhatTuplesCarry: a tuple's vantage point is its
// path's first ASN only while the tuple has no VP list, and a view from
// another VP starts a list without the first ASN. So the distinct count
// takes a path's first ASN only from a tuple that carries it, however
// the filter in front of its probes is keyed (257 and 513 share a low
// byte with 1, which no tuple carries until the last view), in a
// NewTupleStore and stitched.
func TestDistinctVPsCountWhatTuplesCarry(t *testing.T) {
	type view struct {
		vp    uint32
		path  []uint32
		comms bgp.Communities
	}
	views := []view{
		{9, []uint32{1, 2, 3}, bgp.Communities{c(2, 1)}},
		{9, []uint32{1, 2, 3}, bgp.Communities{c(2, 2)}},
		{5, []uint32{5, 6}, bgp.Communities{c(5, 1)}},
		{257, []uint32{257, 6}, nil},
		{513, []uint32{513, 7}, nil},
		{257, []uint32{257, 8}, nil},
		{3, []uint32{1, 2, 4}, bgp.Communities{c(2, 1)}},
	}
	last := view{1, []uint32{1, 2, 3}, bgp.Communities{c(2, 1)}}
	plain, sts := NewTupleStore(), NewShardedTupleStore(4)
	for _, v := range views {
		plain.AddView(v.vp, v.path, v.comms)
		sts.AddViewASPathLarge(v.vp, bgp.NewASPath(v.path...), v.comms, nil)
	}
	want := []uint32{3, 5, 9, 257, 513}
	check := func(label string, ts *TupleStore, want []uint32) {
		t.Helper()
		if got := ts.VPSet(); !slices.Equal(got, want) {
			t.Fatalf("%s: VPSet %v, want %v", label, got, want)
		}
		if _, n := ts.DistinctCounts(); n != len(want) {
			t.Fatalf("%s: DistinctCounts counts %d vantage points, want %d", label, n, len(want))
		}
	}
	check("plain", plain, want)
	check("stitched", sts.Stitch(2), want)
	plain.AddView(last.vp, last.path, last.comms)
	sts = NewShardedTupleStore(4)
	for _, v := range views {
		sts.AddViewASPathLarge(v.vp, bgp.NewASPath(v.path...), v.comms, nil)
	}
	sts.AddViewASPathLarge(last.vp, bgp.NewASPath(last.path...), last.comms, nil)
	want = []uint32{1, 3, 5, 9, 257, 513}
	check("plain, seen from 1", plain, want)
	check("stitched, seen from 1", sts.Stitch(2), want)
}

func TestClusterIndexes(t *testing.T) {
	tests := []struct {
		betas []uint16
		gap   int
		want  [][2]int
	}{
		{nil, 140, nil},
		{[]uint16{5}, 140, [][2]int{{0, 1}}},
		{[]uint16{1, 2, 3}, 0, [][2]int{{0, 1}, {1, 2}, {2, 3}}}, // no clustering
		{[]uint16{1, 2, 300}, 140, [][2]int{{0, 2}, {2, 3}}},
		// 141-1 = 140 stays together; 282-141 = 141 > 140 splits.
		{[]uint16{1, 141, 282}, 140, [][2]int{{0, 2}, {2, 3}}},
	}
	for _, tc := range tests {
		got := clusterIndexes(tc.betas, tc.gap)
		if len(got) != len(tc.want) {
			t.Errorf("clusterIndexes(%v, %d) = %v, want %v", tc.betas, tc.gap, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("clusterIndexes(%v, %d)[%d] = %v, want %v", tc.betas, tc.gap, i, got[i], tc.want[i])
			}
		}
	}
}

// buildSyntheticStore creates a corpus with known properties:
//   - 100:10..12 — info communities of AS100, always on-path
//   - 100:500..502 — action communities of AS100, mostly off-path
//   - 65001:7 — private α
//   - 900:5 — AS900 never appears in any path (route server)
func buildSyntheticStore() *TupleStore {
	ts := NewTupleStore()
	// 30 distinct paths through AS100 carrying its info communities.
	for i := 0; i < 30; i++ {
		vp := uint32(1000 + i)
		path := []uint32{vp, 100, uint32(2000 + i)}
		ts.AddView(vp, path, bgp.Communities{c(100, 10), c(100, uint16(10+i%3))})
	}
	// Action communities: 5 on-path, 25 off-path observations.
	for i := 0; i < 5; i++ {
		vp := uint32(1100 + i)
		path := []uint32{vp, 100, uint32(2100 + i)}
		ts.AddView(vp, path, bgp.Communities{c(100, uint16(500+i%3))})
	}
	for i := 0; i < 25; i++ {
		vp := uint32(1200 + i)
		path := []uint32{vp, 300, uint32(2200 + i)}
		ts.AddView(vp, path, bgp.Communities{c(100, uint16(500+i%3))})
	}
	// Private-α and never-on-path communities ride existing paths.
	ts.AddView(1200, []uint32{1200, 300, 2200}, bgp.Communities{c(65001, 7)})
	ts.AddView(1200, []uint32{1200, 300, 2200}, bgp.Communities{c(900, 5)})
	return ts
}

func TestClassifySynthetic(t *testing.T) {
	ts := buildSyntheticStore()
	inf := Classify(ts, DefaultOptions())

	for _, v := range []uint16{10, 11, 12} {
		if got := inf.Category(c(100, v)); got != dict.CatInformation {
			t.Errorf("100:%d = %v, want information", v, got)
		}
	}
	for _, v := range []uint16{500, 501, 502} {
		if got := inf.Category(c(100, v)); got != dict.CatAction {
			t.Errorf("100:%d = %v, want action", v, got)
		}
	}
	if got := inf.Verdict(c(65001, 7)).Reason; got != ExcludePrivateASN {
		t.Errorf("65001:7 excluded = %v, want private-asn", got)
	}
	if got := inf.Verdict(c(900, 5)).Reason; got != ExcludeNeverOnPath {
		t.Errorf("900:5 excluded = %v, want never-on-path", got)
	}
	if got := inf.Category(c(65001, 7)); got != dict.CatUnknown {
		t.Errorf("excluded community classified: %v", got)
	}
	action, info := inf.Counts()
	if action != 3 || info != 3 {
		t.Errorf("Counts = %d action, %d info", action, info)
	}
	// The two AS100 clusters must be separate (gap 500-12 > 140).
	var clusters100 int
	for _, cl := range summaries(inf) {
		if cl.Alpha == 100 {
			clusters100++
		}
	}
	if clusters100 != 2 {
		t.Errorf("AS100 clusters = %d, want 2", clusters100)
	}
}

func TestClassifyDisableExclusions(t *testing.T) {
	ts := buildSyntheticStore()
	opts := DefaultOptions()
	opts.DisableExclusions = true
	inf := Classify(ts, opts)
	if inf.ExcludedCount() != 0 {
		t.Errorf("exclusions applied despite ablation: %v", excludedOf(&inf.kindView))
	}
	// 900:5 never on-path -> pure off-path -> action (wrong for an RS
	// info community, which is the point of the exclusion rule).
	if got := inf.Category(c(900, 5)); got != dict.CatAction {
		t.Errorf("900:5 = %v under ablation, want action", got)
	}
}

func TestClassifySiblingAware(t *testing.T) {
	ts := NewTupleStore()
	// AS 200 tags with α=100 (its org sibling). AS100 never on path.
	for i := 0; i < 20; i++ {
		vp := uint32(1000 + i)
		ts.AddView(vp, []uint32{vp, 200, uint32(3000 + i)}, bgp.Communities{c(100, 42)})
	}
	orgs := asrel.NewOrgMap()
	orgs.Set(100, "org-x")
	orgs.Set(200, "org-x")

	// Without sibling awareness: α=100 never on-path -> excluded.
	inf := Classify(ts, DefaultOptions())
	if got := inf.Verdict(c(100, 42)).Reason; got != ExcludeNeverOnPath {
		t.Fatalf("without orgs: excluded = %v, want never-on-path", got)
	}

	// With sibling awareness the observations become on-path -> info.
	opts := DefaultOptions()
	opts.Orgs = orgs
	inf = Classify(ts, opts)
	if got := inf.Category(c(100, 42)); got != dict.CatInformation {
		t.Fatalf("with orgs: 100:42 = %v, want information", got)
	}
}

func TestClassifyVPFilter(t *testing.T) {
	ts := buildSyntheticStore()
	opts := DefaultOptions()
	opts.VPFilter = map[uint32]bool{1000: true, 1001: true}
	inf := Classify(ts, opts)
	// Only info observations remain visible.
	if got := inf.Category(c(100, 10)); got != dict.CatInformation {
		t.Errorf("100:10 = %v", got)
	}
	if _, seen := labelsOf(inf)[c(100, 500)]; seen {
		t.Error("filtered-out community still classified")
	}
}

func TestClassifyNoClusteringChangesSparseLabels(t *testing.T) {
	ts := NewTupleStore()
	// Two action communities in one block: 100:500 well observed with
	// off-path dominance; 100:501 seen once, on-path only (a single-homed
	// customer). Clustering should pull 501 to action; no clustering
	// leaves it information.
	for i := 0; i < 20; i++ {
		vp := uint32(1200 + i)
		ts.AddView(vp, []uint32{vp, 300, 2200}, bgp.Communities{c(100, 500)})
	}
	ts.AddView(1100, []uint32{1100, 100, 2100}, bgp.Communities{c(100, 500)})
	ts.AddView(1101, []uint32{1101, 100, 2101}, bgp.Communities{c(100, 501)})

	clustered := Classify(ts, DefaultOptions())
	if got := clustered.Category(c(100, 501)); got != dict.CatAction {
		t.Errorf("clustered: 100:501 = %v, want action", got)
	}
	opts := DefaultOptions()
	opts.MinGap = 0
	isolated := Classify(ts, opts)
	if got := isolated.Category(c(100, 501)); got != dict.CatInformation {
		t.Errorf("no clustering: 100:501 = %v, want information (pure on-path alone)", got)
	}
}

func TestCustomerPeerSynthetic(t *testing.T) {
	ts := NewTupleStore()
	// Paths where AS100's downstream is 500 (customer) or 600 (peer).
	for i := 0; i < 8; i++ {
		vp := uint32(1000 + i)
		ts.AddView(vp, []uint32{vp, 100, 500, uint32(7000 + i)}, bgp.Communities{c(100, 500)})
	}
	for i := 0; i < 2; i++ {
		vp := uint32(1100 + i)
		ts.AddView(vp, []uint32{vp, 100, 600, uint32(7100 + i)}, bgp.Communities{c(100, 500)})
	}
	g := asrel.NewGraph()
	g.SetP2C(100, 500)
	g.SetP2P(100, 600)

	stats := CustomerPeer(ts, DefaultOptions(), g)
	st := stats[c(100, 500)]
	if st == nil {
		t.Fatal("no stats for 100:500")
	}
	if st.Customer != 8 || st.Peer != 2 {
		t.Errorf("customer/peer = %d/%d, want 8/2", st.Customer, st.Peer)
	}
	if got := st.Ratio(); got != 4.0 {
		t.Errorf("ratio = %v, want 4", got)
	}
}

// corpusAccuracy classifies a simulated corpus and scores it against the
// generator's ground-truth plans over observed, classified communities.
func corpusAccuracy(t *testing.T, days int) (acc float64, classified int) {
	t.Helper()
	topo, err := topology.Generate(topology.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim := simulate.New(topo, simulate.TinyConfig())
	ts := NewTupleStore()
	for d := 0; d < days; d++ {
		day := sim.RunDay(d)
		for _, v := range day.Views {
			ts.AddView(v.VP, v.Path, v.Comms)
		}
	}
	orgs := asrel.NewOrgMap()
	for orgID, members := range topo.Orgs {
		for _, m := range members {
			orgs.Set(m, fmt.Sprintf("org-%d", orgID))
		}
	}
	opts := DefaultOptions()
	opts.Orgs = orgs
	inf := Classify(ts, opts)

	correct, wrong := 0, 0
	for comm, got := range labelsOf(inf) {
		a := topo.ASes[uint32(comm.ASN())]
		if a == nil || a.Plan == nil {
			continue
		}
		want := a.Plan.Category(comm.Value())
		if want == dict.CatUnknown {
			continue
		}
		if got == want {
			correct++
		} else {
			wrong++
		}
	}
	if correct+wrong == 0 {
		t.Fatal("no labeled communities to score")
	}
	return float64(correct) / float64(correct+wrong), correct + wrong
}

func TestClassifyAccuracyOnSimulatedCorpus(t *testing.T) {
	acc, n := corpusAccuracy(t, 2)
	t.Logf("accuracy = %.3f over %d communities", acc, n)
	if acc < 0.85 {
		t.Errorf("accuracy = %.3f over %d communities, want >= 0.85", acc, n)
	}
	if n < 100 {
		t.Errorf("only %d communities scored; corpus too sparse", n)
	}
}

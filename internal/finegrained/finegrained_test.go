package finegrained

import (
	"slices"
	"testing"

	"bgpintent/internal/asrel"
	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/corpus"
	"bgpintent/internal/dict"
	"bgpintent/internal/simulate"
)

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindOther: "other-info", KindLocation: "location",
		KindRelationship: "relationship", KindROV: "rov",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestClassifyOnCorpus runs the fine-grained inference over a simulated
// corpus and scores it against the generator's subcategory ground truth.
func TestClassifyOnCorpus(t *testing.T) {
	c, err := corpus.Build(corpus.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	intent := core.Classify(c.Store, c.Options())
	rels := asrel.Infer(c.Store.AllPaths())
	res := Classify(c.Store, intent, c.Topo, ROVFunc(simulate.ROVState), rels, DefaultConfig())
	if len(res.Kinds) == 0 {
		t.Fatal("no fine-grained inferences")
	}

	// Score per ground-truth kind.
	type cell struct{ correct, total int }
	score := make(map[string]*cell)
	var confusion [4][4]int
	kindOf := func(sub dict.SubCategory) (Kind, bool) {
		switch sub {
		case dict.SubLocation:
			return KindLocation, true
		case dict.SubRelationship:
			return KindRelationship, true
		case dict.SubROV:
			return KindROV, true
		case dict.SubOtherInfo:
			return KindOther, true
		}
		return KindOther, false
	}
	for comm, got := range res.Kinds {
		a := c.Topo.ASes[uint32(comm.ASN())]
		if a == nil || a.Plan == nil || a.Plan.ASN != uint32(comm.ASN()) {
			continue
		}
		d, ok := a.Plan.Lookup(comm.Value())
		if !ok {
			continue
		}
		want, ok := kindOf(d.Sub)
		if !ok {
			continue
		}
		cl := score[want.String()]
		if cl == nil {
			cl = &cell{}
			score[want.String()] = cl
		}
		cl.total++
		if got == want {
			cl.correct++
		}
		confusion[want][got]++
	}
	overallCorrect, overallTotal := 0, 0
	for name, cl := range score {
		t.Logf("%-14s recall %d/%d", name, cl.correct, cl.total)
		overallCorrect += cl.correct
		overallTotal += cl.total
	}
	if overallTotal < 50 {
		t.Fatalf("only %d scored", overallTotal)
	}
	acc := float64(overallCorrect) / float64(overallTotal)
	t.Logf("fine-grained accuracy = %.3f (%d communities)", acc, overallTotal)
	if acc < 0.6 {
		t.Errorf("fine-grained accuracy = %.3f, want >= 0.6 (future-work quality bar)", acc)
	}
	// Every major kind must be both present in truth and recalled at
	// least once.
	for _, name := range []string{"location", "relationship"} {
		cl := score[name]
		if cl == nil || cl.total == 0 {
			t.Errorf("no ground-truth %s communities scored", name)
			continue
		}
		if cl.correct == 0 {
			t.Errorf("kind %s never recalled (0/%d)", name, cl.total)
		}
	}
}

// TestROVDetectorSynthetic checks the partition logic directly.
func TestROVDetectorSynthetic(t *testing.T) {
	ts := core.NewTupleStore()
	// 100:7 appears only on routes from invalid-state origins; plenty of
	// origins and neighbors.
	invalidOrigins := []uint32{}
	for o := uint32(7000); len(invalidOrigins) < 8; o++ {
		if simulate.ROVState(o) == 1 {
			invalidOrigins = append(invalidOrigins, o)
		}
	}
	for i, origin := range invalidOrigins {
		vp := uint32(1000 + i)
		nbr := uint32(500 + i%4)
		ts.AddView(vp, []uint32{vp, 100, nbr, origin}, bgp.Communities{bgp.NewCommunity(100, 7)})
	}
	intent := intentOf(map[bgp.Community]dict.Category{
		bgp.NewCommunity(100, 7): dict.CatInformation,
	})
	rels := asrel.NewGraph() // no relationship evidence
	res := Classify(ts, intent, nullGeo{}, ROVFunc(simulate.ROVState), rels, DefaultConfig())
	if k, ok := res.Kind(bgp.NewCommunity(100, 7)); !ok || k != KindROV {
		t.Errorf("kind = %v, %v; want rov", k, ok)
	}
}

// TestRelationshipDetectorSynthetic checks the relationship purity path.
func TestRelationshipDetectorSynthetic(t *testing.T) {
	ts := core.NewTupleStore()
	g := asrel.NewGraph()
	// 100:9 appears only when AS100 learned the route from a customer;
	// many different customers, origins of mixed ROV states.
	for i := 0; i < 12; i++ {
		vp := uint32(1000 + i)
		cust := uint32(600 + i%5)
		origin := uint32(8000 + i)
		g.SetP2C(100, cust)
		ts.AddView(vp, []uint32{vp, 100, cust, origin}, bgp.Communities{bgp.NewCommunity(100, 9)})
	}
	intent := intentOf(map[bgp.Community]dict.Category{
		bgp.NewCommunity(100, 9): dict.CatInformation,
	})
	res := Classify(ts, intent, nullGeo{}, nil, g, DefaultConfig())
	if k, ok := res.Kind(bgp.NewCommunity(100, 9)); !ok || k != KindRelationship {
		t.Errorf("kind = %v, %v; want relationship", k, ok)
	}
}

// TestActionCommunitiesIgnored: only information communities get kinds.
func TestActionCommunitiesIgnored(t *testing.T) {
	ts := core.NewTupleStore()
	for i := 0; i < 10; i++ {
		vp := uint32(1000 + i)
		ts.AddView(vp, []uint32{vp, 100, uint32(7000 + i)}, bgp.Communities{bgp.NewCommunity(100, 5)})
	}
	intent := intentOf(map[bgp.Community]dict.Category{
		bgp.NewCommunity(100, 5): dict.CatAction,
	})
	res := Classify(ts, intent, nullGeo{}, nil, asrel.NewGraph(), DefaultConfig())
	if len(res.Kinds) != 0 {
		t.Errorf("action community classified fine-grained: %v", res.Kinds)
	}
}

// nullGeo is a SessionGeo with no knowledge.
type nullGeo struct{}

func (nullGeo) SessionCity(a, b uint32) (int, bool) { return 0, false }
func (nullGeo) Region(city int) int                 { return 0 }

// intentOf builds the inferences labelling each community as given: a
// community seen only off-path is an action, one seen only on-path an
// information community. The records go in key order, as Observe's do.
func intentOf(labels map[bgp.Community]dict.Category) *core.Inferences {
	os := &core.ObservationSet{}
	for c, cat := range labels {
		st := core.Stats[bgp.Community]{Comm: c, OffPath: 1}
		if cat == dict.CatInformation {
			st.OnPath, st.OffPath = 1, 0
		}
		os.Stats = append(os.Stats, st)
	}
	slices.SortFunc(os.Stats, func(a, b core.Stats[bgp.Community]) int { return a.Comm.Compare(b.Comm) })
	return core.ClassifyObserved(os, core.Options{DisableExclusions: true})
}

package locinfer

import (
	"fmt"
	"slices"
	"testing"

	"bgpintent/internal/asrel"
	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/dict"
	"bgpintent/internal/simulate"
	"bgpintent/internal/topology"
)

func c(asn, val uint16) bgp.Community { return bgp.NewCommunity(asn, val) }

// mapGeo is a test SessionGeo: (a, b) -> city; cities 1-3 are in
// region 1.
type mapGeo map[[2]uint32]int

func (g mapGeo) SessionCity(a, b uint32) (int, bool) {
	city, ok := g[[2]uint32{a, b}]
	return city, ok
}

func (g mapGeo) Region(city int) int { return (city-1)/3 + 1 }

// testGeo places AS100's sessions to neighbors 501..506 in cities 1..6
// (region 1 holds cities 1-3, region 2 cities 4-6).
func testGeo() mapGeo {
	g := mapGeo{}
	for i, nbr := range []uint32{501, 502, 503, 504, 505, 506} {
		g[[2]uint32{100, nbr}] = 1 + i
	}
	return g
}

// buildStore creates a corpus where:
//   - 100:20 is a location community: tagged only on routes entering
//     AS100 via neighbors 501/502 (city 1), many origins.
//   - 100:30 is a relationship community: appears across all of AS100's
//     sessions, every city.
//   - 100:40 is origin-specific (one origin only).
func buildStore() *core.TupleStore {
	ts := core.NewTupleStore()
	neighbors := []uint32{501, 502, 503, 504, 505, 506}
	// Location community: ingress via 501/502 only.
	for i := 0; i < 12; i++ {
		vp := uint32(1000 + i)
		nbr := neighbors[i%2]
		origin := uint32(7000 + i)
		ts.AddView(vp, []uint32{vp, 100, nbr, origin}, bgp.Communities{c(100, 20)})
	}
	// Relationship community: every neighbor.
	for i := 0; i < 12; i++ {
		vp := uint32(1100 + i)
		nbr := neighbors[i%len(neighbors)]
		origin := uint32(7100 + i)
		ts.AddView(vp, []uint32{vp, 100, nbr, origin}, bgp.Communities{c(100, 30)})
	}
	// Origin-specific: one origin.
	for i := 0; i < 12; i++ {
		vp := uint32(1200 + i)
		ts.AddView(vp, []uint32{vp, 100, 501, 7777}, bgp.Communities{c(100, 40)})
	}
	return ts
}

func TestInferSynthetic(t *testing.T) {
	ts := buildStore()
	locs := Infer(ts, testGeo(), DefaultConfig())
	got := make(map[bgp.Community]bool)
	for _, l := range locs {
		got[l.Comm] = true
	}
	if !got[c(100, 20)] {
		t.Error("100:20 (location) not inferred")
	}
	if got[c(100, 30)] {
		t.Error("100:30 (relationship, all cities) inferred as location")
	}
	if got[c(100, 40)] {
		t.Error("100:40 (single origin) inferred as location")
	}
}

func TestInferRespectsSupport(t *testing.T) {
	ts := core.NewTupleStore()
	// Only 3 paths: below MinPaths.
	for i := 0; i < 3; i++ {
		vp := uint32(1000 + i)
		ts.AddView(vp, []uint32{vp, 100, 501, uint32(7000 + i)}, bgp.Communities{c(100, 20)})
	}
	if locs := Infer(ts, testGeo(), DefaultConfig()); len(locs) != 0 {
		t.Errorf("inferred %v from 3 paths", locs)
	}
}

func TestInferNeedsGeoFootprint(t *testing.T) {
	ts := core.NewTupleStore()
	// Plenty of support, but α's whole footprint is one city: no
	// concentration signal, so nothing can be inferred.
	for i := 0; i < 12; i++ {
		vp := uint32(1000 + i)
		ts.AddView(vp, []uint32{vp, 100, 501, uint32(7000 + i)}, bgp.Communities{c(100, 20)})
	}
	g := mapGeo{{100, 501}: 1}
	if locs := Infer(ts, g, DefaultConfig()); len(locs) != 0 {
		t.Errorf("inferred %v with a single-city footprint", locs)
	}
}

func TestFilterWithIntent(t *testing.T) {
	locs := []Inference{{Comm: c(100, 20)}, {Comm: c(100, 500)}}
	intent := intentOf(map[bgp.Community]dict.Category{
		c(100, 20):  dict.CatInformation,
		c(100, 500): dict.CatAction,
	})
	kept, dropped := FilterWithIntent(locs, intent)
	if len(kept) != 1 || kept[0].Comm != c(100, 20) {
		t.Errorf("kept = %v", kept)
	}
	if len(dropped) != 1 || dropped[0].Comm != c(100, 500) {
		t.Errorf("dropped = %v", dropped)
	}
}

// TestTable1ShapeOnCorpus verifies the headline Table 1 behavior: the
// location method has substantial traffic-engineering false positives,
// and filtering with the intent inference removes most of them while
// keeping most true geolocation inferences.
func TestTable1ShapeOnCorpus(t *testing.T) {
	topo, err := topology.Generate(topology.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim := simulate.New(topo, simulate.TinyConfig())
	ts := core.NewTupleStore()
	for d := 0; d < 2; d++ {
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
	locs := Infer(ts, topo, DefaultConfig())
	if len(locs) < 10 {
		t.Fatalf("only %d location inferences; corpus too sparse", len(locs))
	}

	categorize := func(ls []Inference) (geo, te, other int) {
		for _, l := range ls {
			a := topo.ASes[uint32(l.Comm.ASN())]
			if a == nil || a.Plan == nil {
				other++
				continue
			}
			d, ok := a.Plan.Lookup(l.Comm.Value())
			if !ok {
				other++
				continue
			}
			switch {
			case d.Sub == dict.SubLocation:
				geo++
			case d.Category() == dict.CatAction:
				te++
			default:
				other++
			}
		}
		return
	}

	geoB, teB, otherB := categorize(locs)
	t.Logf("before filter: geo=%d te=%d other=%d", geoB, teB, otherB)
	if geoB == 0 {
		t.Fatal("no true geolocation inferences")
	}
	if teB == 0 {
		t.Fatal("no TE false positives; the Table 1 failure mode is absent")
	}

	opts := core.DefaultOptions()
	opts.Orgs = orgs
	intent := core.Classify(ts, opts)
	kept, dropped := FilterWithIntent(locs, intent)
	geoA, teA, otherA := categorize(kept)
	t.Logf("after filter:  geo=%d te=%d other=%d (dropped %d)", geoA, teA, otherA, len(dropped))

	if teA*4 > teB {
		t.Errorf("filter removed too few TE false positives: %d -> %d", teB, teA)
	}
	if geoA*10 < geoB*8 {
		t.Errorf("filter removed too many true geolocation inferences: %d -> %d", geoB, geoA)
	}
	precB := float64(geoB) / float64(geoB+teB+otherB)
	precA := float64(geoA) / float64(geoA+teA+otherA)
	t.Logf("precision %.3f -> %.3f", precB, precA)
	if precA <= precB {
		t.Errorf("precision did not improve: %.3f -> %.3f", precB, precA)
	}
}

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

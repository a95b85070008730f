package simulate

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
	"bgpintent/internal/mrt"
	"bgpintent/internal/topology"
)

func tinySim(t *testing.T) (*topology.Topology, *Simulator) {
	t.Helper()
	topo, err := topology.Generate(topology.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return topo, New(topo, TinyConfig())
}

func TestRunDayProducesViews(t *testing.T) {
	topo, sim := tinySim(t)
	day := sim.RunDay(0)
	if len(day.Views) == 0 {
		t.Fatal("no views")
	}
	// Rough coverage: views ≈ VPs × prefixes (minus blackhole/no-export
	// confinement and flapped links).
	expect := len(sim.VPs()) * sim.Prefixes()
	if len(day.Views) < expect/2 {
		t.Errorf("views = %d, expected at least half of %d", len(day.Views), expect)
	}
	_ = topo
}

func TestDaysDiffer(t *testing.T) {
	_, sim := tinySim(t)
	a := sim.RunDay(0)
	b := sim.RunDay(1)
	if reflect.DeepEqual(a.Views, b.Views) {
		t.Error("two days produced identical corpora; flaps/jitter inert")
	}
}

func TestPathsLoopFree(t *testing.T) {
	_, sim := tinySim(t)
	day := sim.RunDay(0)
	for _, v := range day.Views {
		seen := make(map[uint32]int)
		prev := uint32(0)
		for _, asn := range v.Path {
			if asn == prev {
				continue // prepending
			}
			prev = asn
			seen[asn]++
			if seen[asn] > 1 {
				t.Fatalf("loop in path %v (prefix %v)", v.Path, v.Prefix)
			}
		}
	}
}

func TestPathsValleyFree(t *testing.T) {
	topo, sim := tinySim(t)
	day := sim.RunDay(0)
	const (
		up   = 0
		flat = 1
		dn   = 2
	)
	for _, v := range day.Views {
		// Deduplicate prepends.
		var hops []uint32
		for _, asn := range v.Path {
			if len(hops) == 0 || hops[len(hops)-1] != asn {
				hops = append(hops, asn)
			}
		}
		// Walk origin -> VP; the phase may only decrease (up, then one
		// flat, then down).
		phase := up
		flats := 0
		for i := len(hops) - 1; i > 0; i-- {
			x, y := hops[i], hops[i-1] // x announced to y
			rel, ok := topo.ASes[y].RelWith(x)
			if !ok {
				t.Fatalf("path %v uses non-adjacent ASes %d-%d", v.Path, x, y)
			}
			var step int
			switch rel {
			case topology.RelCustomer:
				step = up // y learned from its customer: the route went up
			case topology.RelPeer:
				step = flat
			default:
				step = dn
			}
			if step < phase {
				t.Fatalf("valley in path %v (prefix %v)", v.Path, v.Prefix)
			}
			if step == flat {
				if flats++; flats > 1 {
					t.Fatalf("two peer links in path %v", v.Path)
				}
			}
			phase = step
		}
	}
}

func TestInfoCommunitiesMostlyOnPath(t *testing.T) {
	topo, sim := tinySim(t)
	day := sim.RunDay(0)
	on, off := 0, 0
	for _, v := range day.Views {
		inPath := make(map[uint32]bool)
		for _, asn := range v.Path {
			inPath[asn] = true
		}
		for _, c := range v.Comms {
			a := topo.ASes[uint32(c.ASN())]
			if a == nil || a.Plan == nil {
				continue
			}
			if a.Plan.Category(c.Value()) != dict.CatInformation {
				continue
			}
			if inPath[uint32(c.ASN())] {
				on++
			} else {
				off++
			}
		}
	}
	if on == 0 {
		t.Fatal("no information community observations")
	}
	if off*50 > on {
		t.Errorf("info communities off-path too often: on=%d off=%d", on, off)
	}
}

func TestActionCommunitiesAppearOffPath(t *testing.T) {
	topo, sim := tinySim(t)
	day := sim.RunDay(0)
	on, off := 0, 0
	for _, v := range day.Views {
		inPath := make(map[uint32]bool)
		for _, asn := range v.Path {
			inPath[asn] = true
		}
		for _, c := range v.Comms {
			a := topo.ASes[uint32(c.ASN())]
			if a == nil || a.Plan == nil {
				continue
			}
			if a.Plan.Category(c.Value()) != dict.CatAction {
				continue
			}
			if inPath[uint32(c.ASN())] {
				on++
			} else {
				off++
			}
		}
	}
	if on == 0 || off == 0 {
		t.Fatalf("action observations: on=%d off=%d; want both non-zero", on, off)
	}
	// Action communities propagate via other providers, so off-path
	// observations should be a substantial share.
	if off*20 < on {
		t.Errorf("action communities almost never off-path: on=%d off=%d", on, off)
	}
}

func TestFilteringASesStripCommunities(t *testing.T) {
	topo, sim := tinySim(t)
	day := sim.RunDay(0)
	for _, v := range day.Views {
		if topo.ASes[v.VP].FiltersCommunities && len(v.Comms) > 0 {
			t.Fatalf("filtering VP %d delivered communities %v", v.VP, v.Comms)
		}
		// Any path through a filtering AS (other than the VP itself, which
		// already strips) must not carry communities from below it.
		for i := len(v.Path) - 1; i > 0; i-- {
			mid := v.Path[i]
			if !topo.ASes[mid].FiltersCommunities {
				continue
			}
			// Communities whose α appears strictly below the filter point
			// must be gone, unless re-added above. Origin-attached foreign
			// tags are the common case: check the origin's own tags.
			origin := v.Path[len(v.Path)-1]
			if origin == mid {
				continue
			}
			for _, c := range v.Comms {
				if uint32(c.ASN()) == origin {
					t.Fatalf("origin %d communities survived filter AS%d in %v", origin, mid, v.Path)
				}
			}
		}
	}
}

func TestRouteServerASNNeverOnPath(t *testing.T) {
	topo, sim := tinySim(t)
	rs := make(map[uint32]bool)
	for _, ix := range topo.IXPs {
		rs[ix.RouteServerASN] = true
	}
	day := sim.RunDay(0)
	foundRSComm := false
	for _, v := range day.Views {
		for _, asn := range v.Path {
			if rs[asn] {
				t.Fatalf("route server AS%d in path %v", asn, v.Path)
			}
		}
		for _, c := range v.Comms {
			if rs[uint32(c.ASN())] {
				foundRSComm = true
			}
		}
	}
	if !foundRSComm {
		t.Error("no route-server communities observed; IXP tagging inert")
	}
}

func TestVPSelection(t *testing.T) {
	topo, sim := tinySim(t)
	vps := sim.VPs()
	if len(vps) != TinyConfig().VantagePoints {
		t.Fatalf("VPs = %d, want %d", len(vps), TinyConfig().VantagePoints)
	}
	// All tier-1s should be VPs (transit-heavy mix).
	for asn, a := range topo.ASes {
		if a.Tier != topology.TierT1 {
			continue
		}
		found := false
		for _, vp := range vps {
			if vp == asn {
				found = true
			}
		}
		if !found {
			t.Errorf("tier-1 AS%d not a vantage point", asn)
		}
	}
}

func TestPrependingObservable(t *testing.T) {
	_, sim := tinySim(t)
	day := sim.RunDay(0)
	found := false
	for _, v := range day.Views {
		for i := 1; i < len(v.Path); i++ {
			if v.Path[i] == v.Path[i-1] {
				found = true
			}
		}
	}
	if !found {
		t.Error("no prepending observed; set-attribute actions inert")
	}
}

func TestBlackholePrefixesConfined(t *testing.T) {
	_, sim := tinySim(t)
	day := sim.RunDay(0)
	counts := make(map[bgp.Prefix]int)
	isBH := make(map[bgp.Prefix]bool)
	for _, v := range day.Views {
		counts[v.Prefix]++
		if v.Prefix.Bits() == 32 {
			isBH[v.Prefix] = true
		}
	}
	if len(isBH) == 0 {
		t.Skip("no blackhole /32s in tiny corpus")
	}
	// Blackholed /32s must reach fewer VPs on average than /24s: the
	// honoring provider absorbs them.
	var bhTotal, bhN, normTotal, normN int
	for p, n := range counts {
		if isBH[p] {
			bhTotal += n
			bhN++
		} else {
			normTotal += n
			normN++
		}
	}
	if bhN > 0 && normN > 0 {
		if float64(bhTotal)/float64(bhN) >= float64(normTotal)/float64(normN) {
			t.Errorf("blackhole prefixes reach as many VPs as normal ones (%d/%d vs %d/%d)",
				bhTotal, bhN, normTotal, normN)
		}
	}
}

func TestMRTRIBRoundTrip(t *testing.T) {
	_, sim := tinySim(t)
	day := sim.RunDay(0)

	var recovered []View
	for c := 0; c < sim.Collectors(); c++ {
		var buf bytes.Buffer
		if err := sim.WriteRIB(&buf, 1714500000, c, day); err != nil {
			t.Fatal(err)
		}
		sc := mrt.NewTableDumpScannerOptions(&buf, mrt.ScanOptions{})
		for {
			v, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			// The scanner reuses the view's attribute storage between
			// Next calls, so retain copies.
			recovered = append(recovered, View{
				VP:     v.Peer.ASN,
				Prefix: v.Prefix,
				Path:   v.Entry.Attrs.ASPath.Flatten(),
				Comms:  append(bgp.Communities(nil), v.Entry.Attrs.Communities...),
			})
		}
	}
	if len(recovered) != len(day.Views) {
		t.Fatalf("recovered %d views, wrote %d", len(recovered), len(day.Views))
	}
	// Index original views and compare.
	type key struct {
		vp uint32
		p  bgp.Prefix
	}
	orig := make(map[key]View, len(day.Views))
	for _, v := range day.Views {
		orig[key{v.VP, v.Prefix}] = v
	}
	for _, r := range recovered {
		o, ok := orig[key{r.VP, r.Prefix}]
		if !ok {
			t.Fatalf("unexpected view vp=%d prefix=%v", r.VP, r.Prefix)
		}
		if !reflect.DeepEqual(o.Path, r.Path) {
			t.Fatalf("path mismatch vp=%d prefix=%v: %v vs %v", r.VP, r.Prefix, o.Path, r.Path)
		}
		if len(o.Comms) != len(r.Comms) {
			t.Fatalf("comms mismatch vp=%d prefix=%v", r.VP, r.Prefix)
		}
		for i := range o.Comms {
			if o.Comms[i] != r.Comms[i] {
				t.Fatalf("comms[%d] mismatch", i)
			}
		}
	}
}

func TestMRTUpdatesRoundTrip(t *testing.T) {
	_, sim := tinySim(t)
	day := sim.RunDay(0)
	var buf bytes.Buffer
	if err := sim.WriteUpdates(&buf, 1714500000, 0, day, 0.3); err != nil {
		t.Fatal(err)
	}
	sc := mrt.NewUpdateScannerOptions(&buf, mrt.ScanOptions{})
	count := 0
	for {
		v, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Update.NLRI) == 0 && len(v.Update.Withdrawn) == 0 {
			t.Error("update with no NLRI and no withdrawals")
		}
		count++
	}
	if count == 0 {
		t.Fatal("no updates written")
	}
}

func TestCollectorPartition(t *testing.T) {
	_, sim := tinySim(t)
	seen := make(map[uint32]int)
	for c := 0; c < sim.Collectors(); c++ {
		for _, vp := range sim.CollectorVPs(c) {
			seen[vp]++
		}
	}
	if len(seen) != len(sim.VPs()) {
		t.Errorf("partition covers %d VPs of %d", len(seen), len(sim.VPs()))
	}
	for vp, n := range seen {
		if n != 1 {
			t.Errorf("VP %d in %d collectors", vp, n)
		}
	}
}

func TestPrivateJunkAppears(t *testing.T) {
	_, sim := tinySim(t)
	day := sim.RunDay(0)
	found := false
	for _, v := range day.Views {
		for _, c := range v.Comms {
			if c.IsPrivateASN() {
				found = true
			}
		}
	}
	if !found {
		t.Error("no private-ASN communities in corpus; junk generation inert")
	}
}

func TestLargeCommunitiesEmitted(t *testing.T) {
	_, sim := tinySim(t)
	day := sim.RunDay(0)
	distinct := make(map[bgp.LargeCommunity]bool)
	for _, v := range day.Views {
		for _, lc := range v.LargeComms {
			distinct[lc] = true
			// Mirrors carry the regular community's α and value.
			if lc.LocalData1 != 1 {
				t.Fatalf("unexpected large function field: %v", lc)
			}
		}
	}
	if len(distinct) == 0 {
		t.Fatal("no large communities in corpus; mirroring inert")
	}
	// Large communities must be a minority relative to regular ones, as
	// in the paper (11,524 large vs 88,982 regular).
	regular := make(map[bgp.Community]bool)
	for _, v := range day.Views {
		for _, c := range v.Comms {
			regular[c] = true
		}
	}
	if len(distinct) >= len(regular) {
		t.Errorf("large (%d) should be rarer than regular (%d)", len(distinct), len(regular))
	}
}

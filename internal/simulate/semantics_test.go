package simulate

import (
	"testing"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
	"bgpintent/internal/topology"
)

// handTopo builds a minimal hand-wired topology:
//
//	AS20 (stub, origin) --customer-of--> AS10 (transit) <--peer--> AS30
//	                                      ^
//	                                      +--customer-of--> AS40 (tier1)
//
// AS10's plan is supplied by the caller; AS20 originates 192.0.2.0/24.
func handTopo(plan *dict.Plan) *topology.Topology {
	t := &topology.Topology{
		ASes:            make(map[uint32]*topology.AS),
		Orgs:            map[int][]uint32{1: {10}, 2: {20}, 3: {30}, 4: {40}},
		NumRegions:      2,
		CitiesPerRegion: 2,
	}
	mk := func(asn uint32, tier int, cities ...int) *topology.AS {
		a := &topology.AS{ASN: asn, Tier: tier, OrgID: int(asn / 10), HomeRegion: 1,
			Cities: cities, LinkCity: make(map[uint32]int)}
		t.ASes[asn] = a
		return a
	}
	a10 := mk(10, topology.TierT2, 1, 3)
	a20 := mk(20, topology.TierStub, 1)
	a30 := mk(30, topology.TierT2, 1)
	a40 := mk(40, topology.TierT1, 1, 2, 3, 4)

	link := func(x, y *topology.AS, rel string, city int) {
		switch rel {
		case "p2c": // x provider of y
			x.Customers = append(x.Customers, y.ASN)
			y.Providers = append(y.Providers, x.ASN)
		case "p2p":
			x.Peers = append(x.Peers, y.ASN)
			y.Peers = append(y.Peers, x.ASN)
		}
		x.LinkCity[y.ASN] = city
		y.LinkCity[x.ASN] = city
	}
	link(a10, a20, "p2c", 1)
	link(a10, a30, "p2p", 1)
	link(a40, a10, "p2c", 3)
	link(a40, a30, "p2c", 2)

	a10.Plan = plan
	a10.TagsLocation = true
	a10.TagsRelationship = true
	a20.Prefixes = []bgp.Prefix{bgp.MustParsePrefix("192.0.2.0/24")}

	// Order: customers before providers.
	t.Order = []uint32{20, 30, 10, 40}
	return t
}

// semCfg forces deterministic origin tagging: action communities always
// used, no noise.
func semCfg() Config {
	return Config{
		Seed:          1,
		Collectors:    1,
		VantagePoints: 4,
		ActionUseProb: 1.0,
	}
}

func planWith(defs ...dict.Def) *dict.Plan {
	p := dict.NewPlan(10)
	for i := range defs {
		p.BeginBlock()
		if err := p.Add(&defs[i]); err != nil {
			panic(err)
		}
	}
	return p
}

// viewOf returns the view a VP has for the prefix, or nil.
func viewOf(day *DayResult, vp uint32) *View {
	for i := range day.Views {
		if day.Views[i].VP == vp && day.Views[i].Prefix == bgp.MustParsePrefix("192.0.2.0/24") {
			return &day.Views[i]
		}
	}
	return nil
}

func TestSuppressToTargetHonored(t *testing.T) {
	// The only action community: "do not export to AS30".
	plan := planWith(dict.Def{Value: 9, Sub: dict.SubSuppress, TargetAS: 30})
	topo := handTopo(plan)
	sim := New(topo, semCfg())
	day := sim.RunDay(0)

	// AS30 must not receive the route from AS10 directly; the only other
	// route is via AS40 (30 is 40's customer).
	v30 := viewOf(day, 30)
	if v30 == nil {
		t.Fatal("AS30 has no route at all; expected one via AS40")
	}
	if len(v30.Path) < 2 || v30.Path[1] != 40 {
		t.Fatalf("AS30 path = %v, want via AS40 (direct 10-30 suppressed)", v30.Path)
	}
	// The suppressed community still travels on the surviving route:
	// that is the off-path signal.
	if !hasComm(v30.Comms, 10, 9) {
		t.Errorf("AS30 route lost the action community: %v", v30.Comms)
	}
	// AS40 still gets the route (only AS30 was targeted).
	if v40 := viewOf(day, 40); v40 == nil {
		t.Error("AS40 missing route; suppress leaked to the wrong session")
	}
}

func TestPrependHonored(t *testing.T) {
	plan := planWith(dict.Def{Value: 2, Sub: dict.SubSetAttribute, TargetAS: 30, Prepend: 2})
	topo := handTopo(plan)
	sim := New(topo, semCfg())
	day := sim.RunDay(0)

	v30 := viewOf(day, 30)
	if v30 == nil {
		t.Fatal("AS30 has no route")
	}
	// Path via 10 with 2 extra prepends: [30 10 10 10 20] — or via 40 if
	// prepending made it longer than the alternative (40's path is
	// [30 40 10 20], length 4 vs 5, but peer routes lose to customer
	// routes only in 30's selection: 10 is a peer, 40 is a provider, so
	// the peer route wins on local-pref despite prepending).
	count10 := 0
	for _, asn := range v30.Path {
		if asn == 10 {
			count10++
		}
	}
	if count10 != 3 {
		t.Fatalf("AS30 path = %v, want AS10 prepended 3 times total", v30.Path)
	}
}

func TestNoExportConfines(t *testing.T) {
	plan := planWith(dict.Def{Value: 100, Sub: dict.SubOtherInfo})
	topo := handTopo(plan)
	cfg := semCfg()
	cfg.ActionUseProb = 0
	cfg.NoExportProb = 1.0
	sim := New(topo, cfg)
	day := sim.RunDay(0)

	// AS10 (direct provider) sees the route; AS30/AS40 never do.
	if v := viewOf(day, 10); v == nil {
		t.Error("AS10 should hold the NO_EXPORT route")
	}
	if v := viewOf(day, 30); v != nil {
		t.Errorf("AS30 received a NO_EXPORT route: %v", v.Path)
	}
	if v := viewOf(day, 40); v != nil {
		t.Errorf("AS40 received a NO_EXPORT route: %v", v.Path)
	}
}

func TestIngressTagging(t *testing.T) {
	plan := planWith(
		dict.Def{Value: 500, Sub: dict.SubLocation, City: 1, Region: 1},
		dict.Def{Value: 800, Sub: dict.SubRelationship, Rel: topology.RelCustomer},
	)
	topo := handTopo(plan)
	cfg := semCfg()
	cfg.ActionUseProb = 0
	sim := New(topo, cfg)
	day := sim.RunDay(0)

	// AS10 learns from customer AS20 at city 1: it must tag both the
	// location and the relationship community, visible downstream at 30.
	v30 := viewOf(day, 30)
	if v30 == nil {
		t.Fatal("AS30 has no route")
	}
	if !hasComm(v30.Comms, 10, 500) {
		t.Errorf("missing location tag: %v", v30.Comms)
	}
	if !hasComm(v30.Comms, 10, 800) {
		t.Errorf("missing relationship tag: %v", v30.Comms)
	}

	// The session's city is the sender's record of it: with AS10 placing
	// the AS20 session in city 3 (no location value) and AS20 placing it
	// in city 1, AS10 still tags city 1.
	topo.ASes[10].LinkCity[20] = 3
	day = New(topo, cfg).RunDay(0)
	if v30 = viewOf(day, 30); v30 == nil || !hasComm(v30.Comms, 10, 500) {
		t.Errorf("location tag not taken from the sender's session city: %v", v30)
	}
}

func TestBlackholeAbsorbed(t *testing.T) {
	plan := planWith(dict.Def{Value: 666, Sub: dict.SubBlackhole})
	topo := handTopo(plan)
	cfg := semCfg()
	cfg.ActionUseProb = 0
	cfg.BlackholeProb = 1.0
	sim := New(topo, cfg)
	day := sim.RunDay(0)

	// The blackhole /32 exists (prefix count grew) and reaches AS10, but
	// AS10 must not re-export it.
	var bh bgp.Prefix
	found := false
	for _, v := range day.Views {
		if v.Prefix.Bits() == 32 {
			bh = v.Prefix
			found = true
		}
	}
	if !found {
		t.Fatal("no blackhole /32 observed anywhere")
	}
	for _, v := range day.Views {
		if v.Prefix != bh {
			continue
		}
		if v.VP != 10 && v.VP != 20 {
			t.Errorf("blackholed /32 escaped to AS%d via %v", v.VP, v.Path)
		}
	}
}

func TestLocalPrefActionChangesSelection(t *testing.T) {
	// The origin sets AS10's region-scoped "local-pref 50 in region 1"
	// community. AS20 multihomes to AS30 as well, so AS10 sees the route
	// twice: from its customer AS20 at city 1 (region 1 — depreferenced
	// to 50) and from its peer AS30 at city 3 (region 2 — default 100).
	// The peer route must win selection at AS10, the classic
	// customer-driven backup-link setup.
	plan := planWith(dict.Def{Value: 50, Sub: dict.SubSetAttribute, HasLocalPref: true, LocalPref: 50, TargetRegion: 1})
	topo := handTopo(plan)
	a10, a20, a30 := topo.ASes[10], topo.ASes[20], topo.ASes[30]
	a30.Customers = append(a30.Customers, 20)
	a20.Providers = append(a20.Providers, 30)
	a30.LinkCity[20] = 1
	a20.LinkCity[30] = 1
	// Move the 10-30 peering session to region 2.
	a10.LinkCity[30] = 3
	a30.LinkCity[10] = 3

	sim := New(topo, semCfg())
	day := sim.RunDay(0)
	v10 := viewOf(day, 10)
	if v10 == nil {
		t.Fatal("AS10 has no route")
	}
	// Without the local-pref community AS10 would use its direct
	// customer route [10 20]; with it, the peer route via AS30 wins.
	if len(v10.Path) < 2 || v10.Path[1] != 30 {
		t.Fatalf("AS10 path = %v; region-scoped local-pref action not honored", v10.Path)
	}
}

func hasComm(comms bgp.Communities, asn, val uint16) bool {
	return comms.Has(bgp.NewCommunity(asn, val))
}

// TestDownLinkCarriesNothing flaps one of multihomed AS20's two provider
// links every day. The provider across the down link reaches AS20's
// prefix only the long way round, and AS20 reaches AS30's prefix only
// through the other provider, although the down one wins the tie.
func TestDownLinkCarriesNothing(t *testing.T) {
	topo := handTopo(planWith())
	a20, a40 := topo.ASes[20], topo.ASes[40]
	a40.Customers = append(a40.Customers, 20)
	a20.Providers = append(a20.Providers, 40)
	a40.LinkCity[20], a20.LinkCity[40] = 2, 2
	other := bgp.MustParsePrefix("198.51.100.0/24")
	topo.ASes[30].Prefixes = []bgp.Prefix{other}
	cfg := semCfg()
	cfg.ActionUseProb = 0
	cfg.LinkFlapFrac = 1
	sim := New(topo, cfg)
	wasDown := make(map[uint32]bool)
	for d := 0; d < 8; d++ {
		day := sim.RunDay(d)
		var down []uint32
		for _, p := range []uint32{10, 40} {
			if v := viewOf(day, p); v == nil || len(v.Path) != 2 {
				down = append(down, p)
			}
		}
		if len(down) != 1 {
			t.Fatalf("day %d: providers without a direct route from AS20: %v, want one", d, down)
		}
		wasDown[down[0]] = true
		for _, v := range day.Views {
			if v.VP == 20 && v.Prefix == other && (len(v.Path) < 2 || v.Path[1] == down[0]) {
				t.Errorf("day %d: AS20 reaches %v over the down link to AS%d: %v", d, other, down[0], v.Path)
			}
		}
	}
	if !wasDown[10] || !wasDown[40] {
		t.Errorf("links down over 8 days: %v, want both providers' in turn", wasDown)
	}
}

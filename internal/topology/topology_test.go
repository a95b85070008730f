package topology

import (
	"reflect"
	"testing"

	"bgpintent/internal/dict"
)

func genTiny(t *testing.T) *Topology {
	t.Helper()
	topo, err := Generate(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestGenerateValidates(t *testing.T) {
	topo := genTiny(t)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Order, b.Order) {
		t.Fatal("Order differs across identical generations")
	}
	for asn, asA := range a.ASes {
		asB := b.ASes[asn]
		if asB == nil {
			t.Fatalf("AS%d missing in second generation", asn)
		}
		if !reflect.DeepEqual(asA.Providers, asB.Providers) ||
			!reflect.DeepEqual(asA.Customers, asB.Customers) ||
			!reflect.DeepEqual(asA.Peers, asB.Peers) {
			t.Fatalf("AS%d adjacency differs", asn)
		}
		if (asA.Plan == nil) != (asB.Plan == nil) {
			t.Fatalf("AS%d plan presence differs", asn)
		}
		if asA.Plan != nil && !reflect.DeepEqual(asA.Plan.Values(), asB.Plan.Values()) {
			t.Fatalf("AS%d plan values differ", asn)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg := TinyConfig()
	a, _ := Generate(cfg)
	cfg.Seed = 999
	b, _ := Generate(cfg)
	// Some stub's providers should differ between seeds.
	diff := false
	for asn, asA := range a.ASes {
		if asB, ok := b.ASes[asn]; ok && !reflect.DeepEqual(asA.Providers, asB.Providers) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical provider edges")
	}
}

func TestGenerateTierCounts(t *testing.T) {
	cfg := TinyConfig()
	topo := genTiny(t)
	s := topo.Stats()
	if s.Tier1 != cfg.Tier1 || s.Tier2 != cfg.Tier2 || s.Tier3 != cfg.Tier3 || s.Stubs != cfg.Stubs {
		t.Errorf("tiers = %d/%d/%d/%d, want %d/%d/%d/%d",
			s.Tier1, s.Tier2, s.Tier3, s.Stubs, cfg.Tier1, cfg.Tier2, cfg.Tier3, cfg.Stubs)
	}
	if s.ASes != cfg.Tier1+cfg.Tier2+cfg.Tier3+cfg.Stubs {
		t.Errorf("ASes = %d", s.ASes)
	}
	if s.IXPs != cfg.IXPs {
		t.Errorf("IXPs = %d, want %d", s.IXPs, cfg.IXPs)
	}
	if s.Prefixes < s.ASes {
		t.Errorf("prefixes = %d < ASes", s.Prefixes)
	}
}

func TestTier1Clique(t *testing.T) {
	topo := genTiny(t)
	var t1s []uint32
	for asn, a := range topo.ASes {
		if a.Tier == TierT1 {
			t1s = append(t1s, asn)
		}
	}
	for _, a := range t1s {
		for _, b := range t1s {
			if a == b {
				continue
			}
			rel, ok := topo.ASes[a].RelWith(b)
			if !ok || rel != RelPeer {
				t.Errorf("tier-1 AS%d and AS%d not peers (rel=%d ok=%v)", a, b, rel, ok)
			}
		}
	}
	// Tier-1s have no providers.
	for _, asn := range t1s {
		if len(topo.ASes[asn].Providers) != 0 {
			t.Errorf("tier-1 AS%d has providers", asn)
		}
	}
}

func TestEveryNonTier1HasProvider(t *testing.T) {
	topo := genTiny(t)
	for asn, a := range topo.ASes {
		if a.Tier == TierT1 {
			continue
		}
		if len(a.Providers) == 0 {
			t.Errorf("AS%d (tier %d) has no providers", asn, a.Tier)
		}
	}
}

func TestRegionsAndCities(t *testing.T) {
	topo := genTiny(t)
	if topo.Region(0) != 0 {
		t.Error("Region(0) should be 0")
	}
	for r := 1; r <= topo.NumRegions; r++ {
		for k := 0; k < topo.CitiesPerRegion; k++ {
			city := topo.CityID(r, k)
			if got := topo.Region(city); got != r {
				t.Errorf("Region(CityID(%d,%d)=%d) = %d", r, k, city, got)
			}
		}
	}
	for asn, a := range topo.ASes {
		if len(a.Cities) == 0 {
			t.Errorf("AS%d has no cities", asn)
		}
		for _, c := range a.Cities {
			if c < 1 || c > topo.NumRegions*topo.CitiesPerRegion {
				t.Errorf("AS%d city %d out of range", asn, c)
			}
		}
	}
}

func TestSiblings(t *testing.T) {
	topo := genTiny(t)
	s := topo.Stats()
	if s.MultiASOrgs == 0 {
		t.Fatal("no multi-AS orgs generated")
	}
	found := false
	for _, members := range topo.Orgs {
		if len(members) < 2 {
			continue
		}
		found = true
		for _, m := range members {
			sibs := topo.Siblings(m)
			if len(sibs) != len(members)-1 {
				t.Errorf("AS%d siblings = %v, org = %v", m, sibs, members)
			}
			for _, s := range sibs {
				if s == m {
					t.Errorf("AS%d lists itself as sibling", m)
				}
			}
		}
	}
	if !found {
		t.Error("no sibling group inspected")
	}
	if got := topo.Siblings(4294967295); got != nil {
		t.Errorf("Siblings(unknown) = %v", got)
	}
}

func TestPlansGenerated(t *testing.T) {
	topo := genTiny(t)
	s := topo.Stats()
	if s.PlansDefined == 0 || s.ActionDefs == 0 || s.InfoDefs == 0 {
		t.Fatalf("plan stats = %+v", s)
	}
	// Every tier-1 and tier-2 AS has a plan with both categories.
	for asn, a := range topo.ASes {
		if a.Tier > TierT2 {
			continue
		}
		if a.Plan == nil {
			t.Errorf("AS%d (tier %d) has no plan", asn, a.Tier)
			continue
		}
		perCategory := make(map[dict.Category]int)
		for _, d := range a.Plan.Defs {
			perCategory[d.Category()]++
		}
		if perCategory[dict.CatAction] == 0 {
			t.Errorf("AS%d plan has no action communities", asn)
		}
		if perCategory[dict.CatInformation] == 0 {
			t.Errorf("AS%d plan has no information communities", asn)
		}
	}
}

func TestPlanBlocksAreOrderedAndDisjoint(t *testing.T) {
	topo := genTiny(t)
	for asn, a := range topo.ASes {
		if a.Plan == nil {
			continue
		}
		blocks := a.Plan.Blocks
		for i := range blocks {
			if blocks[i].Lo > blocks[i].Hi {
				t.Errorf("AS%d block %d inverted: %+v", asn, i, blocks[i])
			}
			if i > 0 && blocks[i].Lo <= blocks[i-1].Hi {
				t.Errorf("AS%d blocks %d/%d overlap: %+v %+v", asn, i-1, i, blocks[i-1], blocks[i])
			}
		}
		// Every def lies in some block of its own category.
		for v, d := range a.Plan.Defs {
			ok := false
			for _, b := range blocks {
				if v >= b.Lo && v <= b.Hi && b.Category() == d.Category() {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("AS%d def %d (%v) not covered by a same-category block", asn, v, d.Sub)
			}
		}
	}
}

func TestPlanIntraBlockGapsBounded(t *testing.T) {
	// Values inside one block must be close together (the clustering
	// method's premise); the generator keeps intra-block spacing ≤ 100.
	topo := genTiny(t)
	for asn, a := range topo.ASes {
		if a.Plan == nil {
			continue
		}
		for _, b := range a.Plan.Blocks {
			var vals []uint16
			for v := range a.Plan.Defs {
				if v >= b.Lo && v <= b.Hi {
					vals = append(vals, v)
				}
			}
			sortU16(vals)
			for i := 1; i < len(vals); i++ {
				if int(vals[i])-int(vals[i-1]) > 100 {
					t.Errorf("AS%d block [%d,%d]: intra gap %d", asn, b.Lo, b.Hi, vals[i]-vals[i-1])
				}
			}
		}
	}
}

func TestInterBlockGapsBounded(t *testing.T) {
	topo := genTiny(t)
	for asn, a := range topo.ASes {
		if a.Plan == nil {
			continue
		}
		for i := 1; i < len(a.Plan.Blocks); i++ {
			gap := int(a.Plan.Blocks[i].Lo) - int(a.Plan.Blocks[i-1].Hi)
			if gap < 140 {
				t.Errorf("AS%d inter-block gap %d < 140 (blocks %+v %+v)",
					asn, gap, a.Plan.Blocks[i-1], a.Plan.Blocks[i])
			}
		}
	}
}

func TestIXPStructure(t *testing.T) {
	topo := genTiny(t)
	if len(topo.IXPs) == 0 {
		t.Fatal("no IXPs")
	}
	for _, ix := range topo.IXPs {
		if ix.Plan == nil {
			t.Errorf("IXP %d has no route-server plan", ix.ID)
		}
		if len(ix.Members) < 2 {
			t.Errorf("IXP %d has %d members", ix.ID, len(ix.Members))
		}
		// Route server ASN is not an AS in the topology (never on-path).
		if _, ok := topo.ASes[ix.RouteServerASN]; ok {
			t.Errorf("route server AS%d is a topology AS", ix.RouteServerASN)
		}
		// Members are mutually reachable through IXP peering.
		for i, a := range ix.Members {
			for _, b := range ix.Members[i+1:] {
				asA := topo.ASes[a]
				if rel, ok := asA.RelWith(b); !ok || rel != RelPeer {
					// They may also have a bilateral relationship that
					// takes precedence; IXPPeers must still know them
					// unless a bilateral link existed first.
					if _, ixpOK := asA.IXPPeers[b]; !ixpOK {
						if _, bilOK := asA.RelWith(b); !bilOK {
							t.Errorf("IXP %d members AS%d/AS%d unconnected", ix.ID, a, b)
						}
					}
				}
			}
		}
	}
}

func TestEpochGrowthIsMonotone(t *testing.T) {
	cfg := TinyConfig()
	base, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Epoch = 3
	grown, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(grown.ASes) <= len(base.ASes) {
		t.Errorf("epoch 3 has %d ASes, base %d", len(grown.ASes), len(base.ASes))
	}
	// Every base plan value survives, and some plans gained values.
	gained := 0
	for asn, a := range base.ASes {
		if a.Plan == nil {
			continue
		}
		g := grown.ASes[asn]
		if g == nil || g.Plan == nil {
			t.Fatalf("AS%d lost its plan after growth", asn)
		}
		for v := range a.Plan.Defs {
			if _, ok := g.Plan.Defs[v]; !ok {
				t.Fatalf("AS%d lost community value %d after growth", asn, v)
			}
		}
		if len(g.Plan.Defs) > len(a.Plan.Defs) {
			gained++
		}
	}
	if gained == 0 {
		t.Error("no plan gained communities across epochs")
	}
}

func TestFilteringFractionNonZero(t *testing.T) {
	topo := genTiny(t)
	if topo.Stats().Filtering == 0 {
		t.Error("no community-filtering ASes generated")
	}
}

func TestValidateCatchesBrokenTopology(t *testing.T) {
	topo := genTiny(t)
	// Break symmetry: add a provider nobody lists as customer.
	var victim *AS
	for _, a := range topo.ASes {
		if a.Tier == TierStub {
			victim = a
			break
		}
	}
	victim.Providers = append(victim.Providers, 100)
	// Ensure not already a provider relationship.
	if err := topo.Validate(); err == nil {
		t.Error("Validate accepted asymmetric provider edge")
	}
}

func sortU16(v []uint16) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

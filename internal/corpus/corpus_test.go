package corpus

import (
	"strings"
	"testing"

	"bgpintent/internal/dict"
)

func buildTiny(t *testing.T) *Corpus {
	t.Helper()
	c, err := Build(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildTiny(t *testing.T) {
	c := buildTiny(t)
	if c.Store.Len() == 0 {
		t.Fatal("empty store")
	}
	if c.Dict.ASNs() == 0 || c.Dict.Len() == 0 {
		t.Fatal("empty dictionary")
	}
	if len(c.DictASNs) != c.Dict.ASNs() {
		t.Errorf("DictASNs = %d, dict covers %d", len(c.DictASNs), c.Dict.ASNs())
	}
	if c.Orgs.Len() == 0 {
		t.Error("empty org map")
	}
}

func TestDictionaryMatchesPlans(t *testing.T) {
	c := buildTiny(t)
	// Every dictionary label must agree with the defining plan for the
	// values the plan defines.
	checked := 0
	for _, asn := range c.DictASNs {
		plan := c.Topo.ASes[asn].Plan
		if plan == nil {
			t.Fatalf("dict AS%d has no plan", asn)
		}
		for _, v := range plan.Values() {
			want := plan.Category(v)
			got := c.Dict.Category(asn, v)
			if got != want {
				t.Fatalf("AS%d value %d: dict=%v plan=%v", asn, v, got, want)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Errorf("only %d values checked", checked)
	}
}

func TestDictionaryPrefersBigPlans(t *testing.T) {
	c := buildTiny(t)
	// Covered plans must be at least as large as uncovered ones.
	minCovered := 1 << 30
	for _, asn := range c.DictASNs {
		if n := len(c.Topo.ASes[asn].Plan.Defs); n < minCovered {
			minCovered = n
		}
	}
	covered := make(map[uint32]bool)
	for _, asn := range c.DictASNs {
		covered[asn] = true
	}
	for _, asn := range c.Topo.Order {
		a := c.Topo.ASes[asn]
		if a.Plan == nil || covered[asn] || a.TagASN != 0 {
			continue
		}
		if len(a.Plan.Defs) > minCovered {
			t.Errorf("uncovered AS%d has %d defs > smallest covered %d", asn, len(a.Plan.Defs), minCovered)
		}
	}
}

func TestTruthCategory(t *testing.T) {
	c := buildTiny(t)
	found := false
	for _, asn := range c.DictASNs {
		plan := c.Topo.ASes[asn].Plan
		for _, v := range plan.Values() {
			if got := c.TruthCategory(asn, v); got != plan.Category(v) {
				t.Fatalf("TruthCategory(%d,%d) = %v, want %v", asn, v, got, plan.Category(v))
			}
			found = true
		}
		break
	}
	if !found {
		t.Fatal("no plan values checked")
	}
	// Route server plans resolve too.
	rs := c.Topo.IXPs[0]
	if rs.Plan != nil {
		v := rs.Plan.Values()[0]
		if got := c.TruthCategory(rs.RouteServerASN, v); got == dict.CatUnknown {
			t.Error("route-server community has no truth category")
		}
	}
	if got := c.TruthCategory(4294900000, 5); got != dict.CatUnknown {
		t.Errorf("unknown ASN truth = %v", got)
	}
}

func TestOrgMapCoverage(t *testing.T) {
	full := buildTiny(t)
	m1 := OrgMapOf(full.Topo, 1.0)
	m2 := OrgMapOf(full.Topo, 0.5)
	if m2.Len() >= m1.Len() {
		t.Errorf("coverage 0.5 (%d) not smaller than 1.0 (%d)", m2.Len(), m1.Len())
	}
	// Full coverage includes every multi-org member.
	want := 0
	for _, members := range full.Topo.Orgs {
		if len(members) > 1 {
			want += len(members)
		}
	}
	if m1.Len() != want {
		t.Errorf("full coverage = %d, want %d", m1.Len(), want)
	}
}

func TestLoadDayIncremental(t *testing.T) {
	cfg := TinyConfig()
	cfg.Days = 1
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Store.Len()
	c.LoadDay(1)
	if c.Store.Len() <= before {
		t.Errorf("second day added no tuples: %d -> %d", before, c.Store.Len())
	}
}

func TestEpochGrowsCommunities(t *testing.T) {
	base := buildTiny(t)
	cfg := TinyConfig()
	cfg.Epoch = 4
	grown, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(grown.Store.Communities()) <= len(base.Store.Communities()) {
		t.Errorf("epoch 4 observed %d communities, base %d",
			len(grown.Store.Communities()), len(base.Store.Communities()))
	}
}

func TestDictionarySerializes(t *testing.T) {
	c := buildTiny(t)
	var b strings.Builder
	if _, err := c.Dict.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	reparsed, err := dict.ReadDictionary(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if reparsed.Len() != c.Dict.Len() {
		t.Errorf("round trip %d entries, want %d", reparsed.Len(), c.Dict.Len())
	}
}

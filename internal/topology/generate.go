package topology

import (
	"fmt"
	"math/rand"
	"sort"
)

// Config controls topology generation. All randomness is derived from
// Seed through per-entity streams (an AS's neighbors, cities and plan
// depend only on Seed and its own ASN), so growing the topology — more
// stubs in a later Epoch — leaves existing structure unchanged, which the
// longitudinal experiment relies on.
type Config struct {
	Seed int64

	// Tier sizes.
	Tier1, Tier2, Tier3, Stubs int

	// Geography.
	Regions, CitiesPerRegion int

	// IXPs is the number of exchanges, placed round-robin over regions.
	IXPs int

	// StubMultihome gives the probabilities of a stub having 1, 2 or 3
	// providers. Multihoming is what pushes action communities off-path.
	StubMultihome [3]float64

	// SiblingOrgFrac is the fraction of transit ASes grouped into
	// multi-AS organizations.
	SiblingOrgFrac float64

	// FilterFrac is the fraction of ASes that strip all communities on
	// export (≈400 of 75k in the wild).
	FilterFrac float64

	// Tier3PlanFrac is the fraction of tier-3 ASes that define community
	// plans (all tier-1/2 ASes do).
	Tier3PlanFrac float64

	// StubInfoPlanFrac is the fraction of stubs with a small
	// information-only plan they tag at origination.
	StubInfoPlanFrac float64

	// T2PeerProb is the probability that two region-overlapping tier-2
	// ASes peer bilaterally.
	T2PeerProb float64

	// T3PeerProb is the same for tier-3 ASes in the same region.
	T3PeerProb float64

	// IXPJoinProbTransit/Stub are the per-AS probabilities of joining the
	// IXP in the AS's home region.
	IXPJoinProbTransit float64
	IXPJoinProbStub    float64

	// Epoch models growth over time: later epochs append extra
	// information blocks to some plans and add stubs, leaving everything
	// already generated untouched.
	Epoch int

	// EpochStubGrowth is how many stubs each epoch adds.
	EpochStubGrowth int
}

// DefaultConfig returns the corpus-scale configuration used by the
// benchmark harness: ~1,300 ASes.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		Tier1:              8,
		Tier2:              48,
		Tier3:              220,
		Stubs:              1000,
		Regions:            5,
		CitiesPerRegion:    6,
		IXPs:               5,
		StubMultihome:      [3]float64{0.45, 0.35, 0.20},
		SiblingOrgFrac:     0.12,
		FilterFrac:         0.02,
		Tier3PlanFrac:      0.55,
		StubInfoPlanFrac:   0.08,
		T2PeerProb:         0.18,
		T3PeerProb:         0.02,
		IXPJoinProbTransit: 0.30,
		IXPJoinProbStub:    0.04,
		EpochStubGrowth:    4,
	}
}

// LargeConfig returns a corpus several times the default benchmark
// scale (~4,200 ASes), for runs that want to stress the pipeline closer
// to the paper's population. Expect tens of seconds per simulated day.
func LargeConfig() Config {
	cfg := DefaultConfig()
	cfg.Tier1 = 12
	cfg.Tier2 = 110
	cfg.Tier3 = 600
	cfg.Stubs = 3500
	cfg.Regions = 6
	cfg.CitiesPerRegion = 6
	cfg.IXPs = 12
	cfg.EpochStubGrowth = 15
	return cfg
}

// TinyConfig returns a fast configuration for unit tests: ~170 ASes.
func TinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Tier1 = 4
	cfg.Tier2 = 12
	cfg.Tier3 = 40
	cfg.Stubs = 110
	cfg.Regions = 3
	cfg.CitiesPerRegion = 4
	cfg.IXPs = 2
	cfg.IXPJoinProbTransit = 0.5
	cfg.IXPJoinProbStub = 0.1
	cfg.EpochStubGrowth = 8
	return cfg
}

// ASN bases per tier; generated ASNs are deterministic functions of the
// tier-local index.
const (
	asnBaseT1   = 100
	asnBaseT2   = 1000
	asnBaseT3   = 10000
	asnBaseStub = 30000
	asnBaseRS   = 62000
)

// Salts for the per-entity random streams.
const (
	saltGeo   = 0x6e0
	saltEdge  = 0xed6e
	saltPeer  = 0x9ee5
	saltIXP   = 0x1c39
	saltOrg   = 0x0569
	saltMisc  = 0xa11ce
	saltPlan  = 0x9fab
	saltCount = 0xc047
)

// Generate builds a topology from cfg. The result is deterministic for a
// given configuration.
func Generate(cfg Config) (*Topology, error) {
	if cfg.Regions <= 0 || cfg.CitiesPerRegion <= 0 {
		return nil, fmt.Errorf("topology: need at least one region and city")
	}
	if cfg.Tier1 < 2 {
		return nil, fmt.Errorf("topology: need at least two tier-1 ASes")
	}
	if cfg.Tier2 < 1 || cfg.Tier3 < 1 || cfg.Stubs < 1 {
		return nil, fmt.Errorf("topology: every tier needs at least one AS")
	}
	t := &Topology{
		ASes:            make(map[uint32]*AS),
		Orgs:            make(map[int][]uint32),
		NumRegions:      cfg.Regions,
		CitiesPerRegion: cfg.CitiesPerRegion,
	}
	stubs := cfg.Stubs + cfg.Epoch*cfg.EpochStubGrowth

	var t1s, t2s, t3s, stubASNs []uint32
	newAS := func(asn uint32, tier int) *AS {
		a := &AS{ASN: asn, Tier: tier, LinkCity: make(map[uint32]int)}
		t.ASes[asn] = a
		return a
	}

	// Tier 1: global presence, up to two cities per region.
	for i := 0; i < cfg.Tier1; i++ {
		asn := uint32(asnBaseT1 + i)
		a := newAS(asn, TierT1)
		rng := perASRand(cfg.Seed, asn, saltGeo)
		a.HomeRegion = 1 + i%cfg.Regions
		for r := 1; r <= cfg.Regions; r++ {
			a.Cities = append(a.Cities, t.CityID(r, rng.Intn(cfg.CitiesPerRegion)))
			if cfg.CitiesPerRegion > 1 {
				c2 := t.CityID(r, rng.Intn(cfg.CitiesPerRegion))
				if c2 != a.Cities[len(a.Cities)-1] {
					a.Cities = append(a.Cities, c2)
				}
			}
		}
		sort.Ints(a.Cities)
		t1s = append(t1s, asn)
	}
	// Tier 2: home region plus 1-2 extra regions.
	for i := 0; i < cfg.Tier2; i++ {
		asn := uint32(asnBaseT2 + i)
		a := newAS(asn, TierT2)
		rng := perASRand(cfg.Seed, asn, saltGeo)
		a.HomeRegion = 1 + rng.Intn(cfg.Regions)
		regions := []int{a.HomeRegion}
		for k := 0; k < 1+rng.Intn(2); k++ {
			r := 1 + rng.Intn(cfg.Regions)
			if !containsInt(regions, r) {
				regions = append(regions, r)
			}
		}
		for _, r := range regions {
			a.Cities = append(a.Cities, t.CityID(r, rng.Intn(cfg.CitiesPerRegion)))
		}
		sort.Ints(a.Cities)
		t2s = append(t2s, asn)
	}
	// Tier 3: regional, 1-3 cities in the home region.
	for i := 0; i < cfg.Tier3; i++ {
		asn := uint32(asnBaseT3 + i)
		a := newAS(asn, TierT3)
		rng := perASRand(cfg.Seed, asn, saltGeo)
		a.HomeRegion = 1 + rng.Intn(cfg.Regions)
		n := 1 + rng.Intn(3)
		for k := 0; k < n; k++ {
			c := t.CityID(a.HomeRegion, rng.Intn(cfg.CitiesPerRegion))
			if !containsInt(a.Cities, c) {
				a.Cities = append(a.Cities, c)
			}
		}
		sort.Ints(a.Cities)
		t3s = append(t3s, asn)
	}
	// Stubs: one city.
	for i := 0; i < stubs; i++ {
		asn := uint32(asnBaseStub + i)
		a := newAS(asn, TierStub)
		rng := perASRand(cfg.Seed, asn, saltGeo)
		a.HomeRegion = 1 + rng.Intn(cfg.Regions)
		a.Cities = []int{t.CityID(a.HomeRegion, rng.Intn(cfg.CitiesPerRegion))}
		stubASNs = append(stubASNs, asn)
	}

	// Tier-1 clique.
	for i, a := range t1s {
		for _, b := range t1s[i+1:] {
			rng := pairRand(cfg.Seed, a, b, saltPeer)
			addPeer(t, a, b, sessionCity(t, rng, a, b))
		}
	}
	// Tier-2 customers of 1-3 tier-1s.
	for _, asn := range t2s {
		rng := perASRand(cfg.Seed, asn, saltEdge)
		n := 1 + rng.Intn(3)
		for _, p := range pickDistinct(rng, t1s, n) {
			addP2C(t, p, asn, sessionCity(t, rng, p, asn))
		}
	}
	// Tier-2 bilateral peering with region overlap.
	for i, a := range t2s {
		for _, b := range t2s[i+1:] {
			if !regionOverlap(t, a, b) {
				continue
			}
			rng := pairRand(cfg.Seed, a, b, saltPeer)
			if rng.Float64() < cfg.T2PeerProb {
				addPeer(t, a, b, sessionCity(t, rng, a, b))
			}
		}
	}
	// Tier-3 customers of 1-3 tier-2s, preferring region overlap.
	for _, asn := range t3s {
		rng := perASRand(cfg.Seed, asn, saltEdge)
		n := 1 + rng.Intn(3)
		cands := preferRegion(t, rng, t2s, asn)
		for _, p := range cands[:min(n, len(cands))] {
			addP2C(t, p, asn, sessionCity(t, rng, p, asn))
		}
	}
	// Tier-3 peering inside a region.
	for i, a := range t3s {
		for _, b := range t3s[i+1:] {
			if t.ASes[a].HomeRegion != t.ASes[b].HomeRegion {
				continue
			}
			rng := pairRand(cfg.Seed, a, b, saltPeer)
			if rng.Float64() < cfg.T3PeerProb {
				addPeer(t, a, b, sessionCity(t, rng, a, b))
			}
		}
	}
	// Stubs: 1-3 providers from tier-2 (20%) / tier-3 (80%) in region.
	for _, asn := range stubASNs {
		rng := perASRand(cfg.Seed, asn, saltEdge)
		n := 1
		r := rng.Float64()
		switch {
		case r < cfg.StubMultihome[2]:
			n = 3
		case r < cfg.StubMultihome[2]+cfg.StubMultihome[1]:
			n = 2
		}
		pool := t3s
		if rng.Float64() < 0.2 {
			pool = t2s
		}
		cands := preferRegion(t, rng, pool, asn)
		if len(cands) == 0 {
			cands = preferRegion(t, rng, t2s, asn)
		}
		picked := cands[:min(n, len(cands))]
		for _, p := range picked {
			addP2C(t, p, asn, sessionCity(t, rng, p, asn))
		}
		// Multihomed stubs sometimes add a tier-2 provider for path
		// diversity across tiers.
		if n >= 2 && rng.Float64() < 0.3 && len(t2s) > 0 {
			p := t2s[rng.Intn(len(t2s))]
			if _, isNbr := t.ASes[asn].RelWith(p); !isNbr {
				addP2C(t, p, asn, sessionCity(t, rng, p, asn))
			}
		}
	}

	// IXPs: route servers with multilateral member peering. Joining is a
	// per-AS decision so membership only grows as the topology grows.
	for i := 0; i < cfg.IXPs; i++ {
		region := 1 + i%cfg.Regions
		rsASN := uint32(asnBaseRS + i)
		ixRng := perASRand(cfg.Seed, rsASN, saltIXP)
		ix := &IXP{
			ID:             i + 1,
			RouteServerASN: rsASN,
			City:           t.CityID(region, ixRng.Intn(cfg.CitiesPerRegion)),
		}
		for _, group := range [][]uint32{t2s, t3s, stubASNs} {
			for _, asn := range group {
				a := t.ASes[asn]
				if a.HomeRegion != region {
					continue
				}
				prob := cfg.IXPJoinProbTransit
				if a.Tier == TierStub {
					prob = cfg.IXPJoinProbStub
				}
				if perASRand(cfg.Seed, asn, saltIXP+int64(ix.ID)).Float64() < prob {
					ix.Members = append(ix.Members, asn)
				}
			}
		}
		sort.Slice(ix.Members, func(x, y int) bool { return ix.Members[x] < ix.Members[y] })
		for j, a := range ix.Members {
			for _, b := range ix.Members[j+1:] {
				addIXPPeer(t, a, b, ix.ID, ix.City)
			}
		}
		t.IXPs = append(t.IXPs, ix)
	}

	// Organizations: group some transit ASes into multi-AS orgs. The
	// transit population does not change with Epoch, so a dedicated
	// stream keeps groups stable.
	orgID := 1
	orgRng := rand.New(rand.NewSource(cfg.Seed ^ saltOrg))
	transit := append(append([]uint32{}, t2s...), t3s...)
	sort.Slice(transit, func(i, j int) bool { return transit[i] < transit[j] })
	orgRng.Shuffle(len(transit), func(i, j int) { transit[i], transit[j] = transit[j], transit[i] })
	grouped := make(map[uint32]bool)
	budget := int(float64(len(transit)) * cfg.SiblingOrgFrac)
	for i := 0; i+1 < len(transit) && budget > 1; {
		size := 2 + orgRng.Intn(2)
		if size > budget {
			size = budget
		}
		if i+size > len(transit) {
			break
		}
		members := transit[i : i+size]
		for _, m := range members {
			t.ASes[m].OrgID = orgID
			grouped[m] = true
		}
		t.Orgs[orgID] = append([]uint32{}, members...)
		orgID++
		i += size
		budget -= size
	}
	for _, asn := range sortedASNs(t) {
		if !grouped[asn] {
			t.ASes[asn].OrgID = orgID
			t.Orgs[orgID] = []uint32{asn}
			orgID++
		}
	}

	// Community filtering, prefix allocation (per-AS streams).
	pidx := 0
	for _, asn := range sortedASNs(t) {
		a := t.ASes[asn]
		rng := perASRand(cfg.Seed, asn, saltCount)
		if rng.Float64() < cfg.FilterFrac {
			a.FiltersCommunities = true
		}
		n := 1
		switch a.Tier {
		case TierStub:
			n = 1 + rng.Intn(3)
		case TierT3, TierT2:
			n = 1 + rng.Intn(2)
		}
		for k := 0; k < n; k++ {
			a.Prefixes = append(a.Prefixes, prefixFromIndex(pidx))
			pidx++
		}
	}

	// Community plans (per-AS deterministic randomness).
	for _, asn := range t1s {
		buildPlan(t, t.ASes[asn], cfg, planSizeLarge)
	}
	for _, asn := range t2s {
		buildPlan(t, t.ASes[asn], cfg, planSizeMedium)
	}
	for _, asn := range t3s {
		if perASRand(cfg.Seed, asn, saltMisc).Float64() < cfg.Tier3PlanFrac {
			buildPlan(t, t.ASes[asn], cfg, planSizeSmall)
		}
	}
	for _, asn := range stubASNs {
		if perASRand(cfg.Seed, asn, saltMisc).Float64() < cfg.StubInfoPlanFrac {
			buildPlan(t, t.ASes[asn], cfg, planSizeStub)
		}
	}
	for _, ix := range t.IXPs {
		buildIXPPlan(t, ix, cfg)
	}

	// Organization-wide plan sharing: sibling ASes without their own plan
	// often tag with the plan owner's ASN as α — the behavior that makes
	// the paper's on-path test sibling-aware.
	for _, members := range t.Orgs {
		if len(members) < 2 {
			continue
		}
		var leader *AS
		for _, m := range members {
			a := t.ASes[m]
			if a.Plan != nil && (leader == nil || a.ASN < leader.ASN) {
				leader = a
			}
		}
		if leader == nil {
			continue
		}
		for _, m := range members {
			a := t.ASes[m]
			if a.Plan != nil || a == leader {
				continue
			}
			if perASRand(cfg.Seed, a.ASN, saltOrg).Float64() < 0.7 {
				a.Plan = leader.Plan
				a.TagASN = leader.ASN
				a.TagsLocation = leader.TagsLocation
				a.TagsRelationship = leader.TagsRelationship
				a.TagsROV = leader.TagsROV
			}
		}
	}

	// Processing order: stubs, then tier 3, 2, 1 — customers always
	// before providers because providers come from strictly lower tiers.
	t.Order = append(t.Order, stubASNs...)
	t.Order = append(t.Order, t3s...)
	t.Order = append(t.Order, t2s...)
	t.Order = append(t.Order, t1s...)

	return t, nil
}

// sessionCity picks the city of a BGP session between a and b: a common
// city if one exists, otherwise one of the second AS's cities (the
// provider builds out to meet its customer).
func sessionCity(t *Topology, rng *rand.Rand, a, b uint32) int {
	ca, cb := t.ASes[a].Cities, t.ASes[b].Cities
	var common []int
	set := make(map[int]bool, len(ca))
	for _, c := range ca {
		set[c] = true
	}
	for _, c := range cb {
		if set[c] {
			common = append(common, c)
		}
	}
	if len(common) > 0 {
		return common[rng.Intn(len(common))]
	}
	return cb[rng.Intn(len(cb))]
}

func addP2C(t *Topology, provider, customer uint32, city int) {
	p, c := t.ASes[provider], t.ASes[customer]
	if _, dup := p.RelWith(customer); dup {
		return
	}
	p.Customers = append(p.Customers, customer)
	c.Providers = append(c.Providers, provider)
	p.LinkCity[customer] = city
	c.LinkCity[provider] = city
}

func addPeer(t *Topology, a, b uint32, city int) {
	pa, pb := t.ASes[a], t.ASes[b]
	if _, dup := pa.RelWith(b); dup {
		return
	}
	pa.Peers = append(pa.Peers, b)
	pb.Peers = append(pb.Peers, a)
	pa.LinkCity[b] = city
	pb.LinkCity[a] = city
}

func addIXPPeer(t *Topology, a, b uint32, ixpID, city int) {
	pa, pb := t.ASes[a], t.ASes[b]
	if _, dup := pa.RelWith(b); dup {
		return
	}
	if pa.IXPPeers == nil {
		pa.IXPPeers = make(map[uint32]int)
	}
	if pb.IXPPeers == nil {
		pb.IXPPeers = make(map[uint32]int)
	}
	pa.IXPPeers[b] = ixpID
	pb.IXPPeers[a] = ixpID
	pa.LinkCity[b] = city
	pb.LinkCity[a] = city
}

// regionOverlap reports whether two ASes share a region of presence.
func regionOverlap(t *Topology, a, b uint32) bool {
	ra := make(map[int]bool)
	for _, c := range t.ASes[a].Cities {
		ra[t.Region(c)] = true
	}
	for _, c := range t.ASes[b].Cities {
		if ra[t.Region(c)] {
			return true
		}
	}
	return false
}

// preferRegion returns pool shuffled with region-overlapping candidates
// first.
func preferRegion(t *Topology, rng *rand.Rand, pool []uint32, asn uint32) []uint32 {
	var same, other []uint32
	for _, p := range pool {
		if regionOverlap(t, p, asn) {
			same = append(same, p)
		} else {
			other = append(other, p)
		}
	}
	rng.Shuffle(len(same), func(i, j int) { same[i], same[j] = same[j], same[i] })
	rng.Shuffle(len(other), func(i, j int) { other[i], other[j] = other[j], other[i] })
	return append(same, other...)
}

// pickDistinct samples n distinct elements from pool (fewer if the pool
// is small).
func pickDistinct(rng *rand.Rand, pool []uint32, n int) []uint32 {
	if n >= len(pool) {
		out := append([]uint32{}, pool...)
		return out
	}
	idx := rng.Perm(len(pool))[:n]
	out := make([]uint32, n)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

func sortedASNs(t *Topology) []uint32 {
	out := make([]uint32, 0, len(t.ASes))
	for asn := range t.ASes {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// perASRand derives a deterministic rng for one AS so plans do not
// reshuffle when the topology grows.
func perASRand(seed int64, asn uint32, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed) ^ uint64(asn)*0x9e3779b97f4a7c15 ^ uint64(salt)))))
}

// pairRand derives a deterministic rng for an unordered AS pair.
func pairRand(seed int64, a, b uint32, salt int64) *rand.Rand {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	x := uint64(seed) ^ uint64(lo)*0x9e3779b97f4a7c15 ^ uint64(hi)*0xc2b2ae3d27d4eb4f ^ uint64(salt)
	return rand.New(rand.NewSource(int64(mix64(x))))
}

// mix64 is the splitmix64 finalizer, for good bit diffusion.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

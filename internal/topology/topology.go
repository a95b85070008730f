// Package topology generates synthetic AS-level Internet topologies for
// the BGP community-intent corpus: a tiered transit hierarchy with
// provider-customer and peer links, geographic presence, multi-AS
// organizations, IXP route servers, and per-AS community plans whose
// contiguous block structure mirrors the operator practice the paper's
// Figures 3 and 4 document.
//
// The generator substitutes for the public Internet the paper measures
// through RouteViews/RIS: it reproduces the generating process behind the
// distributional facts the inference method exploits (see DESIGN.md §2).
package topology

import (
	"fmt"
	"net/netip"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
)

// Tier labels for generated ASes.
const (
	TierT1   = 1 // global transit clique
	TierT2   = 2 // large transit
	TierT3   = 3 // regional transit
	TierStub = 4 // edge networks
)

// Relationship values used in link maps and relationship-information
// communities.
const (
	RelCustomer = 0 // route learned from a customer
	RelPeer     = 1 // route learned from a peer
	RelProvider = 2 // route learned from a provider
)

// AS is one autonomous system in the generated topology.
type AS struct {
	ASN        uint32
	Tier       int
	OrgID      int
	HomeRegion int
	Cities     []int // global city IDs where the AS has presence

	Providers []uint32
	Customers []uint32
	Peers     []uint32

	// IXPPeers maps multilateral-peering neighbors (reached through an
	// IXP route server) to the IXP ID. Routing treats them as peers, but
	// the route server tags its own communities on these sessions while
	// staying out of the AS path.
	IXPPeers map[uint32]int

	// LinkCity records, per neighbor ASN, the city where the BGP session
	// lives; it drives location-information tagging and region-targeted
	// actions.
	LinkCity map[uint32]int

	// Plan is the AS's community plan, nil if it defines no communities.
	// Sibling ASes may share one organization-wide plan; TagASN then
	// holds the α the whole organization uses.
	Plan *dict.Plan

	// TagASN is the ASN used as α when this AS tags or interprets
	// communities; zero means the AS's own ASN. Multi-AS organizations
	// that share one plan set it to the plan owner's ASN — the reason
	// the paper's method must be sibling-aware.
	TagASN uint32

	// Which kinds of information communities the AS actually attaches at
	// ingress (an operator may document more than it deploys).
	TagsLocation     bool
	TagsRelationship bool
	TagsROV          bool

	// FiltersCommunities marks the ~2% of ASes that strip all communities
	// from routes before announcing them further.
	FiltersCommunities bool

	// Prefixes the AS originates.
	Prefixes []bgp.Prefix
}

// Alpha returns the ASN this AS uses as the α half of its communities:
// its own, unless it shares an organization-wide plan.
func (a *AS) Alpha() uint32 {
	if a.TagASN != 0 {
		return a.TagASN
	}
	return a.ASN
}

// RelWith returns the relationship of the route source asn from this AS's
// perspective (RelCustomer if asn is a customer, etc.), and whether asn
// is a neighbor at all. IXP peers report RelPeer.
func (a *AS) RelWith(asn uint32) (int, bool) {
	for _, c := range a.Customers {
		if c == asn {
			return RelCustomer, true
		}
	}
	for _, p := range a.Peers {
		if p == asn {
			return RelPeer, true
		}
	}
	if _, ok := a.IXPPeers[asn]; ok {
		return RelPeer, true
	}
	for _, p := range a.Providers {
		if p == asn {
			return RelProvider, true
		}
	}
	return 0, false
}

// IXP is an Internet exchange whose route server connects members
// multilaterally. The route server tags member routes with communities
// using its own ASN as α but never appears in the AS path — the
// configuration that makes its communities unclassifiable by the paper's
// method (§5.2).
type IXP struct {
	ID             int
	RouteServerASN uint32
	City           int
	Members        []uint32
	Plan           *dict.Plan
}

// Topology is a generated AS-level Internet.
type Topology struct {
	ASes map[uint32]*AS
	// Order lists ASNs in a deterministic order with providers strictly
	// after their customers in tier terms (stubs first): a valid
	// customer-to-provider processing order for route propagation.
	Order []uint32
	// Orgs maps organization ID to its member ASNs; multi-member orgs are
	// sibling groups.
	Orgs map[int][]uint32
	IXPs []*IXP

	NumRegions      int
	CitiesPerRegion int
}

// Region returns the region a global city ID belongs to (regions and
// cities are numbered from 1).
func (t *Topology) Region(city int) int {
	if city <= 0 {
		return 0
	}
	return (city-1)/t.CitiesPerRegion + 1
}

// CityID returns the global city ID for the k-th city (0-based) of a
// region (1-based).
func (t *Topology) CityID(region, k int) int {
	return (region-1)*t.CitiesPerRegion + k + 1
}

// Siblings returns the other ASNs in asn's organization (empty for
// singleton orgs or unknown ASNs).
func (t *Topology) Siblings(asn uint32) []uint32 {
	a, ok := t.ASes[asn]
	if !ok {
		return nil
	}
	members := t.Orgs[a.OrgID]
	out := make([]uint32, 0, len(members))
	for _, m := range members {
		if m != asn {
			out = append(out, m)
		}
	}
	return out
}

// SessionCity returns the city of the BGP session between two adjacent
// ASes, like a PeeringDB/facility lookup. ok is false when the ASes are
// not adjacent.
func (t *Topology) SessionCity(a, b uint32) (int, bool) {
	as, ok := t.ASes[a]
	if !ok {
		return 0, false
	}
	city, ok := as.LinkCity[b]
	return city, ok
}

// Stats summarizes a topology for reports and sanity checks.
type Stats struct {
	ASes, Tier1, Tier2, Tier3, Stubs int
	P2CLinks, P2PLinks               int
	PlansDefined                     int
	TotalCommunityDefs               int
	ActionDefs, InfoDefs             int
	Filtering                        int
	MultiASOrgs                      int
	IXPs                             int
	Prefixes                         int
}

// Stats computes summary statistics.
func (t *Topology) Stats() Stats {
	var s Stats
	s.ASes = len(t.ASes)
	s.IXPs = len(t.IXPs)
	for _, a := range t.ASes {
		switch a.Tier {
		case TierT1:
			s.Tier1++
		case TierT2:
			s.Tier2++
		case TierT3:
			s.Tier3++
		default:
			s.Stubs++
		}
		s.P2CLinks += len(a.Customers)
		s.P2PLinks += len(a.Peers) // counted twice; halved below
		if a.Plan != nil {
			s.PlansDefined++
			s.TotalCommunityDefs += len(a.Plan.Defs)
			for _, d := range a.Plan.Defs {
				if d.Category() == dict.CatAction {
					s.ActionDefs++
				} else {
					s.InfoDefs++
				}
			}
		}
		if a.FiltersCommunities {
			s.Filtering++
		}
		s.Prefixes += len(a.Prefixes)
	}
	s.P2PLinks /= 2
	for _, members := range t.Orgs {
		if len(members) > 1 {
			s.MultiASOrgs++
		}
	}
	return s
}

// Validate checks structural invariants: symmetric adjacency, consistent
// relationship labels, session cities assigned for every link, no AS that
// is simultaneously provider and peer of another, and an acyclic
// provider hierarchy.
func (t *Topology) Validate() error {
	for asn, a := range t.ASes {
		if a.ASN != asn {
			return fmt.Errorf("topology: AS map key %d != ASN %d", asn, a.ASN)
		}
		seen := make(map[uint32]int)
		for _, p := range a.Providers {
			seen[p]++
		}
		for _, c := range a.Customers {
			seen[c]++
		}
		for _, p := range a.Peers {
			seen[p]++
		}
		for p := range a.IXPPeers {
			seen[p]++
		}
		for n, cnt := range seen {
			if cnt > 1 {
				return fmt.Errorf("topology: AS%d has AS%d in multiple roles", asn, n)
			}
			if n == asn {
				return fmt.Errorf("topology: AS%d neighbors itself", asn)
			}
			if _, ok := a.LinkCity[n]; !ok {
				return fmt.Errorf("topology: AS%d link to AS%d has no session city", asn, n)
			}
		}
		for _, p := range a.Providers {
			pa, ok := t.ASes[p]
			if !ok {
				return fmt.Errorf("topology: AS%d provider AS%d missing", asn, p)
			}
			if !contains(pa.Customers, asn) {
				return fmt.Errorf("topology: AS%d lists provider AS%d, which does not list it as customer", asn, p)
			}
		}
		for _, p := range a.Peers {
			pa, ok := t.ASes[p]
			if !ok {
				return fmt.Errorf("topology: AS%d peer AS%d missing", asn, p)
			}
			if !contains(pa.Peers, asn) {
				return fmt.Errorf("topology: AS%d peer AS%d not symmetric", asn, p)
			}
		}
		for p, ixp := range a.IXPPeers {
			pa, ok := t.ASes[p]
			if !ok {
				return fmt.Errorf("topology: AS%d IXP peer AS%d missing", asn, p)
			}
			if pa.IXPPeers[asn] != ixp {
				return fmt.Errorf("topology: AS%d IXP peer AS%d not symmetric", asn, p)
			}
		}
	}
	// Provider hierarchy must be acyclic; colors: 0 unvisited, 1 active,
	// 2 done.
	color := make(map[uint32]int, len(t.ASes))
	var visit func(uint32) error
	visit = func(asn uint32) error {
		switch color[asn] {
		case 1:
			return fmt.Errorf("topology: provider cycle through AS%d", asn)
		case 2:
			return nil
		}
		color[asn] = 1
		for _, p := range t.ASes[asn].Providers {
			if err := visit(p); err != nil {
				return err
			}
		}
		color[asn] = 2
		return nil
	}
	for asn := range t.ASes {
		if err := visit(asn); err != nil {
			return err
		}
	}
	// Order must contain every AS exactly once, customers before
	// providers.
	if len(t.Order) != len(t.ASes) {
		return fmt.Errorf("topology: Order has %d entries for %d ASes", len(t.Order), len(t.ASes))
	}
	pos := make(map[uint32]int, len(t.Order))
	for i, asn := range t.Order {
		if _, dup := pos[asn]; dup {
			return fmt.Errorf("topology: Order repeats AS%d", asn)
		}
		pos[asn] = i
	}
	for asn, a := range t.ASes {
		for _, p := range a.Providers {
			if pos[p] <= pos[asn] {
				return fmt.Errorf("topology: Order places provider AS%d before customer AS%d", p, asn)
			}
		}
	}
	return nil
}

// prefixFromIndex deterministically assigns the idx-th /24 out of a
// documentation-style pool starting at 16.0.0.0.
func prefixFromIndex(idx int) bgp.Prefix {
	b0 := 16 + byte(idx>>16)
	b1 := byte(idx >> 8)
	b2 := byte(idx)
	return bgp.PrefixFrom(netip.AddrFrom4([4]byte{b0, b1, b2, 0}), 24)
}

func contains(s []uint32, v uint32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

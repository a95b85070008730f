// Package finegrained takes the paper's stated next step (§7, Figure 2):
// refining information communities into sub-categories — location,
// relationship, ROV status, other. The coarse action/information split
// is the prerequisite the paper establishes; this package shows what the
// enabled follow-on inference looks like on the same corpus.
//
// Detectors, applied in order of evidence strength to communities the
// coarse classifier labeled information:
//
//  1. ROV: the community's presence partitions by the origin's RPKI
//     validation state (oracle: a validated-ROA table; here the
//     simulator's synthetic one).
//  2. Location: the Da Silva-style geographic concentration test
//     (oracle: session geography, standing in for PeeringDB).
//  3. Relationship: the community's on-path observations correlate with
//     one inferred relationship class between α and the neighbor it
//     learned the route from.
//  4. Other: everything else.
package finegrained

import (
	"slices"

	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/dict"
	"bgpintent/internal/locinfer"
)

// Kind is the inferred sub-category of an information community.
type Kind int8

const (
	KindOther Kind = iota
	KindLocation
	KindRelationship
	KindROV
)

// String names the kind, matching the dict subcategory names where
// applicable.
func (k Kind) String() string {
	switch k {
	case KindLocation:
		return "location"
	case KindRelationship:
		return "relationship"
	case KindROV:
		return "rov"
	default:
		return "other-info"
	}
}

// ROVOracle resolves an origin AS to its validation state, the RPKI
// substitute.
type ROVOracle interface {
	ROVState(origin uint32) int
}

// ROVFunc adapts a function to ROVOracle.
type ROVFunc func(origin uint32) int

// ROVState implements ROVOracle.
func (f ROVFunc) ROVState(origin uint32) int { return f(origin) }

// Config tunes the detectors.
type Config struct {
	// Loc configures the location detector.
	Loc locinfer.Config

	// MinPaths is the minimum unique on-path support before any
	// fine-grained call is made.
	MinPaths int

	// MinOrigins is the minimum distinct origins for the ROV detector
	// (a community seen from one origin trivially has a pure state).
	MinOrigins int

	// ROVPurity is the required fraction of origins sharing one
	// validation state.
	ROVPurity float64

	// RelPurity is the required fraction of on-path observations whose
	// α-to-neighbor relationship agrees.
	RelPurity float64

	// MinNeighbors is the minimum distinct neighbors for the
	// relationship detector (tags from one session prove nothing).
	MinNeighbors int
}

// DefaultConfig returns detector thresholds that behave well on the
// simulated corpus.
func DefaultConfig() Config {
	return Config{
		Loc:          locinfer.DefaultConfig(),
		MinPaths:     5,
		MinOrigins:   5,
		ROVPurity:    0.95,
		RelPurity:    0.90,
		MinNeighbors: 3,
	}
}

// Result maps each information community with enough evidence to its
// inferred kind. Communities with insufficient support are absent.
type Result struct {
	Kinds map[bgp.Community]Kind
}

// Kind returns the inferred kind and whether the community was resolved.
func (r *Result) Kind(c bgp.Community) (Kind, bool) {
	k, ok := r.Kinds[c]
	return k, ok
}

// Counts returns how many communities were assigned each kind.
func (r *Result) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for _, k := range r.Kinds {
		out[k]++
	}
	return out
}

// evidence aggregates one community's on-path observations.
type evidence struct {
	paths     int
	origins   map[uint32]int // origin -> unique paths
	relCounts [3]int         // topology.Rel* -> unique paths with that α→next relationship
	relKnown  int
	neighbors map[uint32]struct{}
}

// Classify infers sub-categories for the information communities in
// intent, using the corpus observations plus the geographic, RPKI and
// relationship context.
func Classify(ts *core.TupleStore, intent *core.Inferences, geo locinfer.SessionGeo, rov ROVOracle, rels core.RelLookup, cfg Config) *Result {
	if cfg.MinPaths <= 0 {
		cfg.MinPaths = 1
	}
	res := &Result{Kinds: make(map[bgp.Community]Kind)}

	// Location detector runs once over the corpus.
	isLocation := make(map[bgp.Community]bool)
	for _, l := range locinfer.Infer(ts, geo, cfg.Loc) {
		isLocation[l.Comm] = true
	}

	// Gather per-community evidence over unique on-path paths.
	evs := make(map[bgp.Community]*evidence)
	core.EachPathCommunity(ts, core.Options{}, func(c bgp.Community, asns []uint32) {
		if intent.Category(c) != dict.CatInformation {
			return
		}
		alpha := uint32(c.ASN())
		pos := slices.Index(asns, alpha)
		if pos < 0 {
			return // off-path observation: no ingress context
		}
		ev := evs[c]
		if ev == nil {
			ev = &evidence{origins: make(map[uint32]int), neighbors: make(map[uint32]struct{})}
			evs[c] = ev
		}
		ev.paths++
		ev.origins[asns[len(asns)-1]]++
		if pos+1 < len(asns) {
			next := asns[pos+1]
			ev.neighbors[next] = struct{}{}
			switch {
			case rels.IsCustomerOf(next, alpha):
				ev.relCounts[0]++
				ev.relKnown++
			case rels.IsPeer(next, alpha):
				ev.relCounts[1]++
				ev.relKnown++
			case rels.IsCustomerOf(alpha, next):
				ev.relCounts[2]++
				ev.relKnown++
			}
		}
	})

	for c, ev := range evs {
		if ev.paths < cfg.MinPaths {
			continue
		}
		switch {
		case rov != nil && rovPure(ev, rov, cfg):
			res.Kinds[c] = KindROV
		case isLocation[c]:
			res.Kinds[c] = KindLocation
		case relPure(ev, cfg):
			res.Kinds[c] = KindRelationship
		default:
			res.Kinds[c] = KindOther
		}
	}
	return res
}

// rovPure reports whether the community's origins overwhelmingly share
// one validation state.
func rovPure(ev *evidence, rov ROVOracle, cfg Config) bool {
	if len(ev.origins) < cfg.MinOrigins {
		return false
	}
	var states [3]int
	total := 0
	for origin := range ev.origins {
		s := rov.ROVState(origin)
		if s < 0 || s > 2 {
			continue
		}
		states[s]++
		total++
	}
	if total < cfg.MinOrigins {
		return false
	}
	max := states[0]
	for _, n := range states[1:] {
		if n > max {
			max = n
		}
	}
	// A pure "valid" set is weak evidence (most origins are valid
	// anyway); require the dominant state to be a minority class, or an
	// essentially perfect valid-only partition with many origins.
	dominant := 0
	for s, n := range states {
		if n == max {
			dominant = s
		}
	}
	pure := float64(max) >= cfg.ROVPurity*float64(total)
	if !pure {
		return false
	}
	if dominant == 0 {
		return total >= 4*cfg.MinOrigins
	}
	return true
}

// relPure reports whether the community's ingress relationships
// overwhelmingly agree.
func relPure(ev *evidence, cfg Config) bool {
	if ev.relKnown < cfg.MinPaths || len(ev.neighbors) < cfg.MinNeighbors {
		return false
	}
	max := ev.relCounts[0]
	if ev.relCounts[1] > max {
		max = ev.relCounts[1]
	}
	if ev.relCounts[2] > max {
		max = ev.relCounts[2]
	}
	return float64(max) >= cfg.RelPurity*float64(ev.relKnown)
}

// Package locinfer reimplements the location-community inference of
// Da Silva Jr. et al. (SIGMETRICS 2022), the state-of-the-art method the
// paper improves in §6/Table 1. Like the original, it examines each
// community in isolation and infers "location" from the geographic
// concentration of the sessions where routes carrying it entered the
// tagging AS (session geography plays the role PeeringDB/facility data
// plays for the original). Traffic-engineering action communities are
// also geographically concentrated — customers mostly steer traffic near
// home — which is the false-positive mode the paper's intent filter
// removes.
package locinfer

import (
	"slices"
	"sort"

	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/dict"
)

// SessionGeo locates the BGP session between two adjacent ASes, the
// substitute for the PeeringDB/facility geolocation the original method
// uses.
type SessionGeo interface {
	SessionCity(a, b uint32) (city int, ok bool)
	// Region maps a city to its region, for the geographic-coherence
	// test.
	Region(city int) int
}

// Config tunes the inference thresholds.
type Config struct {
	// MinPaths is the minimum number of unique on-path AS paths before a
	// community is considered at all.
	MinPaths int

	// MinOrigins is the minimum number of distinct origin ASes: location
	// communities annotate routes from many origins, while origin-
	// specific tags do not generalize.
	MinOrigins int

	// MaxCityShare is the concentration test: the community must appear
	// on routes entering α at no more than this share of the cities
	// where α's sessions are observed.
	MaxCityShare float64

	// MinAlphaCities is the minimum geographic footprint of α before
	// concentration is measurable.
	MinAlphaCities int

	// MinRegionShare is the geographic-coherence test: at least this
	// share of the community's on-path observations must enter α in a
	// single region.
	MinRegionShare float64
}

// DefaultConfig returns thresholds that behave like the published method
// on the simulated corpus.
func DefaultConfig() Config {
	return Config{MinPaths: 5, MinOrigins: 2, MaxCityShare: 0.45, MinAlphaCities: 5, MinRegionShare: 0.75}
}

// Inference is one community the method inferred to signal a location.
type Inference struct {
	Comm bgp.Community
	// Paths, Origins, Cities describe the evidence.
	Paths, Origins, Cities int
	// CityShare is Cities over α's observed session-city count.
	CityShare float64
}

// Infer returns the communities inferred to be location communities,
// sorted by community value. Each community is examined in isolation
// from the other communities of its AS, as in the original method.
func Infer(ts *core.TupleStore, geo SessionGeo, cfg Config) []Inference {
	if cfg.MinPaths <= 0 {
		cfg.MinPaths = 1
	}
	if cfg.MinAlphaCities < 2 {
		cfg.MinAlphaCities = 2
	}
	type evidence struct {
		paths       int
		origins     map[uint32]struct{}
		cities      map[int]struct{}
		regionPaths map[int]int
	}
	perComm := make(map[bgp.Community]*evidence)
	alphaCities := make(map[uint16]map[int]struct{})

	// α's geographic footprint: cities of every (α, downstream) session
	// on every unique path containing α, independent of communities.
	// Every interned path carries at least one tuple.
	for _, asns := range ts.AllPaths() {
		for i := 0; i+1 < len(asns); i++ {
			a := asns[i]
			if a > 0xffff {
				continue
			}
			city, ok := geo.SessionCity(a, asns[i+1])
			if !ok {
				continue
			}
			set := alphaCities[uint16(a)]
			if set == nil {
				set = make(map[int]struct{})
				alphaCities[uint16(a)] = set
			}
			set[city] = struct{}{}
		}
	}

	core.EachPathCommunity(ts, core.Options{}, func(c bgp.Community, asns []uint32) {
		// Find α and its downstream neighbor on this path.
		alpha := uint32(c.ASN())
		pos := slices.Index(asns, alpha)
		if pos < 0 || pos+1 >= len(asns) {
			return // off-path, or α is the origin: no ingress evidence
		}
		city, ok := geo.SessionCity(alpha, asns[pos+1])
		if !ok {
			return
		}
		ev := perComm[c]
		if ev == nil {
			ev = &evidence{
				origins:     make(map[uint32]struct{}),
				cities:      make(map[int]struct{}),
				regionPaths: make(map[int]int),
			}
			perComm[c] = ev
		}
		ev.paths++
		ev.regionPaths[geo.Region(city)]++
		ev.origins[asns[len(asns)-1]] = struct{}{}
		ev.cities[city] = struct{}{}
	})

	var out []Inference
	for c, ev := range perComm {
		if ev.paths < cfg.MinPaths || len(ev.origins) < cfg.MinOrigins {
			continue
		}
		total := len(alphaCities[c.ASN()])
		if total < cfg.MinAlphaCities {
			continue
		}
		share := float64(len(ev.cities)) / float64(total)
		if share > cfg.MaxCityShare {
			continue
		}
		// Geographic coherence: a location community's observations
		// concentrate in one region; metadata that merely has a sparse
		// city set does not.
		maxRegion := 0
		for _, n := range ev.regionPaths {
			if n > maxRegion {
				maxRegion = n
			}
		}
		if float64(maxRegion) < cfg.MinRegionShare*float64(ev.paths) {
			continue
		}
		out = append(out, Inference{
			Comm:      c,
			Paths:     ev.paths,
			Origins:   len(ev.origins),
			Cities:    len(ev.cities),
			CityShare: share,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Comm < out[j].Comm })
	return out
}

// FilterWithIntent applies the paper's improvement: location inferences
// our method classifies as action communities are removed. It returns
// the kept and dropped inferences.
func FilterWithIntent(locs []Inference, intent *core.Inferences) (kept, dropped []Inference) {
	for _, l := range locs {
		if intent.Category(l.Comm) == dict.CatAction {
			dropped = append(dropped, l)
		} else {
			kept = append(kept, l)
		}
	}
	return kept, dropped
}

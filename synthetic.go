package bgpintent

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"bgpintent/internal/asrel"
	"bgpintent/internal/dict"
	"bgpintent/internal/finegrained"
	"bgpintent/internal/locinfer"
	"bgpintent/internal/simulate"
)

// ErrNotSynthetic is returned by corpus methods that need the synthetic
// ground truth (topology, geography) when the corpus was loaded from
// MRT files instead.
var ErrNotSynthetic = errors.New("bgpintent: operation requires a synthetic corpus")

// RouteView is one vantage point's route for one prefix.
type RouteView struct {
	VP          uint32
	Prefix      string
	Path        []uint32
	Communities []Community
}

// SimulateDay runs the synthetic corpus's simulator for one more day and
// returns the vantage-point views, without adding them to the corpus.
// Useful for monitoring scenarios (see examples/anomaly).
func (c *Corpus) SimulateDay(day int) ([]RouteView, error) {
	if c.syn == nil {
		return nil, ErrNotSynthetic
	}
	res := c.syn.Sim.RunDay(day)
	out := make([]RouteView, 0, len(res.Views))
	for i := range res.Views {
		v := &res.Views[i]
		rv := RouteView{VP: v.VP, Prefix: v.Prefix.String(), Path: v.Path}
		for _, comm := range v.Comms {
			rv.Communities = append(rv.Communities, Community{ASN: comm.ASN(), Value: comm.Value()})
		}
		out = append(out, rv)
	}
	return out, nil
}

// LocationInference is one community inferred to signal a location, with
// its evidence.
type LocationInference struct {
	Community Community
	Paths     int
	Origins   int
	Cities    int
}

// InferLocations runs the bundled reimplementation of Da Silva et al.'s
// location-community inference (the method the paper improves in
// Table 1). It needs session geography, which only the synthetic corpus
// carries (the original uses PeeringDB/facility data).
func (c *Corpus) InferLocations() ([]LocationInference, error) {
	if c.syn == nil {
		return nil, ErrNotSynthetic
	}
	locs := locinfer.Infer(c.store, c.syn.Topo, locinfer.DefaultConfig())
	out := make([]LocationInference, 0, len(locs))
	for _, l := range locs {
		out = append(out, LocationInference{
			Community: Community{ASN: l.Comm.ASN(), Value: l.Comm.Value()},
			Paths:     l.Paths,
			Origins:   l.Origins,
			Cities:    l.Cities,
		})
	}
	return out, nil
}

// FilterActions splits location inferences into those kept and those
// dropped because the intent classification says they are action
// communities — the paper's §6 improvement that raised the location
// method's precision from 68.2% to 94.8%.
func (r *Result) FilterActions(locs []LocationInference) (kept, dropped []LocationInference) {
	for _, l := range locs {
		if r.Category(l.Community) == Action {
			dropped = append(dropped, l)
		} else {
			kept = append(kept, l)
		}
	}
	return kept, dropped
}

// GroundTruth returns the generator's label for a community (synthetic
// corpora only): what the "operator documentation" says. Communities the
// generator never defined return Unknown.
func (c *Corpus) GroundTruth(comm Community) (Category, error) {
	if c.syn == nil {
		return Unknown, ErrNotSynthetic
	}
	return c.syn.TruthCategory(uint32(comm.ASN), comm.Value), nil
}

// GroundTruthSub returns the generator's fine-grained label (e.g.
// "location", "suppress") for a community, synthetic corpora only.
func (c *Corpus) GroundTruthSub(comm Community) (string, error) {
	if c.syn == nil {
		return "", ErrNotSynthetic
	}
	a, ok := c.syn.Topo.ASes[uint32(comm.ASN)]
	if ok && a.Plan != nil && a.Plan.ASN == uint32(comm.ASN) {
		if d, ok := a.Plan.Lookup(comm.Value); ok {
			return d.Sub.String(), nil
		}
	}
	for _, ix := range c.syn.Topo.IXPs {
		if ix.RouteServerASN == uint32(comm.ASN) && ix.Plan != nil {
			if d, ok := ix.Plan.Lookup(comm.Value); ok {
				return d.Sub.String(), nil
			}
		}
	}
	return dict.SubNone.String(), nil
}

// DictionaryTSV renders the synthetic corpus's ground-truth dictionary
// (range regexes per AS), the dataset the paper validates against.
func (c *Corpus) DictionaryTSV() (string, error) {
	if c.syn == nil {
		return "", ErrNotSynthetic
	}
	var b strings.Builder
	if _, err := c.syn.Dict.WriteTo(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Describe renders a short human summary of a community combining the
// inference and (when synthetic) the ground truth.
func (c *Corpus) Describe(comm Community, r *Result) string {
	out := fmt.Sprintf("%s inferred=%s", comm, r.Category(comm))
	if reason, ok := r.Excluded(comm); ok {
		out += fmt.Sprintf(" (excluded: %s)", reason)
	}
	if c.syn != nil {
		truth, _ := c.GroundTruth(comm)
		sub, _ := c.GroundTruthSub(comm)
		out += fmt.Sprintf(" truth=%s/%s", truth, sub)
	}
	return out
}

// RefinedCommunity pairs an information community with its inferred
// fine-grained sub-category.
type RefinedCommunity struct {
	Community Community
	// Kind is "location", "relationship", "rov" or "other-info".
	Kind string
}

// RefineInformation runs the §7 future-work extension over the corpus:
// information communities from the result are sub-categorized using
// geographic, relationship and RPKI context. Synthetic corpora only
// (the oracles come from the generator).
func (c *Corpus) RefineInformation(r *Result) ([]RefinedCommunity, error) {
	if c.syn == nil {
		return nil, ErrNotSynthetic
	}
	rels := asrel.Infer(c.store.AllPaths())
	res := finegrained.Classify(c.store, r.inf, c.syn.Topo,
		finegrained.ROVFunc(simulate.ROVState), rels, finegrained.DefaultConfig())
	out := make([]RefinedCommunity, 0, len(res.Kinds))
	for comm, kind := range res.Kinds {
		out = append(out, RefinedCommunity{
			Community: Community{ASN: comm.ASN(), Value: comm.Value()},
			Kind:      kind.String(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Community, out[j].Community
		if a.ASN != b.ASN {
			return a.ASN < b.ASN
		}
		return a.Value < b.Value
	})
	return out, nil
}

// Package corpus assembles end-to-end experiment corpora: a generated
// topology, a route-propagation simulator over it, the as2org map, the
// ground-truth dictionary for a subset of ASes (the paper's 59), and a
// tuple store filled from the simulated collector views.
package corpus

import (
	"fmt"
	"sort"

	"bgpintent/internal/asrel"
	"bgpintent/internal/core"
	"bgpintent/internal/dict"
	"bgpintent/internal/simulate"
	"bgpintent/internal/topology"
)

// Scale selects the corpus size.
type Scale int

const (
	// ScaleTiny is for unit tests (~170 ASes).
	ScaleTiny Scale = iota
	// ScaleDefault is the benchmark corpus (~1,300 ASes).
	ScaleDefault
	// ScaleLarge is several times the benchmark scale (~4,200 ASes),
	// closer to the paper's population; expect tens of seconds per day.
	ScaleLarge
)

// Config controls corpus assembly.
type Config struct {
	Scale Scale
	Seed  int64

	// Days of simulated data to load into the tuple store (RIB snapshot
	// per day).
	Days int

	// DictASes is how many plan-defining ASes get ground-truth dictionary
	// coverage (the paper hand-collected 59).
	DictASes int

	// Epoch forwards topology growth for the longitudinal experiment.
	Epoch int

	// OrgCoverage is the fraction of multi-AS org members present in the
	// exported as2org map (real as2org data is incomplete).
	OrgCoverage float64

	// Workers bounds classifier parallelism in Options(): 0 means one
	// worker per CPU, 1 forces sequential runs (results are identical).
	Workers int

	// NoLargeComms disables large-community mirroring in the simulator,
	// producing a classic-only corpus (RFC 1997 communities exclusively).
	// The classic routes are unchanged either way: the mirror draw uses
	// its own keyed RNG, so a classic-only corpus differs from the mixed
	// one only by the absence of large communities.
	NoLargeComms bool

	// LargeMatrix switches the simulator to the deterministic std/lrg
	// matrix: every plan community an origin attaches is mirrored as a
	// large community (arouteserver-style announce/suppress matrix),
	// instead of the probabilistic LargeMirrorProb sampling.
	LargeMatrix bool
}

// DefaultConfig returns the benchmark corpus configuration.
func DefaultConfig() Config {
	return Config{Scale: ScaleDefault, Seed: 1, Days: 7, DictASes: 59, OrgCoverage: 0.9}
}

// TinyConfig returns the unit-test corpus configuration.
func TinyConfig() Config {
	return Config{Scale: ScaleTiny, Seed: 1, Days: 2, DictASes: 30, OrgCoverage: 0.9}
}

// Corpus bundles everything an experiment needs.
type Corpus struct {
	Config Config

	Topo  *topology.Topology
	Sim   *simulate.Simulator
	Orgs  *asrel.OrgMap
	Store *core.TupleStore

	// Dict is the ground-truth dictionary (range regexes over the plans
	// of DictASes ASes).
	Dict *dict.Dictionary
	// DictASNs lists the covered ASNs.
	DictASNs []uint32
}

// Build generates, simulates and loads a corpus.
func Build(cfg Config) (*Corpus, error) {
	if cfg.Days <= 0 {
		cfg.Days = 1
	}
	var tcfg topology.Config
	var scfg simulate.Config
	switch cfg.Scale {
	case ScaleTiny:
		tcfg = topology.TinyConfig()
		scfg = simulate.TinyConfig()
	case ScaleLarge:
		tcfg = topology.LargeConfig()
		scfg = simulate.LargeConfig()
	default:
		tcfg = topology.DefaultConfig()
		scfg = simulate.DefaultConfig()
	}
	tcfg.Seed = cfg.Seed
	tcfg.Epoch = cfg.Epoch
	scfg.Seed = cfg.Seed
	if cfg.NoLargeComms {
		scfg.LargeMirrorProb = 0
	}
	scfg.LargeMatrix = cfg.LargeMatrix

	topo, err := topology.Generate(tcfg)
	if err != nil {
		return nil, err
	}
	c := &Corpus{
		Config: cfg,
		Topo:   topo,
		Sim:    simulate.New(topo, scfg),
		Orgs:   OrgMapOf(topo, cfg.OrgCoverage),
		Store:  core.NewTupleStore(),
	}
	for d := 0; d < cfg.Days; d++ {
		c.LoadDay(d)
	}
	if err := c.buildDictionary(cfg.DictASes); err != nil {
		return nil, err
	}
	return c, nil
}

// LoadDay simulates one more day and adds its views to the store.
func (c *Corpus) LoadDay(day int) {
	res := c.Sim.RunDay(day)
	for i := range res.Views {
		v := &res.Views[i]
		c.Store.AddViewLarge(v.VP, v.Path, v.Comms, v.LargeComms)
	}
}

// Options returns classifier options wired to this corpus (paper
// defaults plus the org map).
func (c *Corpus) Options() core.Options {
	opts := core.DefaultOptions()
	opts.Orgs = c.Orgs
	opts.Workers = c.Config.Workers
	return opts
}

// OrgMapOf exports a topology's organizations as an as2org map, keeping
// only the given fraction of multi-AS org members (as2org coverage is
// imperfect in the wild). Singleton orgs are omitted: they carry no
// sibling information.
func OrgMapOf(topo *topology.Topology, coverage float64) *asrel.OrgMap {
	m := asrel.NewOrgMap()
	orgIDs := make([]int, 0, len(topo.Orgs))
	for id, members := range topo.Orgs {
		if len(members) > 1 {
			orgIDs = append(orgIDs, id)
		}
	}
	sort.Ints(orgIDs)
	for _, id := range orgIDs {
		for _, asn := range topo.Orgs[id] {
			// Deterministic thinning by a per-ASN hash.
			if coverage < 1 && float64(splitmix(uint64(asn))%1000) >= coverage*1000 {
				continue
			}
			m.Set(asn, fmt.Sprintf("org-%d", id))
		}
	}
	return m
}

// splitmix is the splitmix64 finalizer.
func splitmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// buildDictionary picks the n plan-defining ASes with the largest plans
// (the well-documented networks an operator would find on NLNOG/IRR) and
// compiles their blocks into range regexes.
func (c *Corpus) buildDictionary(n int) error {
	type cand struct {
		asn  uint32
		size int
	}
	var cands []cand
	seenPlan := make(map[*dict.Plan]bool)
	for _, asn := range c.Topo.Order {
		a := c.Topo.ASes[asn]
		// Org-shared plans belong to their owner; skip sharers so each
		// plan is summarized once, under its α.
		if a.Plan == nil || a.TagASN != 0 || seenPlan[a.Plan] {
			continue
		}
		seenPlan[a.Plan] = true
		cands = append(cands, cand{asn: asn, size: len(a.Plan.Defs)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].size != cands[j].size {
			return cands[i].size > cands[j].size
		}
		return cands[i].asn < cands[j].asn
	})
	if n > len(cands) {
		n = len(cands)
	}
	c.Dict = dict.NewDictionary()
	for _, cd := range cands[:n] {
		if err := c.Dict.BuildFromPlan(c.Topo.ASes[cd.asn].Plan); err != nil {
			return err
		}
		c.DictASNs = append(c.DictASNs, cd.asn)
	}
	sort.Slice(c.DictASNs, func(i, j int) bool { return c.DictASNs[i] < c.DictASNs[j] })
	return nil
}

// TruthCategory returns the generator's ground-truth label for a
// community: the defining plan's category when α owns a plan (an AS's
// own, an org-shared plan under the owner's α, or an IXP route server's).
func (c *Corpus) TruthCategory(asn uint32, beta uint16) dict.Category {
	if a, ok := c.Topo.ASes[asn]; ok && a.Plan != nil && a.Plan.ASN == asn {
		return a.Plan.Category(beta)
	}
	for _, ix := range c.Topo.IXPs {
		if ix.RouteServerASN == asn && ix.Plan != nil {
			return ix.Plan.Category(beta)
		}
	}
	return dict.CatUnknown
}

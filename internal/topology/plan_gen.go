package topology

import (
	"math/rand"
	"sort"

	"bgpintent/internal/dict"
)

// Plan-size classes: how rich an operator's community plan is.
const (
	planSizeStub   = iota // a couple of information blocks tagged at origination
	planSizeSmall         // regional transit: a few blocks
	planSizeMedium        // large transit
	planSizeLarge         // tier-1: the full Arelion-style plan
)

// Calibration constants for the β-space layout. The paper's method is
// sensitive to two distributions (Figure 9): the spacing of values inside
// a purpose block (mostly 1-10, up to ~100 for local-pref grades, so
// small gap parameters fragment blocks) and the gaps between blocks
// (mostly ≥ 300 with a tail down to ~160, so large gap parameters merge
// neighboring blocks).
const (
	planBetaCeil   = 63000 // stop allocating blocks past this β
	planStartFloor = 20
)

// interBlockGap samples the distance between two purpose blocks.
func interBlockGap(rng *rand.Rand) int {
	r := rng.Float64()
	switch {
	case r < 0.15:
		return 160 + rng.Intn(140) // 160..299: merged by large gap params
	case r < 0.75:
		return 300 + rng.Intn(1200)
	default:
		return 1500 + rng.Intn(2500)
	}
}

// planBuilder allocates β values left to right with inter-block gaps.
type planBuilder struct {
	plan   *dict.Plan
	rng    *rand.Rand
	cursor int
	full   bool
}

func newPlanBuilder(asn uint32, rng *rand.Rand) *planBuilder {
	return &planBuilder{
		plan:   dict.NewPlan(asn),
		rng:    rng,
		cursor: planStartFloor + rng.Intn(150),
	}
}

// begin opens a new block and returns its base β, or -1 when β space is
// exhausted.
func (b *planBuilder) begin() int {
	if b.full {
		return -1
	}
	if len(b.plan.Defs) > 0 {
		b.cursor += interBlockGap(b.rng)
	}
	if b.cursor > planBetaCeil {
		b.full = true
		return -1
	}
	b.plan.BeginBlock()
	return b.cursor
}

// put adds a definition at base+off and advances the cursor.
func (b *planBuilder) put(base, off int, d dict.Def) {
	v := base + off
	if v > 65535 {
		b.full = true
		return
	}
	d.Value = uint16(v)
	// Duplicate offsets within a malformed block are silently skipped;
	// generation never produces them for distinct offsets.
	if err := b.plan.Add(&d); err == nil && v >= b.cursor {
		b.cursor = v + 1
	}
}

// The individual block constructors. Each writes one contiguous purpose
// block at the current cursor.

func (b *planBuilder) localPrefBlock() {
	base := b.begin()
	if base < 0 {
		return
	}
	// Two or three local-pref grades, spaced inside the block.
	prefs := [][2]int{{0, 50}, {100, 150}}
	if b.rng.Intn(2) == 0 {
		prefs = [][2]int{{0, 80}, {5, 120}, {10, 140}}
	}
	for _, p := range prefs {
		b.put(base, p[0], dict.Def{Sub: dict.SubSetAttribute, HasLocalPref: true, LocalPref: uint32(p[1])})
	}
}

func (b *planBuilder) blackholeBlock() {
	base := b.begin()
	if base < 0 {
		return
	}
	// Operators like the conventional 666; use it when still available.
	if base < 666 {
		base = 666
		b.cursor = base
	}
	b.put(base, 0, dict.Def{Sub: dict.SubBlackhole})
	if b.rng.Intn(2) == 0 {
		b.put(base, 1, dict.Def{Sub: dict.SubBlackhole})
	}
}

func (b *planBuilder) rovBlock() {
	base := b.begin()
	if base < 0 {
		return
	}
	n := 2 + b.rng.Intn(2)
	for i := 0; i < n; i++ {
		b.put(base, i, dict.Def{Sub: dict.SubROV, ROV: i})
	}
}

func (b *planBuilder) relationshipBlock() {
	base := b.begin()
	if base < 0 {
		return
	}
	rels := []int{RelCustomer, RelPeer}
	if b.rng.Intn(2) == 0 {
		rels = append(rels, RelProvider)
	}
	for i, r := range rels {
		b.put(base, i, dict.Def{Sub: dict.SubRelationship, Rel: r})
	}
}

// exportControlBlock builds an Arelion-style range for one region: per
// target AS, prepend 1-3× at offsets 1..3, announce-override at 5, and
// do-not-export at offset 9. The stride between target groups varies by
// operator (10..100), which is what gives Figure 9 its plateau left edge:
// gap parameters below the stride fragment these blocks.
func (b *planBuilder) exportControlBlock(region int, targets []uint32) {
	base := b.begin()
	if base < 0 || len(targets) == 0 {
		return
	}
	strides := []int{10, 10, 25, 60, 100}
	stride := strides[b.rng.Intn(len(strides))]
	for i, target := range targets {
		off := i * stride
		for p := 1; p <= 3; p++ {
			b.put(base, off+p, dict.Def{Sub: dict.SubSetAttribute, TargetAS: target, TargetRegion: region, Prepend: p})
		}
		b.put(base, off+5, dict.Def{Sub: dict.SubAnnounce, TargetAS: target, TargetRegion: region})
		b.put(base, off+9, dict.Def{Sub: dict.SubSuppress, TargetAS: target, TargetRegion: region})
	}
}

// regionActionBlock: suppress or announce in an entire region.
func (b *planBuilder) regionActionBlock(sub dict.SubCategory, regions []int) {
	base := b.begin()
	if base < 0 {
		return
	}
	for i, r := range regions {
		b.put(base, i, dict.Def{Sub: sub, TargetRegion: r})
	}
}

// regionalLocalPrefBlock: set local preference for routes in a region.
func (b *planBuilder) regionalLocalPrefBlock(regions []int) {
	base := b.begin()
	if base < 0 {
		return
	}
	for i, r := range regions {
		b.put(base, i*10, dict.Def{Sub: dict.SubSetAttribute, TargetRegion: r, HasLocalPref: true, LocalPref: 60})
		b.put(base, i*10+1, dict.Def{Sub: dict.SubSetAttribute, TargetRegion: r, HasLocalPref: true, LocalPref: 140})
	}
}

// locationBlock: one information value per city of presence, plus
// region-granularity values.
func (b *planBuilder) locationBlock(t *Topology, cities []int) {
	base := b.begin()
	if base < 0 {
		return
	}
	steps := []int{1, 10, 10, 25}
	step := steps[b.rng.Intn(len(steps))]
	off := 0
	for _, city := range cities {
		b.put(base, off, dict.Def{Sub: dict.SubLocation, City: city, Region: t.Region(city)})
		off += step
	}
	// Region-level rollups directly after the cities.
	regions := regionsOf(t, cities)
	for _, r := range regions {
		b.put(base, off, dict.Def{Sub: dict.SubLocation, Region: r})
		off += step
	}
}

func (b *planBuilder) otherInfoBlock() {
	base := b.begin()
	if base < 0 {
		return
	}
	n := 4 + b.rng.Intn(12)
	step := 1 + b.rng.Intn(3)
	for i := 0; i < n; i++ {
		b.put(base, i*step, dict.Def{Sub: dict.SubOtherInfo})
	}
}

// buildPlan constructs and attaches a community plan to a. The draw
// sequence is fixed so a given (seed, ASN) always yields the same plan,
// and Epoch growth appends without disturbing earlier blocks.
func buildPlan(t *Topology, a *AS, cfg Config, size int, gen *rand.Rand) {
	rng := perASRand(gen, cfg.Seed, a.ASN, saltPlan)
	b := newPlanBuilder(a.ASN, rng)

	regions := regionsOf(t, a.Cities)
	targets := actionTargets(a, rng)

	switch size {
	case planSizeStub:
		b.otherInfoBlock()
		if rng.Intn(2) == 0 {
			b.locationBlock(t, a.Cities)
		}
	case planSizeSmall:
		b.locationBlock(t, a.Cities)
		b.relationshipBlock()
		if rng.Intn(2) == 0 && len(targets) > 0 {
			b.exportControlBlock(regions[0], targets[:min(2, len(targets))])
		}
		if rng.Intn(2) == 0 {
			b.otherInfoBlock()
		}
	case planSizeMedium:
		b.localPrefBlock()
		if rng.Intn(2) == 0 {
			b.rovBlock()
		}
		b.blackholeBlock()
		nEC := min(1+rng.Intn(2), len(regions))
		for i := 0; i < nEC && len(targets) > 0; i++ {
			b.exportControlBlock(regions[i], targets[:min(3, len(targets))])
		}
		if rng.Intn(2) == 0 {
			b.regionActionBlock(dict.SubSuppress, regions)
		}
		b.locationBlock(t, a.Cities)
		b.relationshipBlock()
		if rng.Intn(2) == 0 {
			b.otherInfoBlock()
		}
	case planSizeLarge:
		b.localPrefBlock()
		b.rovBlock()
		b.blackholeBlock()
		for _, r := range regions {
			if len(targets) > 0 {
				b.exportControlBlock(r, targets[:min(4, len(targets))])
			}
		}
		b.regionalLocalPrefBlock(regions)
		b.regionActionBlock(dict.SubSuppress, regions)
		b.regionActionBlock(dict.SubAnnounce, regions)
		b.locationBlock(t, a.Cities)
		b.relationshipBlock()
		b.otherInfoBlock()
	}

	// Longitudinal growth: each epoch may append one more information
	// block; replaying the same draws keeps earlier epochs' additions.
	// The rate is tuned so a year of epochs grows the observable
	// community population by a few percent, as the paper reports.
	for e := 0; e < cfg.Epoch; e++ {
		if rng.Float64() < 0.02 {
			b.otherInfoBlock()
		}
	}

	if len(b.plan.Defs) == 0 {
		return
	}
	a.Plan = b.plan
	// Operators deploy most — not all — of what they document.
	a.TagsLocation = hasSub(b.plan, dict.SubLocation) && rng.Float64() < 0.9
	a.TagsRelationship = hasSub(b.plan, dict.SubRelationship) && rng.Float64() < 0.9
	a.TagsROV = hasSub(b.plan, dict.SubROV) && rng.Float64() < 0.9
}

// buildIXPPlan gives the route server a plan: member-targeted actions and
// informational tags. Because the route server never appears in AS paths,
// every observation of these is off-path.
func buildIXPPlan(t *Topology, ix *IXP, cfg Config, gen *rand.Rand) {
	rng := perASRand(gen, cfg.Seed, ix.RouteServerASN, saltPlan)
	b := newPlanBuilder(ix.RouteServerASN, rng)
	b.otherInfoBlock() // e.g. "learned at this IXP"
	base := b.begin()
	if base >= 0 {
		for i, m := range ix.Members {
			if i >= 12 {
				break
			}
			b.put(base, i, dict.Def{Sub: dict.SubSuppress, TargetAS: m})
		}
	}
	if len(b.plan.Defs) > 0 {
		ix.Plan = b.plan
	}
}

// actionTargets picks the neighbor ASes an operator's export-control
// communities reference: its peers and providers, the networks customers
// want to steer traffic around.
func actionTargets(a *AS, rng *rand.Rand) []uint32 {
	pool := make([]uint32, 0, len(a.Peers)+len(a.Providers))
	pool = append(pool, a.Peers...)
	pool = append(pool, a.Providers...)
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > 4 {
		pool = pool[:4]
	}
	return pool
}

// regionsOf returns the sorted distinct regions covered by cities.
func regionsOf(t *Topology, cities []int) []int {
	set := make(map[int]bool)
	for _, c := range cities {
		set[t.Region(c)] = true
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

func hasSub(p *dict.Plan, sub dict.SubCategory) bool {
	for _, d := range p.Defs {
		if d.Sub == sub {
			return true
		}
	}
	return false
}

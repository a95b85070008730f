package dict

import (
	"fmt"
	"sort"
)

// Def is one community definition in an operator's plan: the meaning of a
// single β value, including the parameters the route-propagation
// simulator needs to act on it.
type Def struct {
	Value uint16 // β
	Sub   SubCategory

	// Action parameters (meaningful for action subcategories).

	// TargetAS restricts a suppress/announce action to one neighbor AS
	// (0 = no AS restriction).
	TargetAS uint32
	// TargetRegion restricts a suppress/announce action to sessions in
	// one region (0 = no region restriction).
	TargetRegion int
	// Prepend is the number of times the AS prepends itself on export
	// (set-attribute actions).
	Prepend int
	// LocalPref, when HasLocalPref, overrides the local preference the
	// AS assigns the route (set-attribute actions).
	HasLocalPref bool
	LocalPref    uint32

	// Information parameters.

	// City identifies the ingress city signaled by a location community.
	City int
	// Region identifies the ingress region for region-granularity
	// location communities.
	Region int
	// Rel encodes the neighbor relationship signaled by a relationship
	// community (see internal/topology for the value space).
	Rel int
	// ROV encodes the signaled validation state (0 valid, 1 invalid,
	// 2 unknown).
	ROV int
}

// Category returns the coarse label of the definition.
func (d *Def) Category() Category { return d.Sub.Category() }

// Block is a contiguous range of β values an operator devotes to one
// purpose — the clustering structure the paper's Figures 3 and 4 show and
// its method exploits. A block may mix subcategories of the same coarse
// category (Arelion's 256x range mixes prepend and no-export variants);
// Sub records the first subcategory seen and serves as a representative
// label.
type Block struct {
	Lo, Hi uint16 // inclusive bounds in β space
	Sub    SubCategory
}

// Category returns the coarse label of the block.
func (b Block) Category() Category { return b.Sub.Category() }

// Plan is one AS's community plan: every β value it assigns meaning to,
// organized in contiguous blocks.
type Plan struct {
	ASN    uint32
	Defs   map[uint16]*Def
	Blocks []Block

	breakBlock bool // next Add starts a new block even if the purpose matches
}

// NewPlan returns an empty plan for the AS.
func NewPlan(asn uint32) *Plan {
	return &Plan{ASN: asn, Defs: make(map[uint16]*Def)}
}

// Add inserts a definition and extends or creates its block: consecutive
// additions with the same coarse category extend the current block.
// Definitions must be added in ascending β order within a block; Add
// returns an error on duplicate values.
func (p *Plan) Add(d *Def) error {
	if _, dup := p.Defs[d.Value]; dup {
		return fmt.Errorf("dict: plan %d: duplicate β %d", p.ASN, d.Value)
	}
	p.Defs[d.Value] = d
	if n := len(p.Blocks); n > 0 && !p.breakBlock {
		last := &p.Blocks[n-1]
		if last.Sub.Category() == d.Sub.Category() && d.Value > last.Hi {
			last.Hi = d.Value
			return nil
		}
	}
	p.breakBlock = false
	p.Blocks = append(p.Blocks, Block{Lo: d.Value, Hi: d.Value, Sub: d.Sub})
	return nil
}

// BeginBlock forces the next Add to open a new block, so two same-purpose
// ranges separated by an operator-chosen gap are not merged.
func (p *Plan) BeginBlock() { p.breakBlock = true }

// Lookup returns the definition for β, if any.
func (p *Plan) Lookup(beta uint16) (*Def, bool) {
	d, ok := p.Defs[beta]
	return d, ok
}

// Category returns the coarse label of β according to the plan, or
// CatUnknown if undefined.
func (p *Plan) Category(beta uint16) Category {
	if d, ok := p.Defs[beta]; ok {
		return d.Category()
	}
	return CatUnknown
}

// Values returns every defined β in ascending order.
func (p *Plan) Values() []uint16 {
	out := make([]uint16, 0, len(p.Defs))
	for v := range p.Defs {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

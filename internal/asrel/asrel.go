// Package asrel infers AS relationships from observed AS paths using
// Gao's degree-based algorithm, and models the as2org sibling dataset.
// It substitutes for the CAIDA AS-relationship and organization
// inferences the paper uses as context (§4).
package asrel

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Rel is an inferred relationship between two adjacent ASes, following
// the CAIDA serialization convention.
type Rel int8

const (
	// RelP2C: the first AS is a provider of the second.
	RelP2C Rel = -1
	// RelP2P: the ASes are peers.
	RelP2P Rel = 0
)

// Graph holds inferred relationships for AS pairs.
type Graph struct {
	// rels maps an ordered pair key (lo, hi) to the relationship and its
	// orientation: provider == lo (true) or provider == hi (false); for
	// p2p the orientation is meaningless.
	rels map[uint64]edge
}

type edge struct {
	rel        Rel
	providerLo bool
}

func pairKey(a, b uint32) (uint64, bool) {
	if a < b {
		return uint64(a)<<32 | uint64(b), true
	}
	return uint64(b)<<32 | uint64(a), false
}

// NewGraph returns an empty relationship graph.
func NewGraph() *Graph {
	return &Graph{rels: make(map[uint64]edge)}
}

// SetP2C records provider -> customer.
func (g *Graph) SetP2C(provider, customer uint32) {
	key, loFirst := pairKey(provider, customer)
	g.rels[key] = edge{rel: RelP2C, providerLo: loFirst}
}

// SetP2P records a peering between a and b.
func (g *Graph) SetP2P(a, b uint32) {
	key, _ := pairKey(a, b)
	g.rels[key] = edge{rel: RelP2P}
}

// Rel returns the relationship of b as seen from a: RelP2C with
// aIsProvider true means a is b's provider; ok is false for unknown
// pairs.
func (g *Graph) Rel(a, b uint32) (rel Rel, aIsProvider bool, ok bool) {
	key, aIsLo := pairKey(a, b)
	e, ok := g.rels[key]
	if !ok {
		return 0, false, false
	}
	if e.rel == RelP2P {
		return RelP2P, false, true
	}
	return RelP2C, e.providerLo == aIsLo, true
}

// IsCustomerOf reports whether c is inferred to be a customer of p.
func (g *Graph) IsCustomerOf(c, p uint32) bool {
	rel, pIsProv, ok := g.Rel(p, c)
	return ok && rel == RelP2C && pIsProv
}

// IsPeer reports whether a and b are inferred peers.
func (g *Graph) IsPeer(a, b uint32) bool {
	rel, _, ok := g.Rel(a, b)
	return ok && rel == RelP2P
}

// Len returns the number of inferred pairs.
func (g *Graph) Len() int { return len(g.rels) }

// Options tune the inference.
type Options struct {
	// TransitThreshold is Gao's L: more than this many independent
	// transit observations in both directions marks a sibling-like pair
	// (serialized as p2p).
	TransitThreshold int

	// PeerDegreeRatio is Gao's R: when the only evidence for a pair comes
	// from top-of-path positions, a degree ratio at or below R labels the
	// pair peers. Gao used 60 on the 2001 Internet; the right value
	// scales with the corpus's degree distribution (the simulated corpus
	// works well around 3).
	PeerDegreeRatio float64
}

// DefaultOptions mirror the thresholds that behave well on the simulated
// corpus.
func DefaultOptions() Options {
	return Options{TransitThreshold: 1, PeerDegreeRatio: 3.0}
}

// Infer runs InferWithOptions with DefaultOptions.
func Infer(paths [][]uint32) *Graph { return InferWithOptions(paths, DefaultOptions()) }

// InferWithOptions runs a Gao-style relationship inference over AS paths:
//
//  1. compute each AS's degree (distinct neighbors across all paths);
//  2. per path, locate the top (highest-degree) AS and vote each edge:
//     uphill edges vote "nearer-to-origin side has the provider above
//     it", downhill edges the reverse; votes on edges adjacent to the
//     top are kept in a separate, less-trusted pool because the peering
//     link of a path (if any) sits there;
//  3. classify each pair: mutual non-top transit -> sibling-like
//     (serialized p2p); one-sided non-top transit -> p2c; top-only
//     evidence -> peers when the degrees are comparable, otherwise p2c
//     toward the larger degree.
//
// Paths should be loop-free; prepending is removed internally.
func InferWithOptions(paths [][]uint32, opt Options) *Graph {
	if opt.TransitThreshold <= 0 {
		opt.TransitThreshold = 1
	}
	if opt.PeerDegreeRatio <= 0 {
		opt.PeerDegreeRatio = 3.0
	}
	deg := make(map[uint32]map[uint32]struct{})
	addAdj := func(a, b uint32) {
		if deg[a] == nil {
			deg[a] = make(map[uint32]struct{})
		}
		deg[a][b] = struct{}{}
	}
	cleaned := make([][]uint32, 0, len(paths))
	for _, p := range paths {
		c := dedupAdjacent(p)
		if len(c) < 2 {
			continue
		}
		cleaned = append(cleaned, c)
		for i := 1; i < len(c); i++ {
			addAdj(c[i-1], c[i])
			addAdj(c[i], c[i-1])
		}
	}

	// votes[(p,c)] counts observations suggesting p provides transit to
	// c, split by whether the edge touched the path top.
	nonTop := make(map[uint64]int)
	topAdj := make(map[uint64]int)
	voteKey := func(p, c uint32) uint64 {
		k, _ := pairKey(p, c)
		if p < c {
			return k << 1
		}
		return k<<1 | 1
	}
	for _, p := range cleaned {
		top := 0
		for i := range p {
			if len(deg[p[i]]) > len(deg[p[top]]) {
				top = i
			}
		}
		// Path is nearest-first; the route flowed origin -> ... -> first.
		// Edges before the top are downhill (nearer AS is below), edges
		// after it uphill.
		for i := 0; i+1 < len(p); i++ {
			var provider, customer uint32
			if i < top {
				provider, customer = p[i+1], p[i]
			} else {
				provider, customer = p[i], p[i+1]
			}
			pool := nonTop
			if i == top || i+1 == top {
				pool = topAdj
			}
			pool[voteKey(provider, customer)]++
		}
	}

	g := NewGraph()
	seen := make(map[uint64]bool)
	for _, p := range cleaned {
		for i := 1; i < len(p); i++ {
			a, b := p[i-1], p[i]
			key, _ := pairKey(a, b)
			if seen[key] {
				continue
			}
			seen[key] = true
			na := nonTop[voteKey(a, b)] // a provides b, solid evidence
			nb := nonTop[voteKey(b, a)]
			switch {
			case na > opt.TransitThreshold && nb > opt.TransitThreshold:
				g.SetP2P(a, b) // mutual transit: sibling-like
			case na > nb:
				g.SetP2C(a, b)
			case nb > na:
				g.SetP2C(b, a)
			case na > 0: // equal, non-zero: ambiguous mutual transit
				g.SetP2P(a, b)
			default:
				// Only top-of-path evidence: peers if degrees are
				// comparable, otherwise the larger degree provides.
				da, db := float64(len(deg[a])), float64(len(deg[b]))
				ratio := da / db
				if ratio < 1 {
					ratio = db / da
				}
				switch {
				case ratio <= opt.PeerDegreeRatio:
					g.SetP2P(a, b)
				case da > db:
					g.SetP2C(a, b)
				default:
					g.SetP2C(b, a)
				}
			}
		}
	}
	return g
}

func dedupAdjacent(p []uint32) []uint32 {
	out := make([]uint32, 0, len(p))
	for _, asn := range p {
		if len(out) == 0 || out[len(out)-1] != asn {
			out = append(out, asn)
		}
	}
	return out
}

// WriteTo serializes the graph in the CAIDA AS-relationship format:
// provider|customer|-1 and peer|peer|0 lines.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	keys := make([]uint64, 0, len(g.rels))
	for k := range g.rels {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		e := g.rels[k]
		lo, hi := uint32(k>>32), uint32(k&0xffffffff)
		a, b := lo, hi
		if e.rel == RelP2C && !e.providerLo {
			a, b = hi, lo
		}
		n, err := fmt.Fprintf(bw, "%d|%d|%d\n", a, b, e.rel)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

package core

import (
	"slices"

	"bgpintent/internal/bgp"
)

// RelLookup resolves inferred AS relationships (satisfied by
// asrel.Graph).
type RelLookup interface {
	IsCustomerOf(customer, provider uint32) bool
	IsPeer(a, b uint32) bool
}

// CustPeerStats counts, for one community α:β over unique on-path AS
// paths, how often the AS after α in the path (the neighbor α learned
// the route from) is an inferred customer versus peer of α — the §5.1
// customer:peer feature of Figure 7.
type CustPeerStats struct {
	Comm     bgp.Community
	Customer int
	Peer     int
}

// Ratio is the customer:peer ratio with the denominator clamped to one.
func (cp CustPeerStats) Ratio() float64 {
	peer := cp.Peer
	if peer == 0 {
		peer = 1
	}
	return float64(cp.Customer) / float64(peer)
}

// CustomerPeer computes customer:peer statistics for every observed
// community over the (community, path) pairs EachPathCommunity visits.
func CustomerPeer(ts *TupleStore, opts Options, rels RelLookup) map[bgp.Community]*CustPeerStats {
	out := make(map[bgp.Community]*CustPeerStats)
	EachPathCommunity(ts, opts, func(c bgp.Community, path []uint32) {
		alpha := uint32(c.ASN())
		i := slices.Index(path, alpha)
		if i < 0 || i+1 >= len(path) {
			return
		}
		next := path[i+1]
		customer := rels.IsCustomerOf(next, alpha)
		if !customer && !rels.IsPeer(next, alpha) {
			return
		}
		st := out[c]
		if st == nil {
			st = &CustPeerStats{Comm: c}
			out[c] = st
		}
		if customer {
			st.Customer++
		} else {
			st.Peer++
		}
	})
	return out
}

package core

import (
	"cmp"
	"slices"

	"bgpintent/internal/bgp"
)

// VPSweep answers "what would the method see with only these vantage
// points?" quickly, for the Fig. 10 experiment (50 random-subset trials
// per VP count). It precomputes, per (community, path) pair, the tuples
// that support it, and per tuple a VP bitmask, so one trial is a single
// linear pass instead of a full Observe.
type VPSweep struct {
	ts   *TupleStore
	orgs OrgMapper

	vps   []uint32          // all vantage points, sorted
	vpIdx map[uint32]int    // vp -> bit index
	words int               // bitmask words per tuple
	masks [][]uint64        // tuple index -> VP bitmask
	recs  []vpRec           // sorted by (comm, path)
	comms []bgp.Community   // distinct communities
	paths map[int32][]int32 // path -> tuple indexes (for α presence)
}

type vpRec struct {
	comm   bgp.Community
	path   int32
	tuple  int32
	onPath bool
}

// NewVPSweep indexes the store. opts supplies the org mapper for
// sibling-aware on-path flags (VPFilter in opts is ignored; subsets are
// given per Run call).
func NewVPSweep(ts *TupleStore, opts Options) *VPSweep {
	s := &VPSweep{
		ts:    ts,
		orgs:  opts.Orgs,
		vps:   ts.VPSet(),
		vpIdx: make(map[uint32]int),
		paths: make(map[int32][]int32),
	}
	for i, vp := range s.vps {
		s.vpIdx[vp] = i
	}
	s.words = (len(s.vps) + 63) / 64

	commSet := make(map[bgp.Community]struct{})
	tuples := ts.Tuples()
	for ti := range tuples {
		t := &tuples[ti]
		mask := make([]uint64, s.words)
		for _, vp := range ts.TupleVPs(t) {
			bit := s.vpIdx[vp]
			mask[bit/64] |= 1 << (bit % 64)
		}
		s.masks = append(s.masks, mask)
		s.paths[t.PathID] = append(s.paths[t.PathID], int32(ti))
		info := ts.Path(t.PathID)
		for _, c := range ts.TupleComms(t) {
			commSet[c] = struct{}{}
			s.recs = append(s.recs, vpRec{
				comm:   c,
				path:   t.PathID,
				tuple:  int32(ti),
				onPath: s.onPath(info, uint32(c.ASN())),
			})
		}
	}
	slices.SortFunc(s.recs, func(a, b vpRec) int {
		if c := cmp.Compare(a.comm, b.comm); c != 0 {
			return c
		}
		return cmp.Compare(a.path, b.path)
	})
	s.comms = make([]bgp.Community, 0, len(commSet))
	for c := range commSet {
		s.comms = append(s.comms, c)
	}
	slices.Sort(s.comms)
	return s
}

func (s *VPSweep) onPath(info PathInfo, alpha uint32) bool {
	if containsASN(info.ASNs, alpha) {
		return true
	}
	if s.orgs != nil {
		if org, ok := s.orgs.Org(alpha); ok && containsOrg(info.Orgs, org) {
			return true
		}
	}
	return false
}

// VPs returns all vantage points in the store.
func (s *VPSweep) VPs() []uint32 { return s.vps }

// Run computes the ObservationSet visible to the given VP subset.
func (s *VPSweep) Run(subset []uint32) *ObservationSet {
	mask := make([]uint64, s.words)
	for _, vp := range subset {
		if bit, ok := s.vpIdx[vp]; ok {
			mask[bit/64] |= 1 << (bit % 64)
		}
	}
	active := func(tuple int32) bool {
		tm := s.masks[tuple]
		for w := 0; w < s.words; w++ {
			if tm[w]&mask[w] != 0 {
				return true
			}
		}
		return false
	}

	os := &ObservationSet{
		Stats:     make(map[bgp.Community]*Stats[bgp.Community]),
		asnOnPath: make(map[uint32]bool),
		orgOnPath: make(map[string]bool),
		orgs:      s.orgs,
	}
	// Active paths determine which ASNs/orgs are on-path at all.
	for pathID, tuples := range s.paths {
		seen := false
		for _, ti := range tuples {
			if active(ti) {
				seen = true
				break
			}
		}
		if !seen {
			continue
		}
		info := s.ts.Path(pathID)
		for _, asn := range info.ASNs {
			os.asnOnPath[asn] = true
		}
		for _, org := range info.Orgs {
			os.orgOnPath[org] = true
		}
	}
	// One pass over the sorted records: count each (comm, path) pair
	// once if any of its tuples is active.
	i := 0
	for i < len(s.recs) {
		comm := s.recs[i].comm
		var st *Stats[bgp.Community]
		for i < len(s.recs) && s.recs[i].comm == comm {
			path := s.recs[i].path
			onPath := s.recs[i].onPath
			counted := false
			for i < len(s.recs) && s.recs[i].comm == comm && s.recs[i].path == path {
				if !counted && active(s.recs[i].tuple) {
					counted = true
				}
				i++
			}
			if counted {
				if st == nil {
					st = &Stats[bgp.Community]{Comm: comm}
					os.Stats[comm] = st
				}
				if onPath {
					st.OnPath++
				} else {
					st.OffPath++
				}
			}
		}
	}
	return os
}

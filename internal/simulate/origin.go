package simulate

import (
	"math/rand"
	"slices"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
	"bgpintent/internal/topology"
)

// Salts for origin-side deterministic randomness.
const (
	saltActionUse  = 0xac7
	saltActionPick = 0x91c6
	saltOwnInfo    = 0x0f0
	saltJunk       = 0x77a4
	saltLeak       = 0x1eaf
	saltRS         = 0x25e1
	saltLarge      = 0x1a49
)

// originState caches per-AS data used when originating prefixes.
type originState struct {
	ownInfo    []bgp.Community // the origin's own information communities
	ixpIDs     []int           // IXPs the origin is a member of
	providers  []providerPlan  // providers that define plans
	rsSuppress [][]bgp.Community
}

type providerPlan struct {
	asn        uint32
	alpha      uint32   // α the provider's plan uses (org leader for shared plans)
	actionVals []uint16 // usable action β (blackhole excluded)
	// regionVals are the action β targeting the customer's home region;
	// customers mostly steer traffic near home, which geographically
	// concentrates TE communities — the effect behind Da Silva et al.'s
	// location false positives (Table 1).
	regionVals []uint16
	blackhole  bgp.Community
	hasBH      bool
}

// buildOriginState precomputes origin-side tagging material for one AS.
func (s *Simulator) buildOriginState(idx int32) *originState {
	a := s.ases[idx]
	st := &originState{}

	if a.Plan != nil {
		// The origin's own info tags: its first other-info values and the
		// location value of its home city, when defined.
		count := 0
		for _, v := range a.Plan.Values() {
			d, _ := a.Plan.Lookup(v)
			if d.Category() != dict.CatInformation {
				continue
			}
			st.ownInfo = append(st.ownInfo, bgp.NewCommunity(uint16(a.Alpha()), v))
			if count++; count >= 3 {
				break
			}
		}
	}

	for _, pASN := range a.Providers {
		p := s.topo.ASes[pASN]
		if p.Plan == nil {
			continue
		}
		pp := providerPlan{asn: pASN, alpha: p.Alpha()}
		for _, v := range p.Plan.Values() {
			d, _ := p.Plan.Lookup(v)
			if d.Category() != dict.CatAction {
				continue
			}
			if d.Sub == dict.SubBlackhole {
				if !pp.hasBH {
					pp.blackhole = bgp.NewCommunity(uint16(pp.alpha), v)
					pp.hasBH = true
				}
				continue
			}
			pp.actionVals = append(pp.actionVals, v)
			if d.TargetRegion == a.HomeRegion {
				pp.regionVals = append(pp.regionVals, v)
			}
		}
		if len(pp.actionVals) > 0 || pp.hasBH {
			st.providers = append(st.providers, pp)
		}
	}

	for _, ix := range s.topo.IXPs {
		plan := ix.Plan
		if plan == nil || !slices.Contains(ix.Members, a.ASN) {
			continue
		}
		st.ixpIDs = append(st.ixpIDs, ix.ID)
		var sup []bgp.Community
		for _, v := range plan.Values() {
			if d, _ := plan.Lookup(v); d.Sub == dict.SubSuppress {
				sup = append(sup, bgp.NewCommunity(uint16(plan.ASN), v))
			}
		}
		st.rsSuppress = append(st.rsSuppress, sup)
	}
	return st
}

// originRoute builds the route as announced by the origin, with all the
// communities the origin attaches: its own information tags, its
// providers' action communities, route-server actions, well-known
// communities, private-range junk, and occasional leaked foreign
// information communities. Choices are deterministic per
// (seed, origin, prefix), with a small day-dependent jitter. The route's
// large communities are returned beside it: views share them, and no
// hop adds any.
func (w *worker) originRoute(op originPrefix) (*route, bgp.LargeCommunities) {
	s, day := w.s, w.day
	a := s.ases[op.origin]
	st := s.originStates[op.origin]
	pkey := prefixKey(op.prefix)

	r := &route{pathLen: 0, lpref: defaultLocalPref(topology.RelCustomer)}
	var comms bgp.Communities

	// Own information tags (α = origin): trivially on-path.
	if len(st.ownInfo) > 0 {
		rng := keyRand(w.rng[0], s.cfg.Seed, pkey^uint64(a.ASN), saltOwnInfo)
		n := 1 + rng.Intn(len(st.ownInfo))
		comms = append(comms, st.ownInfo[:n]...)
	}

	if op.blackhole {
		// Blackhole announcements carry the provider's blackhole
		// community (or the well-known one) and nothing else fancy.
		tagged := false
		for _, pp := range st.providers {
			if pp.hasBH {
				comms = append(comms, pp.blackhole)
				tagged = true
				break
			}
		}
		if !tagged {
			comms = append(comms, bgp.CommunityBlackhole)
		}
		r.comms = comms
		return r, nil
	}

	// Provider action communities: the mechanism that puts action values
	// on provider-disjoint (off-path) routes.
	for _, pp := range st.providers {
		use := keyRand(w.rng[0], s.cfg.Seed, pkey^uint64(pp.asn)^uint64(a.ASN), saltActionUse)
		if use.Float64() >= s.cfg.ActionUseProb || len(pp.actionVals) == 0 {
			continue
		}
		pick := keyRand(w.rng[0], s.cfg.Seed, pkey^uint64(pp.asn)^uint64(a.ASN), saltActionPick)
		if jit := keyRand(w.rng[1], s.cfg.Seed, pkey^uint64(pp.asn)^uint64(a.ASN)^uint64(day)<<40, saltActionPick); jit.Float64() < s.cfg.DayActionJitter {
			pick = jit
		}
		n := 1 + pick.Intn(2)
		for i := 0; i < n; i++ {
			pool := pp.actionVals
			if len(pp.regionVals) > 0 && pick.Float64() < 0.85 {
				pool = pp.regionVals
			}
			// Popularity skew: customers converge on the same few knobs
			// (e.g. "prepend once toward the big peer"), so the first
			// values of a pool see disproportionate use and the tail is
			// sparsely observed.
			var v uint16
			if pick.Float64() < 0.5 {
				v = pool[pick.Intn(min(2, len(pool)))]
			} else {
				v = pool[pick.Intn(len(pool))]
			}
			comms = append(comms, bgp.NewCommunity(uint16(pp.alpha), v))
		}
	}

	// Route-server actions for IXP members.
	for i := range st.ixpIDs {
		if len(st.rsSuppress[i]) == 0 {
			continue
		}
		rng := keyRand(w.rng[0], s.cfg.Seed, pkey^uint64(st.ixpIDs[i])<<20^uint64(a.ASN), saltRS)
		if rng.Float64() < s.cfg.RSActionUseProb {
			comms = append(comms, st.rsSuppress[i][rng.Intn(len(st.rsSuppress[i]))])
		}
	}

	// Private-range junk the method must leave unclassified.
	junk := keyRand(w.rng[0], s.cfg.Seed, pkey^uint64(a.ASN), saltJunk)
	if junk.Float64() < s.cfg.PrivateJunkProb {
		comms = append(comms, bgp.NewCommunity(uint16(64512+junk.Intn(1022)), uint16(junk.Intn(65536))))
	}

	// Cargo-cult leakage of a foreign information community: the source
	// of small off-path counts in information clusters.
	leak := keyRand(w.rng[0], s.cfg.Seed, pkey^uint64(a.ASN), saltLeak)
	if leak.Float64() < s.cfg.LeakProb && len(s.leakPool) > 0 {
		comms = append(comms, s.leakPool[leak.Intn(len(s.leakPool))])
	}

	// NO_EXPORT confinement.
	ne := keyRand(w.rng[0], s.cfg.Seed, pkey^uint64(a.ASN), saltJunk^0x5a5a)
	if ne.Float64() < s.cfg.NoExportProb {
		comms = append(comms, bgp.CommunityNoExport)
	}

	// Large-community mirroring: some origins duplicate their tags in the
	// RFC 8092 form (α as 32-bit ASN, function code, value). In matrix
	// mode every origin mirrors unconditionally — the deterministic
	// std/lrg announce/suppress matrix.
	var lcs bgp.LargeCommunities
	lm := keyRand(w.rng[0], s.cfg.Seed, pkey^uint64(a.ASN), saltLarge)
	if s.cfg.LargeMatrix || lm.Float64() < s.cfg.LargeMirrorProb {
		lcs = make(bgp.LargeCommunities, 0, len(comms))
		for _, c := range comms {
			if c.IsWellKnown() || c.IsPrivateASN() {
				continue
			}
			lcs = append(lcs, bgp.LargeCommunity{
				GlobalAdmin: uint32(c.ASN()),
				LocalData1:  1, // operator "function" field
				LocalData2:  uint32(c.Value()),
			})
		}
		lcs.Sort()
	}

	r.comms = comms
	return r, lcs
}

// prefixKey derives a stable 64-bit key from a prefix.
func prefixKey(p bgp.Prefix) uint64 {
	a := p.Addr().As4()
	return uint64(a[0])<<32 | uint64(a[1])<<24 | uint64(a[2])<<16 | uint64(a[3])<<8 | uint64(p.Bits())
}

// keyRand re-seeds r to the deterministic stream of (seed, key, salt) and
// returns it. Seeding a rand.Rand restarts it exactly where a fresh
// rand.NewSource of that seed would start, without allocating the
// source's 4.9 KB state per draw site.
func keyRand(r *rand.Rand, seed int64, key uint64, salt int64) *rand.Rand {
	r.Seed(int64(mix(uint64(seed)^key*0x9e3779b97f4a7c15, uint64(salt))))
	return r
}

// mix is the splitmix64 finalizer over x^salt.
func mix(x, salt uint64) uint64 {
	x ^= salt * 0xc2b2ae3d27d4eb4f
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

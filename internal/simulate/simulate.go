// Package simulate propagates BGP routes over a generated topology and
// records what route collectors would observe. It implements Gao-Rexford
// valley-free export with community semantics: customers attach their
// providers' action communities at origination, transit ASes honor them
// (prepending, suppression, local-pref, blackholing) and attach their own
// information communities at ingress (location, relationship, ROV), IXP
// route servers tag routes while staying out of the AS path, and a small
// population of ASes strips communities entirely.
//
// The output — vantage-point views of (prefix, AS path, communities) —
// substitutes for the RouteViews/RIS corpus the paper measures.
package simulate

import (
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"sync"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
	"bgpintent/internal/topology"
)

// Config controls corpus simulation.
type Config struct {
	Seed int64

	// Collectors is the number of route collectors; vantage points are
	// assigned to collectors round-robin.
	Collectors int

	// VantagePoints is the number of full-feed VP sessions.
	VantagePoints int

	// ActionUseProb is the probability that an origin attaches action
	// communities from one of its providers' plans to a prefix.
	ActionUseProb float64

	// RSActionUseProb is the probability an IXP member origin attaches a
	// route-server action community.
	RSActionUseProb float64

	// PrivateJunkProb is the probability an origin attaches a community
	// with a private-range α, which the method must refuse to classify.
	PrivateJunkProb float64

	// LeakProb is the probability an origin erroneously attaches a
	// foreign information community (cargo-cult configuration); this is
	// what gives information clusters small off-path counts (Fig. 6).
	LeakProb float64

	// NoExportProb is the probability an origin confines a prefix with
	// the well-known NO_EXPORT community.
	NoExportProb float64

	// BlackholeProb is the probability an origin announces an additional
	// blackholed /32 under one of its prefixes.
	BlackholeProb float64

	// LinkFlapFrac is the per-day fraction of multihomed stubs that lose
	// one provider link, making paths (and tuples) vary across days.
	LinkFlapFrac float64

	// DayActionJitter is the per-day probability that an origin's action
	// tagging for a prefix is re-drawn, adding day-over-day tuple
	// diversity.
	DayActionJitter float64

	// PartialFeedFrac is the fraction of vantage points that provide
	// peer-style partial feeds (customer-cone routes only) instead of
	// full tables, as many RouteViews/RIS peers do.
	PartialFeedFrac float64

	// LargeMirrorProb is the probability that an origin mirrors its
	// attached communities as large (RFC 8092) communities too, giving
	// the corpus the regular/large mix the paper reports. Unlike the
	// paper (which counts large communities and defers them), the
	// pipeline classifies the mirrored large space as well.
	LargeMirrorProb float64

	// LargeMatrix makes the mirroring deterministic: every eligible
	// community an origin attaches gets its large twin, regardless of
	// LargeMirrorProb — the arouteserver-style std/lrg matrix, where
	// each standard announce/suppress control has a large-form sibling.
	LargeMatrix bool
}

// DefaultConfig returns corpus-scale simulation parameters.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Collectors:      3,
		VantagePoints:   180,
		ActionUseProb:   0.45,
		RSActionUseProb: 0.25,
		PrivateJunkProb: 0.02,
		LeakProb:        0.012,
		NoExportProb:    0.002,
		BlackholeProb:   0.04,
		LinkFlapFrac:    0.03,
		DayActionJitter: 0.08,
		PartialFeedFrac: 0.40,
		LargeMirrorProb: 0.10,
	}
}

// LargeConfig returns simulation parameters for the large corpus scale.
func LargeConfig() Config {
	cfg := DefaultConfig()
	cfg.VantagePoints = 420
	cfg.Collectors = 5
	return cfg
}

// TinyConfig returns fast parameters for unit tests.
func TinyConfig() Config {
	cfg := DefaultConfig()
	cfg.VantagePoints = 40
	cfg.Collectors = 2
	return cfg
}

// View is one vantage point's route for one prefix: the unit of
// observation the inference pipeline consumes.
type View struct {
	VP     uint32 // vantage-point ASN (first element of Path)
	Prefix bgp.Prefix
	Path   []uint32 // nearest-first, origin last, VP included
	Comms  bgp.Communities
	// LargeComms carries the route's large communities; the pipeline
	// counts but does not classify them, like the paper.
	LargeComms bgp.LargeCommunities
}

// DayResult is one day of collected views.
type DayResult struct {
	Day   int
	Views []View
}

// route is a route as held by one AS. The AS path is a parent chain —
// each hop records who announced it and how many extra prepends were
// applied — materialized only at vantage points. Learned routes and
// their communities live in a worker's scratch for one prefix. Large
// communities are only ever the origin's, so a route says whether a hop
// dropped them rather than carrying them.
type route struct {
	parent    *route
	comms     bgp.Communities
	sender    uint32 // ASN that announced this route to the holder
	prepends  int32  // extra repetitions of sender beyond the mandatory one
	pathLen   int32  // total materialized path length
	lpref     uint32
	from      int32 // dense index of the neighbor it was learned from
	fromRel   int8  // topology.Rel* the route was learned over
	blackhole bool
	noExport  bool // comms carries NO_EXPORT
	stripped  bool // a hop filtered communities, the origin's larges too
}

// appendPath materializes the AS path (nearest-first, origin last).
func (r *route) appendPath(dst []uint32) []uint32 {
	for cur := r; cur.parent != nil; cur = cur.parent {
		for i := int32(0); i <= cur.prepends; i++ {
			dst = append(dst, cur.sender)
		}
	}
	return dst
}

// better implements best-path selection: highest local-pref (which
// encodes the customer > peer > provider preference by default), then
// shortest AS path, then lowest neighbor index.
func better(r, than *route) bool {
	if than == nil {
		return true
	}
	if r.lpref != than.lpref {
		return r.lpref > than.lpref
	}
	if r.pathLen != than.pathLen {
		return r.pathLen < than.pathLen
	}
	return r.from < than.from
}

// defaultLocalPref encodes the Gao-Rexford preference order.
func defaultLocalPref(rel int) uint32 {
	switch rel {
	case topology.RelCustomer:
		return 200
	case topology.RelPeer:
		return 100
	default:
		return 50
	}
}

// planCache precomputes per-AS lookups the hot transfer path needs.
type planCache struct {
	defs      defTable
	locCity   map[int]uint16 // city -> location β
	locRegion map[int]uint16 // region -> rollup location β
	relDef    map[int]uint16 // relationship -> β
	rovDef    map[int]uint16 // ROV state -> β
	otherInfo []uint16       // other-info β, for rotating internal tags
}

func newPlanCache(plan *dict.Plan) *planCache {
	c := &planCache{
		defs:      newDefTable(plan),
		locCity:   make(map[int]uint16),
		locRegion: make(map[int]uint16),
		relDef:    make(map[int]uint16),
		rovDef:    make(map[int]uint16),
	}
	for _, v := range plan.Values() {
		d, _ := plan.Lookup(v)
		switch d.Sub {
		case dict.SubLocation:
			if d.City != 0 {
				if _, dup := c.locCity[d.City]; !dup {
					c.locCity[d.City] = v
				}
			} else if d.Region != 0 {
				if _, dup := c.locRegion[d.Region]; !dup {
					c.locRegion[d.Region] = v
				}
			}
		case dict.SubRelationship:
			if _, dup := c.relDef[d.Rel]; !dup {
				c.relDef[d.Rel] = v
			}
		case dict.SubROV:
			if _, dup := c.rovDef[d.ROV]; !dup {
				c.rovDef[d.ROV] = v
			}
		case dict.SubOtherInfo:
			c.otherInfo = append(c.otherInfo, v)
		}
	}
	return c
}

// defTable finds a plan's definitions by β in an open-addressed table;
// Plan.Lookup's map hashing was a sixth of a simulated day's CPU.
type defTable struct {
	slots []defSlot
	shift uint // 32 - log2(len(slots))
}

type defSlot struct {
	beta uint16
	def  *dict.Def // nil: empty
}

func newDefTable(plan *dict.Plan) defTable {
	bits := uint(2)
	for 1<<bits < 2*len(plan.Defs) {
		bits++
	}
	t := defTable{slots: make([]defSlot, 1<<bits), shift: 32 - bits}
	for beta, d := range plan.Defs {
		i := t.home(beta)
		for t.slots[i].def != nil {
			i = (i + 1) & uint32(len(t.slots)-1)
		}
		t.slots[i] = defSlot{beta, d}
	}
	return t
}

// home is β's first probe: a Fibonacci hash, so the contiguous blocks
// plans number their values in do not pile onto one run of slots.
func (t *defTable) home(beta uint16) uint32 { return uint32(beta) * 0x9e3779b1 >> t.shift }

func (t *defTable) lookup(beta uint16) (*dict.Def, bool) {
	for i := t.home(beta); ; i = (i + 1) & uint32(len(t.slots)-1) {
		if sl := &t.slots[i]; sl.def == nil || sl.beta == beta {
			return sl.def, sl.def != nil
		}
	}
}

// routeServer is an IXP route server's plan (the α its communities use
// and its definitions) and the "learned here" information community it
// tags, if its plan defines one.
type routeServer struct {
	alpha  uint32
	defs   defTable
	tag    bgp.Community
	hasTag bool
}

// link is one direction of a session as transfer reads it: the
// sender-side session city and its region, and the route server on a
// multilateral IXP session (nil on a bilateral one).
type link struct {
	city, region int
	rs           *routeServer
}

// edge is one adjacency of an AS in dense form: the neighbor's index and
// both directions of the session.
type edge struct {
	nbr     int32
	out, in link // toward the neighbor, and from it
}

// adjacency holds every AS's edges in one slice: AS u's are
// edges[at[u]:at[u+1]], so an edge's position there names it (the day's
// down-link flags are indexed by it).
type adjacency struct {
	at    []int32
	edges []edge
}

func (a *adjacency) of(u int32) (base int32, es []edge) {
	return a.at[u], a.edges[a.at[u]:a.at[u+1]]
}

type originPrefix struct {
	prefix    bgp.Prefix
	origin    int32
	blackhole bool // announced with the origin's provider blackhole community
}

// Simulator runs route propagation over a topology.
type Simulator struct {
	topo *topology.Topology
	cfg  Config

	vps    []uint32
	index  map[uint32]int32 // ASN -> dense index
	asns   []uint32         // dense index -> ASN
	ases   []*topology.AS   // dense index -> AS
	caches []*planCache     // dense index -> plan cache (nil without plan)

	// cust lists each AS's customers in topology order; peers its
	// private peers, then its IXP peers by ascending ASN.
	cust, peers adjacency

	originStates []*originState
	leakPool     []bgp.Community // foreign info communities origins may leak

	origins []originPrefix
}

// New prepares a simulator: dense indexes and adjacency, vantage-point
// selection, plan caches, and the prefix origin list.
func New(topo *topology.Topology, cfg Config) *Simulator {
	s := &Simulator{
		topo:  topo,
		cfg:   cfg,
		index: make(map[uint32]int32, len(topo.ASes)),
	}
	n := len(topo.Order)
	s.asns = make([]uint32, n)
	s.ases = make([]*topology.AS, n)
	s.caches = make([]*planCache, n)
	for i, asn := range topo.Order {
		s.index[asn] = int32(i)
		s.asns[i] = asn
		s.ases[i] = topo.ASes[asn]
		if s.ases[i].Plan != nil {
			s.caches[i] = newPlanCache(s.ases[i].Plan)
		}
	}
	servers := make(map[int]*routeServer)
	for _, ix := range topo.IXPs {
		if ix.Plan == nil {
			continue
		}
		rs := &routeServer{alpha: ix.Plan.ASN, defs: newDefTable(ix.Plan)}
		for _, v := range ix.Plan.Values() {
			if d, _ := ix.Plan.Lookup(v); d.Sub == dict.SubOtherInfo {
				rs.tag, rs.hasTag = bgp.NewCommunity(uint16(ix.RouteServerASN), v), true
				break
			}
		}
		servers[ix.ID] = rs
	}
	s.buildAdjacency(servers)
	// Leak pool: transit information communities an origin might
	// cargo-cult onto its own announcements (or carry stale after
	// re-homing). The rate is kept low: with full-feed vantage points a
	// single leak event is visible on every path to the leaking origin,
	// so leaks are far more corrosive here than in the partial-visibility
	// reality (see EXPERIMENTS.md, Fig. 6 notes).
	for _, asn := range topo.Order {
		a := topo.ASes[asn]
		if a.Plan == nil || a.Tier == topology.TierStub {
			continue
		}
		count := 0
		for _, v := range a.Plan.Values() {
			if d, _ := a.Plan.Lookup(v); d.Category() == dict.CatInformation {
				s.leakPool = append(s.leakPool, bgp.NewCommunity(uint16(a.Alpha()), v))
				if count++; count >= 2 {
					break
				}
			}
		}
	}
	s.originStates = make([]*originState, n)
	for i := range s.ases {
		s.originStates[i] = s.buildOriginState(int32(i))
	}
	s.selectVPs()
	s.buildOrigins()
	return s
}

// buildAdjacency lays out every AS's customer and peer edges with what
// transfer needs of each direction, so propagation does no map lookup.
func (s *Simulator) buildAdjacency(servers map[int]*routeServer) {
	dir := func(from, to int32) link {
		sender, recv := s.ases[from], s.ases[to]
		city := sender.LinkCity[recv.ASN]
		l := link{city: city, region: s.topo.Region(city)}
		if ixpID, ok := sender.IXPPeers[recv.ASN]; ok {
			l.rs = servers[ixpID]
		}
		return l
	}
	add := func(adj *adjacency, u int32, nbrs []uint32) {
		for _, asn := range nbrs {
			v := s.index[asn]
			adj.edges = append(adj.edges, edge{nbr: v, out: dir(u, v), in: dir(v, u)})
		}
	}
	n := int32(len(s.ases))
	s.cust.at = make([]int32, 1, n+1)
	s.peers.at = make([]int32, 1, n+1)
	for u := int32(0); u < n; u++ {
		a := s.ases[u]
		add(&s.cust, u, a.Customers)
		add(&s.peers, u, a.Peers)
		ixp := make([]uint32, 0, len(a.IXPPeers))
		for asn := range a.IXPPeers {
			ixp = append(ixp, asn)
		}
		slices.Sort(ixp)
		add(&s.peers, u, ixp)
		s.cust.at = append(s.cust.at, int32(len(s.cust.edges)))
		s.peers.at = append(s.peers.at, int32(len(s.peers.edges)))
	}
}

// selectVPs picks the vantage-point population: every tier-1/2, then a
// deterministic sample of tier-3 and stubs, mirroring the transit-heavy
// RouteViews/RIS peer mix.
func (s *Simulator) selectVPs() {
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ 0x5eed))
	var transit, t3, stubs []uint32
	for _, asn := range s.topo.Order {
		switch s.topo.ASes[asn].Tier {
		case topology.TierT1, topology.TierT2:
			transit = append(transit, asn)
		case topology.TierT3:
			t3 = append(t3, asn)
		default:
			stubs = append(stubs, asn)
		}
	}
	for _, group := range [][]uint32{transit, t3, stubs} {
		sort.Slice(group, func(i, j int) bool { return group[i] < group[j] })
	}
	rng.Shuffle(len(t3), func(i, j int) { t3[i], t3[j] = t3[j], t3[i] })
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	want := s.cfg.VantagePoints
	vps := append([]uint32{}, transit...)
	if len(vps) > want {
		vps = vps[:want]
	}
	if rem := want - len(vps); rem > 0 {
		n3 := min(rem*2/3, len(t3))
		vps = append(vps, t3[:n3]...)
		if rem = want - len(vps); rem > 0 {
			vps = append(vps, stubs[:min(rem, len(stubs))]...)
		}
	}
	sort.Slice(vps, func(i, j int) bool { return vps[i] < vps[j] })
	s.vps = vps
}

// buildOrigins lists every originated prefix, plus blackholed /32s for a
// sample of stub origins.
func (s *Simulator) buildOrigins() {
	for idx, a := range s.ases {
		for _, p := range a.Prefixes {
			s.origins = append(s.origins, originPrefix{prefix: p, origin: int32(idx)})
		}
	}
	r := rand.New(rand.NewSource(0))
	for idx, a := range s.ases {
		if a.Tier != topology.TierStub || len(a.Prefixes) == 0 {
			continue
		}
		rng := keyRand(r, s.cfg.Seed, uint64(a.ASN), 0xb1ac)
		if rng.Float64() >= s.cfg.BlackholeProb {
			continue
		}
		base := a.Prefixes[0]
		addr := base.Addr().As4()
		addr[3] = byte(1 + rng.Intn(250))
		p := bgp.PrefixFrom(netip.AddrFrom4(addr), 32)
		s.origins = append(s.origins, originPrefix{prefix: p, origin: int32(idx), blackhole: true})
	}
	sort.Slice(s.origins, func(i, j int) bool {
		a, b := s.origins[i].prefix, s.origins[j].prefix
		if a.Addr() != b.Addr() {
			return a.Addr().Less(b.Addr())
		}
		return a.Bits() < b.Bits()
	})
}

// VPs returns the vantage-point ASNs.
func (s *Simulator) VPs() []uint32 { return s.vps }

// Prefixes returns the number of originated prefixes (including
// blackhole /32s).
func (s *Simulator) Prefixes() int { return len(s.origins) }

// RunDay propagates every prefix for one day and returns the vantage
// point views. Day-dependent state: a fraction of multihomed stubs lose
// one provider link, and some origins re-draw their action tagging.
//
// Prefixes are independent, so the work is sharded across GOMAXPROCS
// workers; per-prefix determinism keeps the output identical to a
// sequential run. Each worker propagates a prefix in scratch it resets
// for the next one; a view holds only copies of what it reads there and
// the large communities its origin route owns.
func (s *Simulator) RunDay(day int) *DayResult {
	res := &DayResult{Day: day}
	vpIdx := make([]int32, len(s.vps))
	partial := make([]bool, len(s.vps))
	for i, vp := range s.vps {
		vpIdx[i] = s.index[vp]
		partial[i] = s.isPartialFeed(vp)
	}
	down := s.dayDownLinks(day)

	workers := max(1, min(runtime.GOMAXPROCS(0), len(s.origins)))
	// Contiguous origin shards keep the output prefix-major and stable.
	shards := make([][][]View, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(s.origins) / workers
		hi := (w + 1) * len(s.origins) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			shards[w] = s.newWorker(day, down).runOrigins(s.origins[lo:hi], vpIdx, partial)
		}(w, lo, hi)
	}
	wg.Wait()
	res.Views = slices.Concat(slices.Concat(shards...)...)
	return res
}

// worker is one RunDay goroutine's propagation state. Its best-route
// tables and slabs are reset for each prefix, so a day allocates little
// beyond the views themselves.
type worker struct {
	s    *Simulator
	day  int
	down []bool // the day's down links, by position in s.cust

	custBest, peerBest, provBest []*route
	routes                       slab[route]
	comms                        slab[bgp.Community]
	// rng are re-seeded per draw site (keyRand); originRoute holds at
	// most two streams at once.
	rng [2]*rand.Rand
}

func (s *Simulator) newWorker(day int, down []bool) *worker {
	n := len(s.ases)
	return &worker{
		s: s, day: day, down: down,
		custBest: make([]*route, n),
		peerBest: make([]*route, n),
		provBest: make([]*route, n),
		rng:      [2]*rand.Rand{rand.New(rand.NewSource(0)), rand.New(rand.NewSource(0))},
	}
}

// slabChunk is the length of a slab chunk.
const slabChunk = 1024

// slab hands out slices of T from chunks it allocates as it needs them:
// reserve returns an empty slice with room for n in the current chunk's
// free tail, and keep makes the first k elements of the last reservation
// permanent, so a reservation that is not kept is reused by the next one.
// Kept elements stay where they are until reset, which lets the next
// reservations overwrite the chunks.
type slab[T any] struct {
	chunks [][]T
	c, off int // current chunk, first free slot in it
}

func (sl *slab[T]) reserve(n int) []T {
	if sl.c == len(sl.chunks) || sl.off+n > len(sl.chunks[sl.c]) {
		if sl.c < len(sl.chunks) {
			sl.c++
		}
		if sl.c == len(sl.chunks) {
			sl.chunks = append(sl.chunks, nil)
		}
		if len(sl.chunks[sl.c]) < n {
			sl.chunks[sl.c] = make([]T, max(slabChunk, n))
		}
		sl.off = 0
	}
	return sl.chunks[sl.c][sl.off : sl.off : sl.off+n]
}

func (sl *slab[T]) keep(k int) { sl.off += k }

// put keeps a copy of *v and returns its address.
func (sl *slab[T]) put(v *T) *T {
	p := &sl.reserve(1)[:1][0]
	*p = *v
	sl.keep(1)
	return p
}

func (sl *slab[T]) reset() { sl.c, sl.off = 0, 0 }

// runOrigins propagates one shard of prefixes and collects its views in
// fixed-size chunks, which RunDay copies out once.
func (w *worker) runOrigins(origins []originPrefix, vpIdx []int32, partial []bool) [][]View {
	s := w.s
	var chunks [][]View
	for _, op := range origins {
		clear(w.custBest)
		clear(w.peerBest)
		clear(w.provBest)
		w.routes.reset()
		w.comms.reset()
		orig, larges := w.originRoute(op)
		w.propagate(op, orig)
		for i, vp := range s.vps {
			vi := vpIdx[i]
			best := bestOf(w.custBest[vi], w.peerBest[vi], w.provBest[vi])
			if vi == op.origin {
				best = orig
			}
			if best == nil {
				continue
			}
			// Partial feeds share only customer-cone routes, like the
			// peer sessions many collectors have.
			if partial[i] && vi != op.origin && best.fromRel != topology.RelCustomer {
				continue
			}
			path := make([]uint32, 0, int(best.pathLen)+1)
			path = append(path, vp)
			path = best.appendPath(path)
			comms := best.comms
			lcomms := larges
			if best.stripped {
				lcomms = nil
			}
			if s.ases[vi].FiltersCommunities {
				comms, lcomms = nil, nil
			}
			if len(chunks) == 0 || len(chunks[len(chunks)-1]) == slabChunk {
				chunks = append(chunks, make([]View, 0, slabChunk))
			}
			last := &chunks[len(chunks)-1]
			*last = append(*last, View{
				VP:         vp,
				Prefix:     op.prefix,
				Path:       path,
				Comms:      comms.Canonical(),
				LargeComms: lcomms,
			})
		}
	}
	return chunks
}

// isPartialFeed reports whether a vantage point provides a peer-style
// partial feed (deterministic per VP).
func (s *Simulator) isPartialFeed(vp uint32) bool {
	if s.cfg.PartialFeedFrac <= 0 {
		return false
	}
	return float64(mix(uint64(vp), 0xfeed)%1000) < s.cfg.PartialFeedFrac*1000
}

// dayDownLinks flags the (provider, stub) edges of s.cust that are down
// on the given day.
func (s *Simulator) dayDownLinks(day int) []bool {
	down := make([]bool, len(s.cust.edges))
	if s.cfg.LinkFlapFrac <= 0 {
		return down
	}
	// mark flags u's customer edges to v.
	mark := func(u, v int32) {
		base, es := s.cust.of(u)
		for j := range es {
			if es[j].nbr == v {
				down[base+int32(j)] = true
			}
		}
	}
	r := rand.New(rand.NewSource(0))
	for i, a := range s.ases {
		if a.Tier != topology.TierStub || len(a.Providers) < 2 {
			continue
		}
		rng := keyRand(r, s.cfg.Seed, uint64(a.ASN)<<16|uint64(day), 0xf1a9)
		if rng.Float64() < s.cfg.LinkFlapFrac {
			p := s.index[a.Providers[rng.Intn(len(a.Providers))]]
			mark(p, int32(i)) // the link is down whichever end lists it
			mark(int32(i), p)
		}
	}
	return down
}

// propagate computes every AS's candidate routes for one prefix using the
// three Gao-Rexford phases: customer routes climb provider links, then
// cross peer links once, then descend to customers. Local-pref action
// communities influence selection inside each AS; as in other valley-free
// simulators, a route already exported upward in phase one is not
// retracted if a later phase wins selection.
func (w *worker) propagate(op originPrefix, orig *route) {
	n := int32(len(w.s.ases))
	// Phase 1: customer routes, customers before providers.
	for u := int32(0); u < n; u++ {
		base, es := w.s.cust.of(u)
		for i := range es {
			e := &es[i]
			src := w.custBest[e.nbr]
			if e.nbr == op.origin {
				src = orig
			}
			if src == nil || w.down[base+int32(i)] {
				continue
			}
			w.transfer(e.nbr, u, topology.RelCustomer, &e.in, src, op, &w.custBest[u])
		}
	}
	// Phase 2: best customer (or origin) route crosses peer links.
	for u := int32(0); u < n; u++ {
		src := w.custBest[u]
		if u == op.origin {
			src = orig
		}
		if src == nil {
			continue
		}
		_, es := w.s.peers.of(u)
		for i := range es {
			e := &es[i]
			w.transfer(u, e.nbr, topology.RelPeer, &e.out, src, op, &w.peerBest[e.nbr])
		}
	}
	// Phase 3: overall best descends provider->customer, providers first.
	for u := n - 1; u >= 0; u-- {
		src := bestOf(w.custBest[u], w.peerBest[u], w.provBest[u])
		if u == op.origin {
			src = orig
		}
		if src == nil {
			continue
		}
		base, es := w.s.cust.of(u)
		for i := range es {
			e := &es[i]
			if e.nbr == op.origin || w.down[base+int32(i)] {
				continue
			}
			w.transfer(u, e.nbr, topology.RelProvider, &e.out, src, op, &w.provBest[e.nbr])
		}
	}
}

func bestOf(routes ...*route) *route {
	var best *route
	for _, r := range routes {
		if r != nil && better(r, best) {
			best = r
		}
	}
	return best
}

// transfer models one announcement hop over l: the sender's export policy
// (including the action communities its customers set) followed by the
// receiver's import processing (local-pref, blackhole detection,
// information tagging). rel is the relationship of the sender from the
// receiver's perspective. When the route is exported and wins selection
// against *best, transfer keeps it, and its communities, in the worker's
// slabs and points *best at it; a route that loses is dropped before its
// ingress tags, which selection does not read, are computed.
func (w *worker) transfer(from, to int32, rel int, l *link, r *route, op originPrefix, best **route) {
	s := w.s
	sender, recv := s.ases[from], s.ases[to]
	if r.blackhole {
		return // blackhole routes stay within the honoring AS
	}
	// NO_EXPORT confines a learned route; the origin itself may announce.
	if r.parent != nil && r.noExport {
		return
	}
	linkCity, linkRegion := l.city, l.region

	prepends := 0
	if sc := s.caches[from]; sc != nil {
		for _, c := range r.comms {
			if uint32(c.ASN()) != sender.Alpha() {
				continue
			}
			def, ok := sc.defs.lookup(c.Value())
			if !ok {
				continue
			}
			switch def.Sub {
			case dict.SubSuppress:
				if actionMatches(def, recv.ASN, linkRegion) {
					return
				}
			case dict.SubSetAttribute:
				if def.Prepend > prepends && actionMatches(def, recv.ASN, linkRegion) {
					prepends = def.Prepend
				}
			}
		}
	}

	out := route{
		parent:   r,
		sender:   sender.ASN,
		prepends: int32(prepends),
		pathLen:  r.pathLen + 1 + int32(prepends),
		from:     from,
		fromRel:  int8(rel),
		stripped: r.stripped || sender.FiltersCommunities,
		lpref:    defaultLocalPref(rel),
	}

	// Room for the route-server tag and the four ingress tags.
	comms := bgp.Communities(w.comms.reserve(len(r.comms) + 5))
	if !sender.FiltersCommunities {
		comms = append(comms, r.comms...)
	}

	// IXP route-server processing on multilateral sessions: the RS honors
	// member-set actions and adds its tag, without entering the path.
	if rs := l.rs; rs != nil {
		for _, c := range comms {
			if uint32(c.ASN()) != rs.alpha {
				continue
			}
			if def, ok := rs.defs.lookup(c.Value()); ok &&
				def.Sub == dict.SubSuppress && actionMatches(def, recv.ASN, linkRegion) {
				return
			}
		}
		if rs.hasTag {
			comms = append(comms, rs.tag)
		}
	}

	// Receiver import: local-pref overrides and blackhole requests set by
	// its customers.
	cache := s.caches[to]
	if cache != nil {
		for _, c := range comms {
			if uint32(c.ASN()) != recv.Alpha() {
				continue
			}
			def, ok := cache.defs.lookup(c.Value())
			if !ok {
				continue
			}
			if def.Sub == dict.SubSetAttribute && def.HasLocalPref && def.TargetAS == 0 &&
				(def.TargetRegion == 0 || def.TargetRegion == linkRegion) {
				out.lpref = def.LocalPref
			}
			if def.Sub == dict.SubBlackhole {
				out.blackhole = true
			}
		}
	}
	if !better(&out, *best) {
		return
	}
	if comms.Has(bgp.CommunityBlackhole) {
		out.blackhole = true
	}

	// Receiver ingress tagging.
	if cache != nil && !recv.FiltersCommunities {
		asn16 := uint16(recv.Alpha())
		if recv.TagsLocation {
			if v, ok := cache.locCity[linkCity]; ok {
				comms = append(comms, bgp.NewCommunity(asn16, v))
			} else if v, ok := cache.locRegion[linkRegion]; ok {
				comms = append(comms, bgp.NewCommunity(asn16, v))
			}
		}
		// Relationship tags drive export policy ("may I export this?"),
		// so operators tag customer- and peer-learned routes; provider-
		// learned routes need no mark.
		if recv.TagsRelationship && rel != topology.RelProvider {
			if v, ok := cache.relDef[rel]; ok {
				comms = append(comms, bgp.NewCommunity(asn16, v))
			}
		}
		if recv.TagsROV {
			if v, ok := cache.rovDef[ROVState(s.asns[op.origin])]; ok {
				comms = append(comms, bgp.NewCommunity(asn16, v))
			}
		}
		// Internal metadata tags rotate over the other-info values by a
		// stable per-(AS, prefix, ingress-city) hash, so newly defined
		// values (plan growth across epochs) become observable and each
		// value is seen at many ingress points (internal tags are not
		// location signals).
		if len(cache.otherInfo) > 0 {
			h := mix(prefixKey(op.prefix)^uint64(recv.ASN)^uint64(linkCity)<<40, 0x07e2)
			if h%2 == 0 {
				comms = append(comms, bgp.NewCommunity(asn16, cache.otherInfo[(h>>8)%uint64(len(cache.otherInfo))]))
			}
		}
	}
	out.comms = comms
	out.noExport = comms.Has(bgp.CommunityNoExport)
	w.comms.keep(len(comms))
	*best = w.routes.put(&out)
}

// ROVState returns the Route Origin Validation state of an origin AS in
// the simulated Internet: 0 valid (most), 2 unknown (some), 1 invalid
// (few). It is the synthetic substitute for an RPKI validated-ROA table
// and is exported for consumers that need the oracle (e.g. fine-grained
// community classification).
func ROVState(origin uint32) int {
	h := mix(uint64(origin), 0x20f)
	switch {
	case h%10 < 7:
		return 0
	case h%10 < 9:
		return 2
	default:
		return 1
	}
}

// actionMatches reports whether an action definition applies to an export
// toward neighbor nbr on a session in linkRegion. Definitions with no
// target at all apply only to suppression (a global do-not-export).
func actionMatches(def *dict.Def, nbr uint32, linkRegion int) bool {
	if def.TargetAS != 0 && def.TargetAS != nbr {
		return false
	}
	if def.TargetRegion != 0 && def.TargetRegion != linkRegion {
		return false
	}
	return def.TargetAS != 0 || def.TargetRegion != 0 || def.Sub == dict.SubSuppress
}

// Evidence building (§5.2 step 3): for each community, count the unique
// AS paths on which its α or an org sibling of α appears (on-path) versus
// not (off-path). One path-grouped walk serves classic and large
// communities alike: tuples are visited with every path's tuples
// adjacent, so "have I already counted this community on this path?" is
// one compare against the path the community was last counted on — no
// (community, path) pair is materialized, sorted or merged. A tuple's
// communities arrive group by group, one α each, so on-path is decided
// once per group, not per community. Communities are counted at dense
// ranks numbered once per walk (evidenceIndex), so the walk probes no
// hash table per community. The same walk hands each unique classic pair
// to EachPathCommunity's callers.
package core

import (
	"context"
	"slices"

	"bgpintent/internal/bgp"
)

// probeTable is an open-addressed hash table (linear probing,
// power-of-two capacity, grown at 3/4 load) for small fixed-size keys.
// Callers pass each key's 64-bit hash; the table keeps its top 32 bits
// (low bit forced to one) as the slot's tag, so occupancy is tag != 0 —
// never a reserved key value: 0:0, 65535:65535 and ASN 0xFFFFFFFF are
// all legal keys — and growth re-places entries without rehashing.
type probeTable[K comparable, V any] struct {
	slots []probeSlot[K, V]
	n     int
	shift uint // 32 - log2(len(slots)): the tag's top bits index the table
}

type probeSlot[K comparable, V any] struct {
	key K
	tag uint32
	val V
}

func newProbeTable[K comparable, V any]() probeTable[K, V] {
	const bits = 6
	return probeTable[K, V]{slots: make([]probeSlot[K, V], 1<<bits), shift: 32 - bits}
}

// at returns the value of key k (whose hash is h), inserting the zero
// value when k is new (fresh). The pointer is valid until the next at
// call.
func (t *probeTable[K, V]) at(k K, h uint64) (v *V, fresh bool) {
	tag := uint32(h>>32) | 1
	mask := uint32(len(t.slots) - 1)
	for i := tag >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.tag == tag && s.key == k {
			return &s.val, false
		}
		if s.tag == 0 {
			if (t.n+1)*4 > len(t.slots)*3 {
				t.grow()
				return t.at(k, h)
			}
			s.key, s.tag = k, tag
			t.n++
			return &s.val, true
		}
	}
}

func (t *probeTable[K, V]) grow() {
	old := *t
	*t = probeTable[K, V]{slots: make([]probeSlot[K, V], 2*len(old.slots)), shift: old.shift - 1}
	old.each(func(k K, h uint64, v *V) {
		moved, _ := t.at(k, h)
		*moved = *v
	})
}

// get returns the value of key k (whose hash is h), or nil when k is
// absent. Unlike at it never writes, so readers may share the table.
func (t *probeTable[K, V]) get(k K, h uint64) *V {
	if t.slots == nil {
		return nil
	}
	tag := uint32(h>>32) | 1
	mask := uint32(len(t.slots) - 1)
	for i := tag >> t.shift; t.slots[i].tag != 0; i = (i + 1) & mask {
		if s := &t.slots[i]; s.tag == tag && s.key == k {
			return &s.val
		}
	}
	return nil
}

// each visits every entry; h serves as the key's hash in any table's at.
func (t *probeTable[K, V]) each(fn func(k K, h uint64, v *V)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.tag != 0 {
			fn(s.key, uint64(s.tag)<<32, &s.val)
		}
	}
}

// hashU32 is Fibonacci hashing: the product's top bits are well mixed.
func hashU32(x uint32) uint64 { return uint64(x) * 0x9E3779B97F4A7C15 }

func hashLargeCommunity(lc bgp.LargeCommunity) uint64 {
	return splitmix64(uint64(lc.GlobalAdmin)<<32|uint64(lc.LocalData1)) ^ splitmix64(uint64(lc.LocalData2))
}

// rankCount is one community's running unique-path counts inside one
// worker, at the community's rank (evidenceIndex): 12 bytes.
type rankCount struct {
	on, off uint32
	last    int32 // path the community was last counted on; -1 before the first
}

// evidenceIndex is one walk's dense numbering of the store's communities:
// each distinct classic and large community gets its rank in key order,
// so a worker counts into flat arrays, workers merge by adding them, and
// the records come out already in key order. ranks mirrors the group
// arena word for word: at a group's offset it holds the group's α, and
// at each member's first word the member's rank. It is walk scratch —
// O(group-arena words + distinct keys) — built once per walk; the store
// keeps none of it.
type evidenceIndex struct {
	groups  []bgp.Community // the store's group arena
	groupAt []uint32        // its groups' offsets, by ordinal
	ranks   []uint32
	comms   []bgp.Community      // the classic communities, by rank
	larges  []bgp.LargeCommunity // the large communities, by rank
}

// newEvidenceIndex numbers the communities of every group in ts's group
// arena, in one pass, and then remaps the first-sight numbers to ranks.
func newEvidenceIndex(ts *TupleStore) *evidenceIndex {
	groups := ts.groups.arena
	ix := &evidenceIndex{groups: groups, groupAt: ts.groups.at, ranks: make([]uint32, len(groups))}
	ranks := ix.ranks
	comms := newProbeTable[bgp.Community, uint32]()
	larges := newProbeTable[bgp.LargeCommunity, uint32]()
	for p := 0; p < len(groups); {
		g := recordAt(groups[p:])
		cs, ls := splitSet(g)
		if len(cs) > 0 {
			ranks[p] = uint32(cs[0].ASN())
		} else if len(ls) > 0 {
			ranks[p] = uint32(ls[0])
		}
		for i, cm := range cs {
			ranks[p+1+i] = firstSight(&comms, &ix.comms, cm, hashU32(uint32(cm)))
		}
		for i := 0; i < len(ls); i += 3 {
			lc := bgp.LargeCommunity{GlobalAdmin: uint32(ls[i]), LocalData1: uint32(ls[i+1]), LocalData2: uint32(ls[i+2])}
			ranks[p+1+len(cs)+i] = firstSight(&larges, &ix.larges, lc, hashLargeCommunity(lc))
		}
		p += len(g)
	}
	classic, large := sortByRank(ix.comms), sortByRank(ix.larges)
	for p := 0; p < len(groups); {
		n, nl := int(groups[p]&0xFFFF), int(groups[p]>>16)
		for i := p + 1; i < p+1+n; i++ {
			ranks[i] = classic[ranks[i]]
		}
		for i := p + 1 + n; i < p+1+n+3*nl; i += 3 {
			ranks[i] = large[ranks[i]]
		}
		p += 1 + n + 3*nl
	}
	return ix
}

// firstSight returns key k's number in keys, the order of first sight,
// appending k when tab (whose hash of k is h) meets it first.
func firstSight[K comparable](tab *probeTable[K, uint32], keys *[]K, k K, h uint64) uint32 {
	id, fresh := tab.at(k, h)
	if fresh {
		*id = uint32(len(*keys))
		*keys = append(*keys, k)
	}
	return *id
}

// sortByRank sorts keys, numbered in first-sight order, and returns each
// first-sight number's rank in the sorted order.
func sortByRank[K Key[K]](keys []K) []uint32 {
	order := make([]uint32, len(keys))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return keys[a].Compare(keys[b]) })
	rank := make([]uint32, len(keys))
	sorted := make([]K, len(keys))
	for r, id := range order {
		rank[id] = uint32(r)
		sorted[r] = keys[id]
	}
	copy(keys, sorted)
	return rank
}

// newCounts returns one worker's counts for n ranks, none counted yet.
func newCounts(n int) []rankCount {
	counts := make([]rankCount, n)
	for i := range counts {
		counts[i].last = -1
	}
	return counts
}

// asnOrg is an ASN's organization under Options.Orgs, if it has one.
type asnOrg struct {
	org    string
	hasOrg bool
}

// observer is one worker's private state for the walk. Workers own whole
// path groups, so a (community, path) pair is counted by exactly one of
// them and the per-worker counts simply add up — no merge order.
type observer struct {
	ts    *TupleStore
	ix    *evidenceIndex
	opts  *Options                             // VPFilter and Orgs
	visit func(c bgp.Community, path []uint32) // EachPathCommunity's callback; nil for Observe

	comms, larges []rankCount // indexed by rank
	// asns holds every ASN on the paths this worker saw, with its
	// organization resolved through opts.Orgs once, on first sight.
	asns probeTable[uint32, asnOrg]
	// alphas holds the αs whose organization an on-path decision needed,
	// resolved once each. It is not asns: an α that is on no path must
	// not count as seen on one (ObservationSet.AlphaOnPath).
	alphas probeTable[uint32, asnOrg]

	pid      int32    // current path group; -1 before the first
	pathASNs []uint32 // the current path's distinct ASNs (worker scratch)
	pathOrgs []string // their distinct organizations (worker scratch)
}

func newObserver(ts *TupleStore, ix *evidenceIndex, opts *Options) observer {
	return observer{
		ts: ts, ix: ix, opts: opts,
		comms:  newCounts(len(ix.comms)),
		larges: newCounts(len(ix.larges)),
		asns:   newProbeTable[uint32, asnOrg](),
		alphas: newProbeTable[uint32, asnOrg](),
	}
}

// walk visits the tuples at positions [lo, hi) of the grouped order
// (order == nil means the tuple slice itself is grouped).
func (o *observer) walk(order []int32, lo, hi int, done <-chan struct{}) {
	tuples, sets := o.ts.Tuples(), o.ts.sets.arena
	o.pid = -1
	for i := lo; i < hi; i++ {
		if (i-lo)%cancelCheckStride == 0 && chClosed(done) {
			return
		}
		ti := i
		if order != nil {
			ti = int(order[i])
		}
		t := &tuples[ti]
		if o.opts.VPFilter != nil && !anyVP(o.ts.TupleVPs(ti), o.opts.VPFilter) {
			continue
		}
		if t.PathID != o.pid {
			o.enterPath(t.PathID)
		}
		for k, last := int(t.setRef()), t.setRef() == 0; !last; {
			var ord uint32
			ord, last, k = groupRef(sets, k)
			o.countGroup(o.ix.groupAt[ord])
		}
	}
}

// countGroup counts the group at word offset off on the current path:
// each member whose last path is not this one, on-path or off-path as α
// decides.
func (o *observer) countGroup(off uint32) {
	header := o.ix.groups[off]
	ranks := o.ix.ranks[off:]
	on := o.onPath(ranks[0])
	if n := int(header & 0xFFFF); n > 0 {
		for _, r := range ranks[1 : 1+n] {
			if o.count(&o.comms[r], on) && o.visit != nil {
				o.visit(o.ix.comms[r], o.pathASNs)
			}
		}
		return
	}
	for i, end := 1, 1+3*int(header>>16); i < end; i += 3 {
		o.count(&o.larges[ranks[i]], on)
	}
}

// count counts a community on the current path, on-path or off-path as
// its group was decided, unless it already was counted there, reporting
// whether it counted.
func (o *observer) count(ev *rankCount, on bool) bool {
	if ev.last == o.pid {
		return false
	}
	ev.last = o.pid
	if on {
		ev.on++
	} else {
		ev.off++
	}
	return true
}

// onPath reports whether α or an org sibling of it is on the current
// path.
func (o *observer) onPath(alpha uint32) bool {
	if containsASN(o.pathASNs, alpha) {
		return true
	}
	if len(o.pathOrgs) == 0 {
		return false
	}
	a, fresh := o.alphas.at(alpha, hashU32(alpha))
	if fresh {
		a.org, a.hasOrg = o.opts.Orgs.Org(alpha)
	}
	return a.hasOrg && containsOrg(o.pathOrgs, a.org)
}

// enterPath makes path id the current one: its distinct ASNs are read
// off its chain once, in first-appearance order, and enter the worker's
// table, and its organization list is rebuilt from theirs.
func (o *observer) enterPath(id int32) {
	o.pid = id
	o.pathASNs = o.ts.appendPathASNs(o.pathASNs[:0], id)
	o.pathOrgs = o.pathOrgs[:0]
	for _, asn := range o.pathASNs {
		a, fresh := o.asns.at(asn, hashU32(asn))
		if fresh && o.opts.Orgs != nil {
			a.org, a.hasOrg = o.opts.Orgs.Org(asn)
		}
		if a.hasOrg && !containsOrg(o.pathOrgs, a.org) {
			o.pathOrgs = append(o.pathOrgs, a.org)
		}
	}
}

// EachPathCommunity calls fn once per unique (classic community, AS path)
// pair among the tuples opts.VPFilter admits — the pairs Observe counts —
// on Observe's walk, one path's pairs after another. path is the path's
// distinct ASNs in first-appearance order (PathInfo.ASNs); fn must not
// keep or modify it.
func EachPathCommunity(ts *TupleStore, opts Options, fn func(c bgp.Community, path []uint32)) {
	o := newObserver(ts, newEvidenceIndex(ts), &Options{VPFilter: opts.VPFilter})
	o.visit = fn
	o.walk(groupByPath(ts), 0, ts.Len(), nil)
}

// groupByPath returns the order in which to visit ts's tuples so that
// every path's tuples are adjacent: nil when the slice already is (a
// stitched store's tuples are non-decreasing in PathID), otherwise the
// tuple indexes counting-sorted by PathID, a hop ID.
func groupByPath(ts *TupleStore) []int32 {
	tuples := ts.tuples
	for i := 1; i < len(tuples); i++ {
		if tuples[i].PathID < tuples[i-1].PathID {
			order, _ := countingSort(len(tuples), len(ts.hopASN), func(i int) int32 { return tuples[i].PathID })
			return order
		}
	}
	return nil
}

// countingSort stably orders the indexes [0, n) by key(i) in [0, keys),
// in O(n + keys); end[k] is where key k's run of the order ends.
func countingSort(n, keys int, key func(i int) int32) (order, end []int32) {
	end = make([]int32, keys+1)
	for i := 0; i < n; i++ {
		end[key(i)+1]++
	}
	for k := 0; k < keys; k++ {
		end[k+1] += end[k]
	}
	order = make([]int32, n)
	for i := 0; i < n; i++ {
		k := key(i)
		order[end[k]] = int32(i)
		end[k]++
	}
	return order, end[:keys]
}

// observeWith computes the observation set on exactly the given number
// of workers. Results are identical for every worker count.
func observeWith(ctx context.Context, ts *TupleStore, opts Options, workers int) (*ObservationSet, error) {
	done := ctx.Done()
	tuples := ts.Tuples()
	order := groupByPath(ts)
	pathAt := func(i int) int32 {
		if order != nil {
			i = int(order[i])
		}
		return tuples[i].PathID
	}
	// snap moves a range bound forward to the next path-group boundary.
	snap := func(b int) int {
		for 0 < b && b < len(tuples) && pathAt(b) == pathAt(b-1) {
			b++
		}
		return b
	}
	ix := newEvidenceIndex(ts)
	obsv := make([]observer, workers)
	parallelRanges(workers, len(tuples), func(w, lo, hi int) {
		obsv[w] = newObserver(ts, ix, &opts)
		obsv[w].walk(order, snap(lo), snap(hi), done)
	})
	if chClosed(done) {
		return nil, ctx.Err()
	}

	// Worker 0's counts absorb the others'.
	sum := &obsv[0]
	os := &ObservationSet{orgs: opts.Orgs}
	for w := range obsv {
		o := &obsv[w]
		o.asns.each(func(asn uint32, _ uint64, a *asnOrg) {
			os.seenASNs = append(os.seenASNs, asn)
			if a.hasOrg {
				os.seenOrgs = append(os.seenOrgs, a.org)
			}
		})
		if w > 0 {
			addCounts(sum.comms, o.comms)
			addCounts(sum.larges, o.larges)
		}
	}
	slices.Sort(os.seenASNs)
	slices.Sort(os.seenOrgs)
	os.seenASNs, os.seenOrgs = slices.Compact(os.seenASNs), slices.Compact(os.seenOrgs)
	os.Stats = records(ix.comms, sum.comms)
	if ts.largeTuples {
		os.Larges = records(ix.larges, sum.larges)
	}
	return os, nil
}

// addCounts sums src's counts into dst, rank by rank.
func addCounts(dst, src []rankCount) {
	for r := range src {
		dst[r].on += src[r].on
		dst[r].off += src[r].off
	}
}

// records renders the counted ranks as the records the classifier cuts:
// keys are in rank order, which is key order, and a rank no admitted
// tuple counted (one a VP filter dropped, or a sibling shard's group)
// has none.
func records[K Key[K]](keys []K, counts []rankCount) []Stats[K] {
	n := 0
	for _, ev := range counts {
		if ev.on+ev.off > 0 {
			n++
		}
	}
	out := make([]Stats[K], 0, n)
	for r, ev := range counts {
		if ev.on+ev.off > 0 {
			out = append(out, Stats[K]{Comm: keys[r], OnPath: int(ev.on), OffPath: int(ev.off)})
		}
	}
	return out
}

// Package core implements the paper's contribution: classifying BGP
// communities as action or information. The pipeline mirrors §5.2 —
// extract unique (AS path, communities) tuples from BGP data, cluster
// each AS's observed β values by a minimum gap, compute each cluster's
// on-path:off-path ratio, and label the cluster's communities.
package core

import (
	"math/bits"
	"slices"
	"sync"

	"bgpintent/internal/bgp"
)

// PathInfo is one interned AS path, read off its chain of hops.
type PathInfo struct {
	ASNs []uint32 // distinct ASNs on the path, in first-appearance order
}

// Tuple is one unique (AS path, communities) observation, 8 bytes.
// Its communities are read group by group (TupleStore.eachGroup), its
// vantage points through TupleStore.TupleVPs.
// Tuples are plain values in one flat slice — no per-tuple pointers,
// no per-tuple slice headers.
type Tuple struct {
	// PathID is the ID of the path's first hop (see TupleStore).
	PathID int32
	// set is the set-arena byte offset of the tuple's set record: the
	// ordinals of the per-α groups its classic and large communities
	// (RFC 8092) fall into (see groupSet). Large communities are part of
	// tuple identity: observations that differ only in their large
	// communities are distinct tuples. Its top bit is multiVP; readers
	// mask it off (setRef).
	set uint32
}

// multiVP marks a tuple's set ref when its vantage points are a list in
// the VP arena. Without it the tuple's one vantage point is its path's
// first ASN — nearly every tuple's case, because an eBGP peer puts its
// own ASN first on the path. With it, the store's vpIndex maps the
// tuple's index to its list: a count word, then the sorted VPs in a
// capacity of nextPow2(count) (exactly count in a stitched store, which
// takes no views). A full list relocates to the arena tail with doubled
// capacity (amortized O(1), bounded dead space). Set-arena offsets stay
// below 1<<31 (appendRecord, dedupRecords), so the flag never aliases one.
const multiVP = 1 << 31

// pathHead marks a hop's next word when the hop heads a stored path.
// Hop IDs stay below originHop, so the flag never aliases one.
const pathHead = 1 << 31

// originHop is the next word of an origin hop: no hop follows it.
const originHop = pathHead - 1

// setRef returns the tuple's set record ref, multiVP masked off.
func (t *Tuple) setRef() uint32 { return t.set &^ multiVP }

// nextPow2 is the capacity of a VP list of n > 0 entries.
func nextPow2(n uint32) uint32 { return 1 << bits.Len32(n-1) }

// A record is a header word — its count of one-word items | its count of
// three-word items << 16 — and then the items. Two kinds share the
// layout, so one recordAt reads them both:
//   - a canonical set (appendSet): a view's classic communities, then its
//     large communities' words;
//   - a group: one α's run of a canonical set — its classic communities
//     with one ASN, or its large communities with one Global
//     Administrator — stored once per store (TupleStore.groups), in its
//     group arena, and named by its ordinal there: groups.at holds each
//     group's word offset at its ordinal.
//
// Equal sets are equal words, so a canonical set or a group is compared,
// hashed and interned as one word slice. The words are typed
// bgp.Community so that a group's classic items are its communities.
//
// A set record, what a tuple refers to, is bytes: the ordinals of its
// set's groups, in the set's order, each the uvarint ord<<1 | last, where
// last is 1 on the record's last ordinal alone (appendGroupRef,
// groupRef). Equal sets are equal bytes in one store. It lies in its
// store's set arena at a byte offset; offset 0, one zero byte no record
// starts at, is the empty set, which has no groups.

// appendSet renders a canonical community set as one record and appends
// it to dst: the communities, then each large community as GlobalAdmin,
// LocalData1, LocalData2. A decoded attribute carries at most 16383
// communities, far under the header's 65535 per kind.
func appendSet(dst []bgp.Community, comms bgp.Communities, larges bgp.LargeCommunities) []bgp.Community {
	if len(comms) > 0xFFFF || len(larges) > 0xFFFF {
		panic("core: more than 65535 communities of one kind in a set")
	}
	dst = append(dst, bgp.Community(len(comms)|len(larges)<<16))
	dst = append(dst, comms...)
	for _, lc := range larges {
		dst = append(dst, bgp.Community(lc.GlobalAdmin), bgp.Community(lc.LocalData1), bgp.Community(lc.LocalData2))
	}
	return dst
}

// recordAt returns the record at the start of words.
func recordAt(words []bgp.Community) []bgp.Community {
	n := 1 + int(words[0]&0xFFFF) + 3*int(words[0]>>16)
	return words[:n:n]
}

// appendGroupRef appends group ordinal ord to a set record, flagged as
// the record's last when last is set.
func appendGroupRef(rec []byte, ord uint32, last bool) []byte {
	v := ord << 1
	if last {
		v |= 1
	}
	for ; v >= 0x80; v >>= 7 {
		rec = append(rec, byte(v)|0x80)
	}
	return append(rec, byte(v))
}

// groupRef decodes the group ref that starts at rec[i]: its ordinal,
// whether it is its set record's last, and where the next ref starts.
func groupRef(rec []byte, i int) (ord uint32, last bool, next int) {
	v := uint32(rec[i] & 0x7F)
	for shift := 7; rec[i] >= 0x80; shift += 7 {
		i++
		v |= uint32(rec[i]&0x7F) << shift
	}
	return v >> 1, v&1 != 0, i + 1
}

// splitSet splits a canonical set or a group into its communities and
// its large communities' words.
func splitSet(set []bgp.Community) (comms bgp.Communities, larges []bgp.Community) {
	n := 1 + int(set[0]&0xFFFF)
	return set[1:n:n], set[n:]
}

// groupSet interns each group of the canonical set sc.set into ts's
// groups and renders the set record of their ordinals into sc.rec. Both
// of the set's lists are sorted, so every α's run is contiguous.
func (sc *addScratch) groupSet(ts *TupleStore) {
	sc.rec = sc.rec[:0]
	last := 0 // where the last ref written starts
	comms, larges := splitSet(sc.set)
	for cs := comms; len(cs) > 0; {
		n := 1
		for n < len(cs) && cs[n].ASN() == cs[0].ASN() {
			n++
		}
		sc.group = appendSet(sc.group[:0], cs[:n], nil)
		last = len(sc.rec)
		sc.rec = appendGroupRef(sc.rec, ts.groups.intern(sc.group, ts.hash.tag(sc.group)), false)
		cs = cs[n:]
	}
	for ls := larges; len(ls) > 0; {
		n := 3
		for n < len(ls) && ls[n] == ls[0] { // same Global Administrator
			n += 3
		}
		// The group's header counts n/3 large communities and no classic one.
		sc.group = append(append(sc.group[:0], bgp.Community(n/3<<16)), ls[:n]...)
		last = len(sc.rec)
		sc.rec = appendGroupRef(sc.rec, ts.groups.intern(sc.group, ts.hash.tag(sc.group)), false)
		ls = ls[n:]
	}
	if len(sc.rec) > 0 {
		sc.rec[last] |= 1 // a ref's first byte holds its low bit, the last flag
	}
}

// sameSet reports whether the set record at ref stands for the canonical
// set canon: one group read per group, nothing expanded. Group headers
// sum to the set's, as each group counts items of one kind only.
func (ts *TupleStore) sameSet(ref uint32, canon []bgp.Community) bool {
	var header bgp.Community
	rest := canon[1:]
	for i, last := int(ref), ref == 0; !last; {
		var ord uint32
		ord, last, i = groupRef(ts.sets.arena, i)
		g := recordAt(ts.groups.arena[ts.groups.at[ord]:])
		if len(g)-1 > len(rest) || !slices.Equal(g[1:], rest[:len(g)-1]) {
			return false
		}
		header += g[0]
		rest = rest[len(g)-1:]
	}
	return header == canon[0] && len(rest) == 0
}

// TupleStore interns AS paths and deduplicates (path, communities)
// tuples, the §4 data reduction (the paper extracts ≈174M such tuples
// from one week of RouteViews/RIS data).
//
// Storage is columnar (struct-of-arrays): tuples are one flat []Tuple of
// 8-byte records, and their variable-length payloads — set records, the
// groups they refer to, VP lists — live in append-only arenas. A path is
// a chain of hops: a hop is one (ASN, next hop toward the origin) pair,
// hash-consed, so every path that ends in the same suffix shares it, and
// a path's ID is its first hop's. The paths toward one origin form a
// sink tree under destination-based routing: a simulated day's paths
// spell about four key words for every hop they need. The hot ingest path
// allocates only when an arena or a flat slice grows, not per tuple.
//
// A NewTupleStore, and each shard of a ShardedTupleStore, takes views; the
// store Stitch returns is read-only.
type TupleStore struct {
	// hash starts the store's table hashes and record tags.
	hash storeHash

	// groups is the group arena, each distinct group once, named by its
	// ordinal: groups.at holds its word offset. A writable store indexes
	// it (groups.tab); a stitched one holds the shards' groups as Stitch
	// deduplicated them, with no index.
	groups recordIndex[bgp.Community]
	// sets is the set arena, its records addressed by byte offset, the
	// empty one at 0. A NewTupleStore's indexes it (sets.tab), so each
	// distinct record is there once. A shard appends one record per new
	// tuple, and Stitch deduplicates the shards' records into the
	// stitched store's, which holds each once and has no index.
	sets recordIndex[byte]

	// hopASN and hopNext are the hops, struct-of-arrays: hop i is ASN
	// hopASN[i], followed toward the origin by hop hopNext[i]&^pathHead,
	// or by none when that is originHop. pathHead marks the hops that
	// head a stored path; paths counts them.
	hopASN  []uint32
	hopNext []uint32
	paths   int

	tuples []Tuple
	// vpArena holds the VP lists of the tuples flagged multiVP, and
	// vpIndex maps such a tuple's index to its list's offset (see
	// multiVP). Nearly every tuple has none.
	vpArena []uint32
	vpIndex probeTable[int32, uint32]
	// largeTuples records whether any tuple carries large communities, so
	// a classic-only load reports no large observations at all.
	largeTuples bool

	// tupleTab and hopTab are the indexes: view identity -> tuple and
	// (ASN, next) -> hop, candidates confirmed by content. A stitched
	// store has neither, which is what makes it read-only (writable).
	tupleTab flatTable
	hopTab   flatTable

	// noted holds the large communities NoteLarge saw: those of views with
	// an empty path attach to no tuple, so no stored group holds them.
	noted probeTable[bgp.LargeCommunity, struct{}]
}

// NewTupleStore returns an empty store.
func NewTupleStore() *TupleStore {
	ts := newStore(newStoreHash())
	ts.sets.tab = newFlatTable(0)
	return ts
}

// newStore returns an empty store hashing from h, with its index tables
// and no set index: one shard of a ShardedTupleStore, or, once
// NewTupleStore gives it one, a standalone store.
func newStore(h storeHash) *TupleStore {
	return &TupleStore{
		hash:     h,
		groups:   recordIndex[bgp.Community]{byOrdinal: true, tab: newFlatTable(0)},
		sets:     recordIndex[byte]{arena: make([]byte, 1)}, // the empty set at 0
		tupleTab: newFlatTable(0),
		hopTab:   newFlatTable(0),
	}
}

// writable panics on a stitched store, which holds no index tables.
func (ts *TupleStore) writable() {
	if ts.tupleTab.slots == nil {
		panic("core: a stitched TupleStore is read-only")
	}
}

// NoteLarge records large communities in the distinct-large statistics
// without attaching them to a tuple — the path for observations whose
// AS path is empty or unusable. Views with a usable path should go
// through AddViewLarge, which stores and classifies their larges.
func (ts *TupleStore) NoteLarge(ls bgp.LargeCommunities) {
	ts.writable()
	noteLarges(&ts.noted, ls)
}

// noteLarges enters ls into a set of larges, made on first use.
func noteLarges(set *probeTable[bgp.LargeCommunity, struct{}], ls bgp.LargeCommunities) {
	if len(ls) > 0 && set.slots == nil {
		*set = newProbeTable[bgp.LargeCommunity, struct{}]()
	}
	for _, lc := range ls {
		set.at(lc, hashLargeCommunity(lc))
	}
}

// LargeCommunityCount returns the number of distinct large communities
// seen: those of the stored groups and those noted. The paper records
// their prevalence (11,524 vs 88,982 regular in May 2023) and defers
// their classification; this pipeline classifies them — large
// communities attach to tuples (see AddViewLarge) and flow through the
// same observe/cluster/classify stages as classic ones.
func (ts *TupleStore) LargeCommunityCount() int {
	seen := newProbeTable[bgp.LargeCommunity, struct{}]()
	ts.noted.each(func(lc bgp.LargeCommunity, h uint64, _ *struct{}) { seen.at(lc, h) })
	if ts.largeTuples {
		ts.eachStoredGroup(func(_ bgp.Communities, ls []bgp.Community) {
			for ; len(ls) > 0; ls = ls[3:] {
				lc := bgp.LargeCommunity{GlobalAdmin: uint32(ls[0]), LocalData1: uint32(ls[1]), LocalData2: uint32(ls[2])}
				seen.at(lc, hashLargeCommunity(lc))
			}
		})
	}
	return seen.n
}

// collapsePath appends path with prepending (adjacent repeats) collapsed:
// the path key.
func collapsePath(dst, path []uint32) []uint32 {
	for i, asn := range path {
		if i == 0 || asn != path[i-1] {
			dst = append(dst, asn)
		}
	}
	return dst
}

// addScratch holds the per-AddView working buffers; pooled so the hot
// path allocates nothing when it hits existing paths and tuples.
type addScratch struct {
	words  []uint32             // path key
	comms  bgp.Communities      // canonicalization buffers for the two
	larges bgp.LargeCommunities // community lists; sc.set renders them
	set    []bgp.Community      // the view's canonical set (see appendSet)
	group  []bgp.Community      // one group of it, rendered for the group index
	rec    []byte               // its set record (see groupSet)
	flat   []uint32             // AS-path flattening buffer for AddViewASPathLarge
}

// canonicalSet canonicalizes both community lists and renders them as
// one canonical set in sc.set.
func (sc *addScratch) canonicalSet(comms bgp.Communities, larges bgp.LargeCommunities) {
	sc.comms = canonicalInto(sc.comms, comms)
	sc.larges = canonicalLargeInto(sc.larges, larges)
	sc.set = appendSet(sc.set[:0], sc.comms, sc.larges)
}

var addScratchPool = sync.Pool{New: func() any { return new(addScratch) }}

// canonicalInto writes the sorted, de-duplicated form of comms into dst
// (reusing its capacity) and returns it. Unlike Communities.Canonical it
// does not allocate fresh storage per call; community lists are short,
// so an insertion sort beats sort.Slice and its closure allocation.
func canonicalInto(dst, comms bgp.Communities) bgp.Communities {
	dst = append(dst[:0], comms...)
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j] < dst[j-1]; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	w := 0
	for i := range dst {
		if i == 0 || dst[i] != dst[i-1] {
			dst[w] = dst[i]
			w++
		}
	}
	return dst[:w]
}

// canonicalLargeInto writes the sorted, de-duplicated form of ls into
// dst (reusing its capacity) and returns it — the large-community
// sibling of canonicalInto.
func canonicalLargeInto(dst, ls bgp.LargeCommunities) bgp.LargeCommunities {
	dst = append(dst[:0], ls...)
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].Compare(dst[j-1]) < 0; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	w := 0
	for i := range dst {
		if i == 0 || dst[i] != dst[i-1] {
			dst[w] = dst[i]
			w++
		}
	}
	return dst[:w]
}

// AddView records one vantage-point observation without large
// communities; see AddViewLarge.
func (ts *TupleStore) AddView(vp uint32, path []uint32, comms bgp.Communities) {
	ts.AddViewLarge(vp, path, comms, nil)
}

// AddViewLarge records one vantage-point observation. Both community
// lists are canonicalized; observations differing only in VP collapse
// into one tuple, while the large communities are part of tuple
// identity. Paths and communities may be reused by the caller; the
// store copies what it keeps. When the path is empty no tuple results,
// and the larges are noted (NoteLarge). It panics on a stitched store.
func (ts *TupleStore) AddViewLarge(vp uint32, path []uint32, comms bgp.Communities, larges bgp.LargeCommunities) {
	ts.writable()
	if len(path) == 0 {
		noteLarges(&ts.noted, larges)
		return
	}
	sc := addScratchPool.Get().(*addScratch)
	sc.words = collapsePath(sc.words[:0], path)
	_, h := ts.hash.prepare(sc, comms, larges)
	ts.addView(vp, h, sc)
	addScratchPool.Put(sc)
}

// addVP inserts vp into tuple ti's sorted VP list (no-op when present).
// A VP other than the path's first ASN moves the list into the VP arena.
func (ts *TupleStore) addVP(ti int32, vp uint32) {
	t := &ts.tuples[ti]
	if t.set&multiVP == 0 {
		if first := ts.hopASN[t.PathID]; first != vp {
			ts.newVPList(ti, min(first, vp), max(first, vp))
		}
		return
	}
	off := ts.vpIndex.get(ti, hashU32(uint32(ti)))
	n := ts.vpArena[*off]
	pos, found := slices.BinarySearch(ts.vpArena[*off+1:*off+1+n], vp)
	if found {
		return
	}
	if n == nextPow2(n) {
		ts.growVPs(off, n)
	}
	vps := ts.vpArena[*off+1 : *off+n+2]
	copy(vps[pos+1:], vps[pos:])
	vps[pos] = vp
	ts.vpArena[*off] = n + 1
}

// newVPList gives tuple ti the sorted VP list vps, exactly sized, at the
// VP arena's tail, and flags the tuple multiVP.
func (ts *TupleStore) newVPList(ti int32, vps ...uint32) {
	ts.indexVPList(ti, uint32(len(ts.vpArena)))
	ts.vpArena = append(append(ts.vpArena, uint32(len(vps))), vps...)
	ts.tuples[ti].set |= multiVP
}

// indexVPList records that tuple ti's VP list lies at offset off.
func (ts *TupleStore) indexVPList(ti int32, off uint32) {
	if ts.vpIndex.slots == nil {
		ts.vpIndex = newProbeTable[int32, uint32]()
	}
	v, _ := ts.vpIndex.at(ti, hashU32(uint32(ti)))
	*v = off
}

// growVPs doubles the capacity of the full list of n VPs at *off: in
// place when the list sits at the arena tail, otherwise by relocating it,
// count word and all, there. Each relocation doubles the capacity, so the
// dead space left behind stays bounded by the live data.
func (ts *TupleStore) growVPs(off *uint32, n uint32) {
	if end := *off + 1 + n; int(end) != len(ts.vpArena) {
		start := *off
		*off = uint32(len(ts.vpArena))
		ts.vpArena = append(ts.vpArena, ts.vpArena[start:end]...)
	}
	need := int(*off + 1 + 2*n)
	ts.vpArena = slices.Grow(ts.vpArena, need-len(ts.vpArena))[:need]
}

// Len returns the number of unique tuples.
func (ts *TupleStore) Len() int { return len(ts.tuples) }

// PathCount returns the number of interned unique paths: the hops that
// head one. Path IDs are hop IDs, so they are not dense in [0,
// PathCount()).
func (ts *TupleStore) PathCount() int { return ts.paths }

// Path returns the interned path info for a tuple's PathID, read off its
// chain into a fresh slice.
func (ts *TupleStore) Path(id int32) PathInfo {
	return PathInfo{ASNs: ts.appendPathASNs(nil, id)}
}

// appendPathASNs appends path id's distinct ASNs, in first-appearance
// order, to dst: its chain from the first hop to the origin, each ASN
// after its first appearance skipped (AS paths are short, so the scan
// beats a map). Only a path that repeats an AS apart (AS_SET flattening,
// poisoning: A B A) skips one.
func (ts *TupleStore) appendPathASNs(dst []uint32, id int32) []uint32 {
	off := len(dst)
	for h := uint32(id); h != originHop; h = ts.hopNext[h] &^ pathHead {
		if asn := ts.hopASN[h]; !containsASN(dst[off:], asn) {
			dst = append(dst, asn)
		}
	}
	return dst
}

// samePath reports whether path id's key — its ASN words with prepending
// collapsed, which identify the path — is words: the chain spells them
// and reaches the origin exactly where they end, so A B is not A B C.
func (ts *TupleStore) samePath(id int32, words []uint32) bool {
	h := uint32(id)
	for _, w := range words {
		if h == originHop || ts.hopASN[h] != w {
			return false
		}
		h = ts.hopNext[h] &^ pathHead
	}
	return h == originHop
}

// Tuples returns the flat tuple slice (shared storage; do not mutate).
// Iterate by index and resolve payloads through eachGroup/TupleVPs.
func (ts *TupleStore) Tuples() []Tuple { return ts.tuples }

// setRecord returns a tuple's set record, its bytes through the ref
// flagged last, empty for the empty set (a view into the set arena; do
// not mutate).
func (ts *TupleStore) setRecord(t *Tuple) []byte {
	ref := t.setRef()
	end := int(ref)
	for last := ref == 0; !last; {
		_, last, end = groupRef(ts.sets.arena, end)
	}
	return ts.sets.arena[ref:end:end]
}

// eachGroup calls fn with each group of t's community set, in the set's
// order — classic groups by ASN, then large groups by Global
// Administrator: a classic group as its communities (larges empty), a
// large group as its large communities' words, GlobalAdmin, LocalData1,
// LocalData2 each (comms empty). Both alias shared storage; fn must not
// keep or modify them.
func (ts *TupleStore) eachGroup(t *Tuple, fn func(comms bgp.Communities, larges []bgp.Community)) {
	for i, last := int(t.setRef()), t.setRef() == 0; !last; {
		var ord uint32
		ord, last, i = groupRef(ts.sets.arena, i)
		fn(splitSet(recordAt(ts.groups.arena[ts.groups.at[ord]:])))
	}
}

// TupleVPs returns the sorted distinct vantage points of the tuple at
// index i (a view into the hops or the VP arena; do not mutate).
func (ts *TupleStore) TupleVPs(i int) []uint32 {
	t := &ts.tuples[i]
	if t.set&multiVP == 0 {
		return ts.hopASN[t.PathID : t.PathID+1 : t.PathID+1]
	}
	off := *ts.vpIndex.get(int32(i), hashU32(uint32(i)))
	return ts.vpArena[off+1 : off+1+ts.vpArena[off]]
}

// distinctVPs returns the distinct vantage points across all tuples as a
// hash set: what VPSet sorts and DistinctCounts counts. A tuple without a
// VP list has one, its path's first ASN, and few ASNs head paths — a
// collector's peers — so a direct-mapped filter of the last one entered
// per low byte spares nearly every such tuple its probe. The listed VPs
// are entered list by list.
func (ts *TupleStore) distinctVPs() probeTable[uint32, struct{}] {
	vps := newProbeTable[uint32, struct{}]()
	var last [256]uint32
	for i := range last {
		last[i] = uint32(i) + 1 // no ASN whose low byte is i
	}
	for i := range ts.tuples {
		t := &ts.tuples[i]
		if t.set&multiVP != 0 {
			continue
		}
		if vp := ts.hopASN[t.PathID]; last[uint8(vp)] != vp {
			last[uint8(vp)] = vp
			vps.at(vp, hashU32(vp))
		}
	}
	ts.vpIndex.each(func(_ int32, _ uint64, off *uint32) {
		for _, vp := range ts.vpArena[*off+1 : *off+1+ts.vpArena[*off]] {
			vps.at(vp, hashU32(vp))
		}
	})
	return vps
}

// VPSet returns the distinct vantage points across all tuples, sorted.
func (ts *TupleStore) VPSet() []uint32 {
	vps := ts.distinctVPs()
	out := make([]uint32, 0, vps.n)
	vps.each(func(vp uint32, _ uint64, _ *struct{}) { out = append(out, vp) })
	slices.Sort(out)
	return out
}

// eachStoredGroup calls fn, as eachGroup does, with every group the
// tuples refer to, each once: the store's group arena holds exactly
// those, end to end.
func (ts *TupleStore) eachStoredGroup(fn func(comms bgp.Communities, larges []bgp.Community)) {
	for run := ts.groups.arena; len(run) > 0; {
		g := recordAt(run)
		fn(splitSet(g))
		run = run[len(g):]
	}
}

// Communities returns the distinct communities across all tuples, sorted.
func (ts *TupleStore) Communities() []bgp.Community {
	var out []bgp.Community
	ts.eachStoredGroup(func(comms bgp.Communities, _ []bgp.Community) {
		out = append(out, comms...)
	})
	slices.Sort(out)
	return slices.Compact(out)
}

// DistinctCounts returns how many distinct communities and vantage
// points the tuples carry, counted through hash sets: unlike Communities,
// no payload copy; unlike it and VPSet, no sort; O(distinct) memory.
func (ts *TupleStore) DistinctCounts() (communities, vantagePoints int) {
	comms := newProbeTable[bgp.Community, struct{}]()
	ts.eachStoredGroup(func(cs bgp.Communities, _ []bgp.Community) {
		for _, c := range cs {
			comms.at(c, hashU32(uint32(c)))
		}
	})
	return comms.n, ts.distinctVPs().n
}

// AllPaths returns every interned path's distinct-ASN sequence, built off
// the hops that head a path. Suitable input for AS-relationship
// inference.
func (ts *TupleStore) AllPaths() [][]uint32 {
	out := make([][]uint32, 0, ts.paths)
	var asns []uint32
	for id, next := range ts.hopNext {
		if next&pathHead != 0 {
			off := len(asns)
			asns = ts.appendPathASNs(asns, int32(id))
			out = append(out, asns[off:len(asns):len(asns)])
		}
	}
	return out
}

// OrgMapper resolves an ASN to its organization, the as2org sibling
// context (§4).
type OrgMapper interface {
	Org(asn uint32) (string, bool)
}

// AnnotateOrgs does nothing. Sibling awareness has one input,
// Options.Orgs, which the evidence walk resolves per distinct ASN; the
// method remains for callers written against the per-path org lists it
// used to fill.
func (ts *TupleStore) AnnotateOrgs(OrgMapper) {}

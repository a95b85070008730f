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

// span is an offset+length view into one of the store's shared arenas.
// Offsets are 32-bit: the paper-scale corpus (≈174M tuples) stays well
// under 4G arena entries per store because ingestion shards first.
type span struct {
	off, n uint32
}

// PathInfo is one interned AS path, viewed out of the store's arenas.
// The slice aliases shared storage and must not be mutated.
type PathInfo struct {
	ASNs []uint32 // distinct ASNs on the path, in first-appearance order
}

// Tuple is one unique (AS path, communities) observation, 12 bytes.
// Its communities are read group by group (TupleStore.eachGroup), its
// vantage points through TupleStore.TupleVPs.
// Tuples are plain values in one flat slice — no per-tuple pointers,
// no per-tuple slice headers.
type Tuple struct {
	PathID int32
	// set is the arena offset of the tuple's set record: the refs of the
	// per-α groups its classic and large communities (RFC 8092) fall into
	// (see groupSet). Large communities are part of tuple identity:
	// observations that differ only in their large communities are
	// distinct tuples. Its top bit is multiVP; readers mask it off
	// (setRef).
	set uint32
	// Without multiVP, vp holds the tuple's one vantage point — nearly
	// every tuple has exactly one, because an eBGP peer puts its own ASN
	// first on the path. With it, vp is the offset of the tuple's list in
	// the VP arena: a count word, then the sorted VPs in a capacity of
	// nextPow2(count). A full list relocates to the arena tail with doubled
	// capacity (amortized O(1), bounded dead space).
	vp [1]uint32
}

// multiVP marks a tuple's set ref when its vantage points are a list in
// the VP arena. Arena offsets stay below 1<<31 (internMaxChunks), so the
// flag never aliases one.
const multiVP = 1 << 31

// setRef returns the tuple's set record ref, multiVP masked off.
func (t *Tuple) setRef() uint32 { return t.set &^ multiVP }

// nextPow2 is the capacity of a VP list of n > 1 entries.
func nextPow2(n uint32) uint32 { return 1 << bits.Len32(n-1) }

// A record is a header word — its count of one-word items | its count of
// three-word items << 16 — and then the items. Two kinds share the
// layout, so one recordAt reads them both:
//   - a canonical set (appendSet): a view's classic communities, then its
//     large communities' words;
//   - a group: one α's run of a canonical set — its classic communities
//     with one ASN, or its large communities with one Global
//     Administrator — interned once per store (storeInterns.groups).
//
// A set record, what a tuple refers to, has no header: it is the refs of
// its set's groups, in the set's order, with lastGroup set on the last
// (groupSet, setRecordAt). Ref 0 is the empty set.
//
// Equal sets are equal words and equal groups equal refs, so each kind is
// compared, hashed and interned as one word slice. The words are typed
// bgp.Community so that a group's classic items are its communities.

// lastGroup marks the last group ref of a set record. Group refs are
// arena offsets, below 1<<31 (internMaxChunks), so it aliases none.
const lastGroup = 1 << 31

// emptySet is the record with no items, the empty canonical set; one
// zero word also seeds each intern's arena at offset 0, where a set
// record reads as the empty set (setRecordAt).
var emptySet = [1]bgp.Community{0}

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

// setRecordAt returns the set record at the start of words: its group
// refs through the one flagged lastGroup. The zero word seeded at offset
// 0, which no group ref is, reads as the empty set.
func setRecordAt(words []bgp.Community) []bgp.Community {
	if words[0] == 0 {
		return words[:0:0]
	}
	n := 1
	for words[n-1]&lastGroup == 0 {
		n++
	}
	return words[:n:n]
}

// splitSet splits a canonical set or a group into its communities and
// its large communities' words.
func splitSet(set []bgp.Community) (comms bgp.Communities, larges []bgp.Community) {
	n := 1 + int(set[0]&0xFFFF)
	return set[1:n:n], set[n:]
}

// groupSet interns each group of the canonical set sc.set into groups
// and renders the set record of their refs into sc.rec. Both of the
// set's lists are sorted, so every α's run is contiguous.
func (sc *addScratch) groupSet(groups *listIntern) {
	sc.rec = sc.rec[:0]
	comms, larges := splitSet(sc.set)
	for cs := comms; len(cs) > 0; {
		n := 1
		for n < len(cs) && cs[n].ASN() == cs[0].ASN() {
			n++
		}
		sc.group = appendSet(sc.group[:0], cs[:n], nil)
		sc.rec = append(sc.rec, bgp.Community(groups.intern(sc.group)))
		cs = cs[n:]
	}
	for ls := larges; len(ls) > 0; {
		n := 3
		for n < len(ls) && ls[n] == ls[0] { // same Global Administrator
			n += 3
		}
		// The group's header counts n/3 large communities and no classic one.
		sc.group = append(append(sc.group[:0], bgp.Community(n/3<<16)), ls[:n]...)
		sc.rec = append(sc.rec, bgp.Community(groups.intern(sc.group)))
		ls = ls[n:]
	}
	if n := len(sc.rec); n > 0 {
		sc.rec[n-1] |= lastGroup
	}
}

// sameSet reports whether set record rec, its groups resolved through
// groups, stands for the canonical set canon: one group read per group,
// nothing expanded. Group headers sum to the set's, as each group counts
// items of one kind only.
func sameSet(groups *listIntern, rec, canon []bgp.Community) bool {
	chunks := *groups.arena.chunks.Load()
	var header bgp.Community
	rest := canon[1:]
	for _, ref := range rec {
		ref &^= lastGroup
		g := recordAt(chunks[ref>>internChunkShift][ref&internChunkMask:])
		if len(g)-1 > len(rest) || !slices.Equal(g[1:], rest[:len(g)-1]) {
			return false
		}
		header += g[0]
		rest = rest[len(g)-1:]
	}
	return header == canon[0] && len(rest) == 0
}

// appendExpanded appends the canonical set that set record rec stands
// for, its groups resolved through groups.
func appendExpanded(dst []bgp.Community, groups *listIntern, rec []bgp.Community) []bgp.Community {
	at := len(dst)
	dst = append(dst, 0)
	for _, ref := range rec {
		g := groups.view(uint32(ref &^ lastGroup))
		dst[at] += g[0]
		dst = append(dst, g[1:]...)
	}
	return dst
}

// TupleStore interns AS paths and deduplicates (path, communities)
// tuples, the §4 data reduction (the paper extracts ≈174M such tuples
// from one week of RouteViews/RIS data).
//
// Storage is columnar (struct-of-arrays): tuples are one flat []Tuple of
// 12-byte records and paths one flat []uint32 of end offsets, and their
// variable-length payloads — set records, the groups they refer to, VP
// lists of more than one, path ASN sequences — live in append-only
// arenas. The hot ingest path therefore allocates only when an arena or
// a flat slice grows, not per tuple.
type TupleStore struct {
	// shared holds the interns of set records and of the groups they
	// refer to. A NewTupleStore owns its own; the shards of a
	// ShardedTupleStore share one, so set refs are global and Stitch
	// moves no community data.
	shared *storeInterns

	// pathEnd holds one end offset per path: path id's distinct ASNs are
	// asnArena[pathEnd[id-1]:pathEnd[id]] (from 0 for path 0), so the
	// arena holds the paths' ASN runs back to back in ID order.
	pathEnd  []uint32
	asnArena []uint32
	// loops is the side index of the paths that repeat an AS (see
	// pathKey), ascending by path ID; their key words lie in loopWords.
	loops     []loopedKey
	loopWords []uint32

	tuples  []Tuple
	vpArena []uint32 // the VP lists of tuples with more than one (relocating; see Tuple)
	// largeTuples records whether any tuple carries large communities, so
	// a classic-only load reports no large observations at all.
	largeTuples bool

	// tupleTab and pathTab are the indexes: view identity -> tuple and
	// path key -> path ID, candidates confirmed by content. A stitched
	// store leaves both empty until its first AddView.
	tupleTab flatTable
	pathTab  flatTable

	// large tracks the distinct large (96-bit) communities seen, for the
	// corpus statistics. The paper records their prevalence (11,524 vs
	// 88,982 regular in May 2023) and defers their classification; this
	// pipeline goes further and classifies them — large communities
	// attach to tuples (see AddViewLarge) and flow through the same
	// observe/cluster/classify stages as classic ones.
	large map[bgp.LargeCommunity]struct{}
}

// NewTupleStore returns an empty store.
func NewTupleStore() *TupleStore {
	ts := &TupleStore{shared: newStoreInterns(), large: make(map[bgp.LargeCommunity]struct{})}
	ts.shared.owner = ts
	return ts
}

// NoteLarge records large communities in the distinct-large statistics
// without attaching them to a tuple — the path for observations whose
// AS path is empty or unusable. Views with a usable path should go
// through AddViewLarge, which both notes and classifies.
func (ts *TupleStore) NoteLarge(ls bgp.LargeCommunities) {
	for _, lc := range ls {
		ts.large[lc] = struct{}{}
	}
}

// LargeCommunityCount returns the number of distinct large communities
// noted.
func (ts *TupleStore) LargeCommunityCount() int { return len(ts.large) }

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
	group  []bgp.Community      // one group of it, rendered for the group intern
	rec    []bgp.Community      // its set record (see groupSet)
	flat   []uint32             // AS-path flattening buffer for AddViewASPath
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

// appendPath appends a new path's distinct ASNs, in first-appearance
// order, to the store's ASN arena and records where they end (AS paths
// are short, so the dedup scan beats a map).
func (ts *TupleStore) appendPath(path []uint32) {
	off := len(ts.asnArena)
	for _, asn := range path {
		if !containsASN(ts.asnArena[off:], asn) {
			ts.asnArena = append(ts.asnArena, asn)
		}
	}
	ts.pathEnd = append(ts.pathEnd, uint32(len(ts.asnArena)))
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
// store copies what it keeps. Large communities are also noted in the
// distinct-large statistics, even when the path is empty and no tuple
// results.
func (ts *TupleStore) AddViewLarge(vp uint32, path []uint32, comms bgp.Communities, larges bgp.LargeCommunities) {
	if len(path) == 0 {
		ts.NoteLarge(larges)
		return
	}
	sc := addScratchPool.Get().(*addScratch)
	sc.words = collapsePath(sc.words[:0], path)
	_, hp, h := ts.shared.prepare(sc, comms, larges)
	ts.addView(vp, hp, h, sc)
	addScratchPool.Put(sc)
}

// addVP inserts vp into tuple ti's sorted VP list (no-op when present).
// A second VP moves the list from the tuple into the VP arena.
func (ts *TupleStore) addVP(ti int32, vp uint32) {
	t := &ts.tuples[ti]
	if t.set&multiVP == 0 {
		if t.vp[0] != vp {
			off := uint32(len(ts.vpArena))
			ts.vpArena = append(ts.vpArena, 2, min(t.vp[0], vp), max(t.vp[0], vp))
			t.vp[0] = off
			t.set |= multiVP
		}
		return
	}
	n := ts.vpArena[t.vp[0]]
	pos, found := slices.BinarySearch(ts.TupleVPs(t), vp)
	if found {
		return
	}
	if n == nextPow2(n) {
		ts.growVPs(t, n)
	}
	vps := ts.vpArena[t.vp[0]+1 : t.vp[0]+n+2]
	copy(vps[pos+1:], vps[pos:])
	vps[pos] = vp
	ts.vpArena[t.vp[0]] = n + 1
}

// growVPs doubles the capacity of t's full list of n VPs: in place when
// the list sits at the arena tail, otherwise by relocating it, count word
// and all, there. Each relocation doubles the capacity, so the dead space
// left behind stays bounded by the live data.
func (ts *TupleStore) growVPs(t *Tuple, n uint32) {
	off := t.vp[0]
	if end := off + 1 + n; int(end) != len(ts.vpArena) {
		t.vp[0] = uint32(len(ts.vpArena))
		ts.vpArena = append(ts.vpArena, ts.vpArena[off:end]...)
	}
	need := int(t.vp[0] + 1 + 2*n)
	ts.vpArena = slices.Grow(ts.vpArena, need-len(ts.vpArena))[:need]
}

// Len returns the number of unique tuples.
func (ts *TupleStore) Len() int { return len(ts.tuples) }

// PathCount returns the number of interned unique paths.
func (ts *TupleStore) PathCount() int { return len(ts.pathEnd) }

// Path returns the interned path info for a tuple's PathID. The
// returned view aliases the ASN arena; do not mutate it.
func (ts *TupleStore) Path(id int32) PathInfo {
	return PathInfo{ASNs: ts.pathASNs(id)}
}

// pathASNs returns path id's run of distinct ASNs in the ASN arena.
func (ts *TupleStore) pathASNs(id int32) []uint32 {
	var start uint32
	if id > 0 {
		start = ts.pathEnd[id-1]
	}
	return ts.asnArena[start:ts.pathEnd[id]]
}

// Tuples returns the flat tuple slice (shared storage; do not mutate).
// Iterate by index and resolve payloads through eachGroup/TupleVPs.
func (ts *TupleStore) Tuples() []Tuple { return ts.tuples }

// setRecord returns a tuple's set record (a view into the set intern's
// arena; do not mutate).
func (ts *TupleStore) setRecord(t *Tuple) []bgp.Community {
	return setRecordAt(ts.shared.sets.arena.from(t.setRef()))
}

// eachGroup calls fn with each group of t's community set, in the set's
// order — classic groups by ASN, then large groups by Global
// Administrator: a classic group as its communities (larges empty), a
// large group as its large communities' words, GlobalAdmin, LocalData1,
// LocalData2 each (comms empty). Both alias shared storage; fn must not
// keep or modify them.
func (ts *TupleStore) eachGroup(t *Tuple, fn func(comms bgp.Communities, larges []bgp.Community)) {
	for _, ref := range ts.setRecord(t) {
		fn(splitSet(recordAt(ts.shared.groups.arena.from(uint32(ref &^ lastGroup)))))
	}
}

// TupleVPs returns a tuple's sorted distinct vantage points (a view into
// the tuple or the VP arena; do not mutate).
func (ts *TupleStore) TupleVPs(t *Tuple) []uint32 {
	if t.set&multiVP == 0 {
		return t.vp[:]
	}
	off := t.vp[0]
	return ts.vpArena[off+1 : off+1+ts.vpArena[off]]
}

// VPSet returns the distinct vantage points across all tuples.
func (ts *TupleStore) VPSet() []uint32 {
	out := make([]uint32, 0, 64)
	for i := range ts.tuples {
		out = append(out, ts.TupleVPs(&ts.tuples[i])...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// eachStoredGroup calls fn, as eachGroup does, with every group the
// tuples refer to, each at least once. The group arena of the interns'
// owner (see storeInterns.owner) holds exactly those groups, each once; a
// shard, whose arena holds its siblings' groups too, visits its tuples'
// groups one by one.
func (ts *TupleStore) eachStoredGroup(fn func(comms bgp.Communities, larges []bgp.Community)) {
	if ts.shared.owner != ts {
		for i := range ts.tuples {
			ts.eachGroup(&ts.tuples[i], fn)
		}
		return
	}
	for _, run := range ts.shared.groups.arena.filled() {
		for len(run) > 0 {
			g := recordAt(run)
			fn(splitSet(g))
			run = run[len(g):]
		}
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
// points the tuples carry, counted through hash sets: unlike Communities
// and VPSet, no payload copy, no sort, O(distinct) memory.
func (ts *TupleStore) DistinctCounts() (communities, vantagePoints int) {
	comms := newProbeTable[bgp.Community, struct{}]()
	vps := newProbeTable[uint32, struct{}]()
	ts.eachStoredGroup(func(cs bgp.Communities, _ []bgp.Community) {
		for _, c := range cs {
			comms.at(c, hashU32(uint32(c)))
		}
	})
	for i := range ts.tuples {
		for _, vp := range ts.TupleVPs(&ts.tuples[i]) {
			vps.at(vp, hashU32(vp))
		}
	}
	return comms.n, vps.n
}

// AllPaths returns every interned path's distinct-ASN sequence (views
// into shared storage; do not mutate). Suitable input for
// AS-relationship inference.
func (ts *TupleStore) AllPaths() [][]uint32 {
	out := make([][]uint32, len(ts.pathEnd))
	for i := range out {
		out[i] = ts.pathASNs(int32(i))
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

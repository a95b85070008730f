// Package core implements the paper's contribution: classifying BGP
// communities as action or information. The pipeline mirrors §5.2 —
// extract unique (AS path, communities) tuples from BGP data, cluster
// each AS's observed β values by a minimum gap, compute each cluster's
// on-path:off-path ratio, and label the cluster's communities.
package core

import (
	"encoding/binary"
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
// The slices alias shared storage and must not be mutated.
type PathInfo struct {
	ASNs []uint32 // distinct ASNs on the path, in first-appearance order
	Orgs []string // distinct organizations of those ASNs (when mapped)
}

// pathMeta locates one interned path's ASNs and organizations in the
// store arenas.
type pathMeta struct {
	asns span
	orgs span
}

// Tuple is one unique (AS path, communities) observation. The
// communities and vantage points live in the store's shared arenas;
// read them through TupleStore.TupleComms and TupleStore.TupleVPs.
// Tuples are plain values in one flat slice — no per-tuple pointers,
// no per-tuple slice headers.
type Tuple struct {
	PathID int32
	comms  span
	// lcomms locates the tuple's canonical large-community list (RFC
	// 8092); the zero span means none. Large communities are part of
	// tuple identity: observations that differ only in their large
	// communities are distinct tuples.
	lcomms span
	// The VP list is the one per-tuple field that grows after creation,
	// so it carries a capacity: when full it relocates to the arena
	// tail with doubled capacity (amortized O(1), bounded dead space).
	vpOff, vpLen, vpCap uint32
}

// tupleKey is the fixed-size dedup key of one (path, communities,
// large communities) tuple: the interned path ID plus a 64-bit hash of
// each canonical community list. Tuples whose lists collide on the
// hashes are disambiguated by comparing the lists themselves (a rare
// overflow list holds the extra candidates), so the key is compact
// without being lossy. Classic-only tuples carry largeHash 0, so their
// keys are exactly the pre-large ones.
type tupleKey struct {
	pathID    int32
	commsHash uint64
	largeHash uint64
}

// TupleStore interns AS paths and deduplicates (path, communities)
// tuples, the §4 data reduction (the paper extracts ≈174M such tuples
// from one week of RouteViews/RIS data).
//
// Storage is columnar (struct-of-arrays): tuples are one flat []Tuple,
// and their variable-length payloads — community lists, VP lists, path
// ASN sequences, path org lists — are offset+length views into four
// append-only arenas. The hot ingest path therefore allocates only
// when an arena or the flat slice grows, not per tuple.
type TupleStore struct {
	// shared, when non-nil, switches the store to shared-storage mode:
	// community lists resolve through the cross-shard intern table and
	// path ASN sequences live in the cross-shard arena, so spans are
	// global and a ShardedTupleStore.Stitch moves no payload data. A
	// plain NewTupleStore leaves it nil and keeps the local arenas.
	shared *storeShared

	paths    []pathMeta
	asnArena []uint32 // all interned path ASN sequences (nil in shared mode)
	orgArena []string // all path org lists (filled by AnnotateOrgs)
	pathIDs  map[string]int32
	pathKeys []string // path ID -> binary path key (shares pathIDs' key storage; plain store only)
	// loops is the shared-mode side index of the paths that repeat an AS
	// (see pathKey), ascending by path ID.
	loops []loopedKey

	tuples     []Tuple
	commArena  []bgp.Community      // all tuple community lists (append-only; nil in shared mode)
	largeArena []bgp.LargeCommunity // all tuple large-community lists (append-only; nil in shared mode)
	vpArena    []uint32             // all tuple VP lists (relocating; see Tuple)

	// tupleIdx maps a dedup key to its first tuple; tupleDup holds the
	// (vanishingly rare) extra tuples whose communities collide on the
	// hash, so the common case costs one map entry and zero slices.
	// Like pathIDs, plain store only: a shared-mode store indexes through
	// tupleTab and pathTab instead (see addViewShared).
	tupleIdx map[tupleKey]int32
	tupleDup map[tupleKey][]int32

	// tupleTab and pathTab are the shared-mode indexes: view identity ->
	// tuple and path key -> path ID, candidates confirmed by content. A
	// stitched store leaves both empty until its first AddView.
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
	return &TupleStore{
		pathIDs:  make(map[string]int32),
		tupleIdx: make(map[tupleKey]int32),
		large:    make(map[bgp.LargeCommunity]struct{}),
	}
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

// hasLargeTuples reports (in O(1)) whether any tuple in the store
// carries large communities, so classic-only loads skip the large
// observation pass entirely.
func (ts *TupleStore) hasLargeTuples() bool {
	if ts.shared != nil {
		// The large arena holds exactly the lists interned for tuples; the
		// intern table beside it is load-only state and may be gone.
		return !ts.shared.larges.arena.empty()
	}
	return len(ts.largeArena) > 0
}

// appendPathKey renders a path (with prepending collapsed) to the plain
// store's compact binary key, appending to dst.
func appendPathKey(dst []byte, path []uint32) []byte {
	var prev uint32
	for i, asn := range path {
		if i > 0 && asn == prev {
			continue
		}
		prev = asn
		dst = binary.LittleEndian.AppendUint32(dst, asn)
	}
	return dst
}

// collapsePath appends path with prepending (adjacent repeats) collapsed:
// the shared-mode path key, the same words appendPathKey renders to bytes.
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
	key    []byte   // plain-store path key
	words  []uint32 // shared-mode path key
	comms  bgp.Communities
	larges bgp.LargeCommunities // large-community canonicalization buffer
	flat   []uint32             // AS-path flattening buffer for AddViewASPath
	asns   []uint32             // shared-mode path interning: distinct ASNs, then the key if it differs
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

// commsEqual reports whether two canonical community lists are equal.
func commsEqual(a, b bgp.Communities) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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

// largesEqual reports whether two canonical large-community lists are
// equal.
func largesEqual(a, b bgp.LargeCommunities) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// internPathKey returns the plain store's path ID for a path whose
// binary key has already been rendered, creating the entry if new. The
// key bytes are only copied to a string on insertion; lookups are
// allocation-free. The distinct-ASN sequence is appended to the store's
// ASN arena (AS paths are short, so the dedup scan beats a map).
func (ts *TupleStore) internPathKey(key []byte, path []uint32) int32 {
	if id, ok := ts.pathIDs[string(key)]; ok {
		return id
	}
	id := int32(len(ts.paths))
	off := uint32(len(ts.asnArena))
	for _, asn := range path {
		if !containsASN(ts.asnArena[off:], asn) {
			ts.asnArena = append(ts.asnArena, asn)
		}
	}
	asns := span{off: off, n: uint32(len(ts.asnArena)) - off}
	skey := string(key)
	ts.paths = append(ts.paths, pathMeta{asns: asns})
	ts.pathIDs[skey] = id
	ts.pathKeys = append(ts.pathKeys, skey)
	return id
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
	for _, lc := range larges {
		ts.large[lc] = struct{}{}
	}
	if len(path) == 0 {
		return
	}
	sc := addScratchPool.Get().(*addScratch)
	if ts.shared != nil { // a store that came out of Stitch
		sc.words = collapsePath(sc.words[:0], path)
		_, hp, h := ts.shared.prepare(sc, comms, larges)
		ts.addViewShared(vp, hp, h, sc)
	} else {
		sc.key = appendPathKey(sc.key[:0], path)
		ts.addViewKeyed(vp, sc.key, path, comms, larges, sc)
	}
	addScratchPool.Put(sc)
}

// addViewKeyed is the plain store's AddViewLarge with the path key
// pre-rendered into sc.key; sc also carries the canonicalization
// scratch. Callers are responsible for noting larges in ts.large.
func (ts *TupleStore) addViewKeyed(vp uint32, key []byte, path []uint32, comms bgp.Communities, larges bgp.LargeCommunities, sc *addScratch) {
	id := ts.internPathKey(key, path)
	sc.comms = canonicalInto(sc.comms, comms)
	canon := sc.comms
	sc.larges = canonicalLargeInto(sc.larges, larges)
	canonLarge := sc.larges
	tk := tupleKey{pathID: id, commsHash: hashComms(canon), largeHash: hashLarges(canonLarge)}
	if ti, ok := ts.tupleIdx[tk]; ok {
		if ts.addVPIfMatch(ti, canon, canonLarge, vp) {
			return
		}
		for _, di := range ts.tupleDup[tk] {
			if ts.addVPIfMatch(di, canon, canonLarge, vp) {
				return
			}
		}
		// Hash collision: distinct community lists under the same key.
		if ts.tupleDup == nil {
			ts.tupleDup = make(map[tupleKey][]int32)
		}
		ts.tupleDup[tk] = append(ts.tupleDup[tk], int32(len(ts.tuples)))
	} else {
		ts.tupleIdx[tk] = int32(len(ts.tuples))
	}
	commOff := uint32(len(ts.commArena))
	ts.commArena = append(ts.commArena, canon...)
	largeOff := uint32(len(ts.largeArena))
	ts.largeArena = append(ts.largeArena, canonLarge...)
	vpOff := uint32(len(ts.vpArena))
	ts.vpArena = append(ts.vpArena, vp)
	ts.tuples = append(ts.tuples, Tuple{
		PathID: id,
		comms:  span{off: commOff, n: uint32(len(canon))},
		lcomms: span{off: largeOff, n: uint32(len(canonLarge))},
		vpOff:  vpOff, vpLen: 1, vpCap: 1,
	})
}

// addVPIfMatch merges vp into tuple ti if both of its community lists
// equal the canonical candidates, reporting whether it did.
func (ts *TupleStore) addVPIfMatch(ti int32, canon bgp.Communities, canonLarge bgp.LargeCommunities, vp uint32) bool {
	if !commsEqual(ts.TupleComms(&ts.tuples[ti]), canon) {
		return false
	}
	if !largesEqual(ts.TupleLarges(&ts.tuples[ti]), canonLarge) {
		return false
	}
	ts.addVP(ti, vp)
	return true
}

// addVP inserts vp into tuple ti's sorted VP list (no-op when present).
func (ts *TupleStore) addVP(ti int32, vp uint32) {
	t := &ts.tuples[ti]
	vps := ts.vpArena[t.vpOff : t.vpOff+t.vpLen]
	pos, found := slices.BinarySearch(vps, vp)
	if found {
		return
	}
	if t.vpLen == t.vpCap {
		ts.growVPs(t)
	}
	vps = ts.vpArena[t.vpOff : t.vpOff+t.vpLen+1]
	copy(vps[pos+1:], vps[pos:])
	vps[pos] = vp
	t.vpLen++
}

// growVPs doubles a tuple's VP capacity: in place when the tuple sits at
// the arena tail, otherwise by relocating it there. Each relocation
// doubles the capacity, so the dead space left behind stays bounded by
// the live data.
func (ts *TupleStore) growVPs(t *Tuple) {
	newCap := t.vpCap * 2
	if int(t.vpOff+t.vpCap) != len(ts.vpArena) {
		newOff := uint32(len(ts.vpArena))
		ts.vpArena = append(ts.vpArena, ts.vpArena[t.vpOff:t.vpOff+t.vpLen]...)
		t.vpOff = newOff
	}
	need := int(t.vpOff) + int(newCap)
	ts.vpArena = slices.Grow(ts.vpArena, need-len(ts.vpArena))[:need]
	t.vpCap = newCap
}

// Len returns the number of unique tuples.
func (ts *TupleStore) Len() int { return len(ts.tuples) }

// PathCount returns the number of interned unique paths.
func (ts *TupleStore) PathCount() int { return len(ts.paths) }

// Path returns the interned path info for a tuple's PathID. The
// returned views alias the store arenas; do not mutate them.
func (ts *TupleStore) Path(id int32) PathInfo {
	p := &ts.paths[id]
	return PathInfo{
		ASNs: ts.pathASNs(p),
		Orgs: ts.orgArena[p.orgs.off : p.orgs.off+p.orgs.n],
	}
}

// pathASNs resolves a path's distinct-ASN span against whichever arena
// holds it (cross-shard in shared mode, local otherwise).
func (ts *TupleStore) pathASNs(p *pathMeta) []uint32 {
	if ts.shared != nil {
		return ts.shared.asns.view(p.asns.off, p.asns.n)
	}
	return ts.asnArena[p.asns.off : p.asns.off+p.asns.n]
}

// Tuples returns the flat tuple slice (shared storage; do not mutate).
// Iterate by index and resolve payloads through TupleComms/TupleVPs.
func (ts *TupleStore) Tuples() []Tuple { return ts.tuples }

// TupleComms returns a tuple's canonical community list (a view into
// the community arena or the shared intern arena; do not mutate).
func (ts *TupleStore) TupleComms(t *Tuple) bgp.Communities {
	if ts.shared != nil {
		return ts.shared.comms.view(t.comms.off, t.comms.n)
	}
	return ts.commArena[t.comms.off : t.comms.off+t.comms.n]
}

// TupleLarges returns a tuple's canonical large-community list (a view
// into the large arena or the shared intern arena; do not mutate). Nil
// for classic-only tuples.
func (ts *TupleStore) TupleLarges(t *Tuple) bgp.LargeCommunities {
	if t.lcomms.n == 0 {
		return nil
	}
	if ts.shared != nil {
		return ts.shared.larges.view(t.lcomms.off, t.lcomms.n)
	}
	return ts.largeArena[t.lcomms.off : t.lcomms.off+t.lcomms.n]
}

// TupleVPs returns a tuple's sorted distinct vantage points (a view
// into the VP arena; do not mutate).
func (ts *TupleStore) TupleVPs(t *Tuple) []uint32 {
	return ts.vpArena[t.vpOff : t.vpOff+t.vpLen]
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

// Communities returns the distinct communities across all tuples, sorted.
func (ts *TupleStore) Communities() []bgp.Community {
	if ts.shared != nil {
		// The shared intern arena holds every list seen by ANY store on
		// the same storeShared, so walk this store's tuples instead.
		n := 0
		for i := range ts.tuples {
			n += int(ts.tuples[i].comms.n)
		}
		out := make([]bgp.Community, 0, n)
		for i := range ts.tuples {
			out = append(out, ts.TupleComms(&ts.tuples[i])...)
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	// The community arena is append-only with no dead regions, so it is
	// exactly the concatenation of every tuple's list.
	out := make([]bgp.Community, len(ts.commArena))
	copy(out, ts.commArena)
	slices.Sort(out)
	return slices.Compact(out)
}

// DistinctCounts returns how many distinct communities and vantage
// points the tuples carry, counted through hash sets: unlike Communities
// and VPSet, no payload copy, no sort, O(distinct) memory. A stitched
// store counts communities over the intern arena, where every distinct
// list lies once, instead of once per tuple that refers to it.
func (ts *TupleStore) DistinctCounts() (communities, vantagePoints int) {
	comms := newProbeTable[bgp.Community, struct{}]()
	vps := newProbeTable[uint32, struct{}]()
	interned := ts.shared != nil && ts.shared.stitched == ts
	if interned {
		for _, chunk := range ts.shared.comms.arena.filled() {
			for _, c := range chunk {
				comms.at(c, hashU32(uint32(c)))
			}
		}
	}
	for i := range ts.tuples {
		t := &ts.tuples[i]
		if !interned {
			for _, c := range ts.TupleComms(t) {
				comms.at(c, hashU32(uint32(c)))
			}
		}
		for _, vp := range ts.TupleVPs(t) {
			vps.at(vp, hashU32(vp))
		}
	}
	return comms.n, vps.n
}

// AllPaths returns every interned path's distinct-ASN sequence (views
// into shared storage; do not mutate). Suitable input for
// AS-relationship inference.
func (ts *TupleStore) AllPaths() [][]uint32 {
	out := make([][]uint32, len(ts.paths))
	for i := range ts.paths {
		out[i] = ts.pathASNs(&ts.paths[i])
	}
	return out
}

// OrgMapper resolves an ASN to its organization, the as2org sibling
// context (§4).
type OrgMapper interface {
	Org(asn uint32) (string, bool)
}

// AnnotateOrgs fills each interned path's organization list using the
// mapper. Call once after loading all data and before classification
// when sibling awareness is wanted.
func (ts *TupleStore) AnnotateOrgs(orgs OrgMapper) {
	ts.orgArena = ts.orgArena[:0]
	for i := range ts.paths {
		p := &ts.paths[i]
		off := uint32(len(ts.orgArena))
		for _, asn := range ts.pathASNs(p) {
			if org, ok := orgs.Org(asn); ok {
				if !containsOrg(ts.orgArena[off:], org) {
					ts.orgArena = append(ts.orgArena, org)
				}
			}
		}
		p.orgs = span{off: off, n: uint32(len(ts.orgArena)) - off}
	}
}

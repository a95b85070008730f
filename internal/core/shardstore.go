package core

import (
	"math/bits"
	"runtime"
	"sync"

	"bgpintent/internal/bgp"
)

// ShardedTupleStore is the parallel load's TupleStore front:
// AddViewASPathLarge hashes the path key's origin to one of N shards,
// each an independent TupleStore behind its own mutex, and a parallel MRT
// load goes through Load, which gives every shard one writing goroutine
// (see ShardLoad). Stitch collapses the shards into a single read-only
// TupleStore whose contents — the set of tuples, paths, VP sets and
// larges — are the same whatever the worker count or goroutine
// scheduling; its layout (path IDs, tuple order) follows arrival order
// within each shard and is not.
//
// Because shard routing is a pure function of the path key's last word,
// the origin, every observation of one path lands in the same shard, so
// per-shard deduplication is global deduplication: no cross-shard
// reconciliation is needed at stitch time. Every path toward one origin
// lands there too, so every suffix paths can share — every hop — lives
// in one shard; routed by the whole key, each shard would hold its own
// copy of a shared hop.
//
// Every shard owns its storage: its groups, deduplicated inline, its set
// records, one appended per new tuple, and its hops, all written under
// the shard lock. Stitch deduplicates the groups of all shards at once,
// translates the set records to the stitched group ordinals as it
// deduplicates them, and copies the hops once.
//
// A view is hashed once, before its shard's writer sees it
// (storeHash.prepare): outside the shard lock here, on the scanning
// goroutine's Feeder in a load. The hash leads straight to its tuple
// (addView), so a duplicate costs one probe, a content compare and a VP
// check.
type ShardedTupleStore struct {
	shards []tupleShard
	shift  uint      // 64 - log2(len(shards)): the route hash's top bits pick the shard
	hash   storeHash // every shard's copy: records tag alike in all of them

	// noted holds the larges of views with an empty path, which attach to
	// no tuple and so to no shard; Stitch hands it to its output.
	notedMu sync.Mutex
	noted   probeTable[bgp.LargeCommunity, struct{}]
}

type tupleShard struct {
	mu sync.Mutex
	ts *TupleStore
	// pad the shard out to its own cache lines so neighboring shard
	// locks do not false-share.
	_ [64]byte
}

// NewShardedTupleStore returns a store with at least n shards (rounded
// up to a power of two; n <= 0 means a single shard). A good n is a
// small multiple of the worker count.
func NewShardedTupleStore(n int) *ShardedTupleStore {
	size := 1
	for size < n {
		size <<= 1
	}
	s := &ShardedTupleStore{
		shards: make([]tupleShard, size),
		shift:  uint(64 - bits.TrailingZeros(uint(size))),
		hash:   newStoreHash(),
	}
	for i := range s.shards {
		s.shards[i].ts = newStore(s.hash)
	}
	return s
}

// AddViewASPathLarge records one vantage-point observation; safe for
// concurrent use. Semantics match TupleStore.AddViewLarge, larges on an
// empty path included. The path is flattened into pooled scratch, so
// callers feeding decoded MRT attributes avoid the per-view []uint32
// allocation of ASPath.Flatten.
func (s *ShardedTupleStore) AddViewASPathLarge(vp uint32, path bgp.ASPath, comms bgp.Communities, larges bgp.LargeCommunities) {
	sc := addScratchPool.Get().(*addScratch)
	sc.flat = path.AppendFlatten(sc.flat[:0])
	if len(sc.flat) == 0 {
		s.NoteLarge(larges)
	} else {
		s.add(vp, sc.flat, comms, larges, sc)
	}
	addScratchPool.Put(sc)
}

// add records one view with a non-empty path. Everything that depends
// only on the view — key collapse, canonicalization, hashing — happens
// before the shard lock is taken.
func (s *ShardedTupleStore) add(vp uint32, path []uint32, comms bgp.Communities, larges bgp.LargeCommunities, sc *addScratch) {
	sc.words = collapsePath(sc.words[:0], path)
	route, h := s.hash.prepare(sc, comms, larges)
	sh := &s.shards[route>>s.shift]
	sh.mu.Lock()
	sh.ts.addView(vp, h, sc)
	sh.mu.Unlock()
}

// NoteLarge records large communities that attach to no tuple (the
// view's path was empty); safe for concurrent use. Larges that do attach
// are counted from the stored groups (TupleStore.LargeCommunityCount).
func (s *ShardedTupleStore) NoteLarge(ls bgp.LargeCommunities) {
	if len(ls) == 0 {
		return
	}
	s.notedMu.Lock()
	noteLarges(&s.noted, ls)
	s.notedMu.Unlock()
}

// flatTable is the index shape of a TupleStore: an open-addressed
// table (linear probing, power-of-two capacity, grown at 3/4 load) of
// uint64 slots, tag<<32 | index+1, zero meaning empty. The tag is the
// top half of the entry's seeded hash and its top bits are the home
// slot, so growth re-places entries from the slots alone. The table
// holds no keys: whoever probes it confirms each candidate index against
// the content it stands for.
type flatTable struct {
	slots []uint64
	n     int
	shift uint // 32 - log2(len(slots))
}

// newFlatTable returns a table that holds n entries without growing.
func newFlatTable(n int) flatTable {
	b := uint(6)
	for 3<<b < 4*n { // insert grows past 3/4 load
		b++
	}
	return flatTable{slots: make([]uint64, 1<<b), shift: 32 - b}
}

// reuse empties t to take n entries without growing, in the slots it
// has when they are enough.
func (t *flatTable) reuse(n int) {
	if 3*len(t.slots) < 4*n || len(t.slots) == 0 {
		*t = newFlatTable(n)
		return
	}
	clear(t.slots)
	t.n = 0
}

// insert adds an entry; the caller has established it is absent.
func (t *flatTable) insert(h uint64, idx int) {
	if (t.n+1)*4 > len(t.slots)*3 {
		old := t.slots
		t.slots, t.shift = make([]uint64, 2*len(old)), t.shift-1
		for _, s := range old {
			if s != 0 {
				t.place(s)
			}
		}
	}
	t.place(h>>32<<32 | uint64(idx+1))
	t.n++
}

func (t *flatTable) place(s uint64) {
	mask := uint32(len(t.slots) - 1)
	for i := uint32(s>>32) >> t.shift; ; i = (i + 1) & mask {
		if t.slots[i] == 0 {
			t.slots[i] = s
			return
		}
	}
}

// addView is the write path for one prepared view: hash h (identity),
// path key in sc.words, canonical set in sc.set; addView reads nothing
// else of sc. One probe of the tuple table finds the view's tuple if it
// exists, confirmed by walking the candidate's path against the key and
// comparing the set, group by group — identity is exact whatever the
// hash does. Only a miss goes on to the hops, the store's groups
// (groupSet), the set record (addSet) and the appends.
func (ts *TupleStore) addView(vp uint32, h uint64, sc *addScratch) {
	tab := &ts.tupleTab
	tag, mask := uint32(h>>32), uint32(len(tab.slots)-1)
	for i := tag >> tab.shift; tab.slots[i] != 0; i = (i + 1) & mask {
		s := tab.slots[i]
		if uint32(s>>32) != tag {
			continue
		}
		ti := int32(uint32(s) - 1)
		t := &ts.tuples[ti]
		if ts.samePath(t.PathID, sc.words) && ts.sameSet(t.setRef(), sc.set) {
			ts.addVP(ti, vp)
			return
		}
	}
	id := ts.internPath(sc.words)
	sc.groupSet(ts)
	set := ts.addSet(sc.rec)
	if sc.set[0]>>16 != 0 { // the set's header counts its larges
		ts.largeTuples = true
	}
	ti := int32(len(ts.tuples))
	tab.insert(h, int(ti))
	ts.tuples = append(ts.tuples, Tuple{PathID: id, set: set})
	if vp != ts.hopASN[id] {
		ts.newVPList(ti, vp)
	}
}

// addSet returns the ref of a new tuple's set record rec: in a
// NewTupleStore, of the one copy its set index holds; in a shard, of a
// fresh copy, which Stitch deduplicates. The empty record is ref 0.
func (ts *TupleStore) addSet(rec []byte) uint32 {
	switch {
	case len(rec) == 0:
		return 0
	case ts.sets.tab.slots != nil:
		return ts.sets.intern(rec, ts.hash.setTag(rec))
	default:
		return appendRecord(&ts.sets.arena, rec)
	}
}

// internPath returns the ID of the path with key words, its first hop's
// ID: it finds or appends the key's hops origin first, each the (ASN,
// next) pair that identifies it, and marks the first one as a path's head
// if it was not yet. A looped key (A B A) is just its chain.
func (ts *TupleStore) internPath(words []uint32) int32 {
	next := uint32(originHop)
	for i := len(words) - 1; i >= 0; i-- {
		next = ts.internHop(words[i], next)
	}
	if ts.hopNext[next]&pathHead == 0 {
		ts.hopNext[next] |= pathHead
		ts.paths++
	}
	return int32(next)
}

// internHop returns the ID of hop (asn, next), appending it if new.
func (ts *TupleStore) internHop(asn, next uint32) uint32 {
	h := ts.hash.hopHash(asn, next)
	tab := &ts.hopTab
	tag, mask := uint32(h>>32), uint32(len(tab.slots)-1)
	for i := tag >> tab.shift; tab.slots[i] != 0; i = (i + 1) & mask {
		s := tab.slots[i]
		if id := uint32(s) - 1; uint32(s>>32) == tag && ts.hopASN[id] == asn && ts.hopNext[id]&^pathHead == next {
			return id
		}
	}
	id := len(ts.hopASN)
	if id >= originHop {
		panic("core: a store holds at most 1<<31-1 hops")
	}
	tab.insert(h, id)
	ts.hopASN = append(ts.hopASN, asn)
	ts.hopNext = append(ts.hopNext, next)
	return uint32(id)
}

// Stitch collapses the shards into one read-only TupleStore in O(n)
// index work and no comparison sort. It first drops every shard's lookup
// tables, which only inserts probe, and collects them, so they are not
// live beside the copy.
// Then:
//   - groups are deduplicated by content, all shards' at once, which
//     leaves each shard a table of its group ordinals' stitched ones
//     (dedupGroups); each shard's groups are then dropped;
//   - set records are deduplicated likewise, each translated through its
//     shard's table (dedupSets), each kind in stitchParts hash partitions
//     laid end to end in one exact-size arena (dedupRecords);
//   - per shard, into disjoint pre-sized regions of the output, the
//     shard's hops are copied at the shard's offset, and their next refs
//     rebased onto it (a path's global ID, its first hop's, is the
//     shard's offset plus its shard-local ID); tuples are
//     counting-sorted by path ID, so stitched tuples are non-decreasing
//     in PathID and Observe walks them as they lie, and each takes its
//     set's ref in the stitched arena as it is copied; VP lists are
//     copied as their count word and their VPs.
//
// The VP index is then rebuilt for the reordered tuple indexes: the lists
// lie in the arena in tuple order.
//
// The partitions and the per-shard work run on up to workers goroutines
// (<= 0 means GOMAXPROCS); the regions are disjoint, so they need no
// locks, and the layout is a function of the shards alone — what they
// hold and the order it arrived in — not of workers. What they hold is
// the same for any number of writers (routing is a pure function of the
// path key); the arrival order, hence path IDs, tuple order and the
// arenas' layout, is not. No output depends on that order: every reader
// sums, counts or sorts what it reads.
//
// Stitch consumes the shards: the stitched store takes their contents
// and the noted larges, and the sharded store can be neither fed nor
// stitched again. The stitched store holds what readers read and nothing
// else, with no growth slack and no table; without tables it takes no
// views (AddViewLarge panics).
func (s *ShardedTupleStore) Stitch(workers int) *TupleStore {
	if s.shards[0].ts.tupleTab.slots == nil {
		panic("core: a stitched ShardedTupleStore is read-only: Stitch consumed its shards")
	}
	n := len(s.shards)
	tupleOff := make([]int, n+1)
	hopOff := make([]int, n+1)
	vpOff := make([]int, n+1)
	groupOff := make([]int, n+1)
	paths := 0
	largeTuples := false
	for i := range s.shards {
		ts := s.shards[i].ts
		groupOff[i+1] = groupOff[i] + len(ts.groups.at)
		ts.tupleTab, ts.hopTab, ts.groups.tab = flatTable{}, flatTable{}, flatTable{}
		nVPs := 0
		ts.vpIndex.each(func(_ int32, _ uint64, off *uint32) { nVPs += 1 + int(ts.vpArena[*off]) })
		largeTuples = largeTuples || ts.largeTuples
		paths += ts.paths
		tupleOff[i+1] = tupleOff[i] + len(ts.tuples)
		hopOff[i+1] = hopOff[i] + len(ts.hopASN)
		vpOff[i+1] = vpOff[i] + nVPs
	}
	if hopOff[n] >= originHop {
		panic("core: a store holds at most 1<<31-1 hops")
	}
	// Collect the dropped tables, about half of a load's heap, before
	// allocating the dedup's scratch and the stitched store, so that these
	// take the tables' memory. Otherwise they come on top of it until a
	// collection their own allocation starts has swept it, and the load's
	// peak is its heap plus what Stitch allocates meanwhile.
	runtime.GC()
	groups, groupAt, ords := s.dedupGroups(workers, groupOff)
	sets, refs := s.dedupSets(workers, tupleOff, groupOff, ords)
	out := &TupleStore{
		hash:        s.hash,
		groups:      recordIndex[bgp.Community]{arena: groups, at: groupAt, byOrdinal: true},
		sets:        recordIndex[byte]{arena: sets},
		hopASN:      make([]uint32, hopOff[n]),
		hopNext:     make([]uint32, hopOff[n]),
		paths:       paths,
		tuples:      make([]Tuple, tupleOff[n]),
		vpArena:     make([]uint32, vpOff[n]),
		largeTuples: largeTuples,
		noted:       s.noted,
	}
	ParallelFor(workers, n, func(i int) {
		ts := s.shards[i].ts
		hops := uint32(hopOff[i])
		copy(out.hopASN[hops:], ts.hopASN)
		for j, next := range ts.hopNext {
			if next&^pathHead != originHop {
				next += hops // below pathHead, so the mark is kept
			}
			out.hopNext[int(hops)+j] = next
		}
		order, _ := countingSort(len(ts.tuples), len(ts.hopASN), func(j int) int32 { return ts.tuples[j].PathID })
		refs := refs[tupleOff[i]:]
		vpCur := uint32(vpOff[i])
		for j, ti := range order {
			t := ts.tuples[ti]
			if t.set&multiVP != 0 {
				vps := ts.TupleVPs(int(ti))
				out.vpArena[vpCur] = uint32(len(vps))
				copy(out.vpArena[vpCur+1:], vps)
				vpCur += 1 + uint32(len(vps))
			}
			t.set = t.set&multiVP | refs[ti]
			t.PathID += int32(hops)
			out.tuples[tupleOff[i]+j] = t
		}
	})
	for i, off := 0, uint32(0); int(off) < len(out.vpArena); i++ {
		if out.tuples[i].set&multiVP != 0 {
			out.indexVPList(int32(i), off)
			off += 1 + out.vpArena[off]
		}
	}
	return out
}

// dedupGroups deduplicates the shards' groups (dedupRecords), a group
// named by its ordinal in its shard, numbered from groupOff[shard], and
// returns the stitched group arena and its ordinals' offsets. ords holds
// each shard group's stitched ordinal at its position, a dense old → new
// table per shard through which dedupSets translates the shard's set
// records; the shards' groups are dropped before dedupSets allocates.
func (s *ShardedTupleStore) dedupGroups(workers int, groupOff []int) (arena []bgp.Community, at, ords []uint32) {
	ords = make([]uint32, groupOff[len(s.shards)])
	ParallelFor(workers, len(s.shards), func(i int) {
		g, tags := &s.shards[i].ts.groups, ords[groupOff[i]:]
		for k, off := range g.at {
			tags[k] = s.hash.tag(recordAt(g.arena[off:]))
		}
	})
	// A group is two words or more, and it recurs in shard after shard:
	// one word a shard group is room enough for the distinct ones.
	arena, at = dedupRecords(workers, ords, groupOff, partSizes{}, true, func(_ []bgp.Community, i, k int) []bgp.Community {
		g := &s.shards[i].ts.groups
		return recordAt(g.arena[g.at[k]:])
	})
	for i := range s.shards {
		s.shards[i].ts.groups = recordIndex[bgp.Community]{}
	}
	return arena, at, ords
}

// dedupSets deduplicates the shards' set records, each translated to the
// stitched group ordinals through its shard's run of ords (dedupGroups),
// and returns the stitched set arena and each tuple's ref in it, at the
// tuple's global index (tupleOff[shard] plus its index in the shard).
// Each record is tagged here, over its translated ordinals as setTag
// tags a record, into the array that then takes the refs, and
// translated as its partition interns it, into an arena sized for the
// records' bytes as the shards hold them, so that it rarely grows.
func (s *ShardedTupleStore) dedupSets(workers int, tupleOff, groupOff []int, ords []uint32) (arena []byte, refs []uint32) {
	refs = make([]uint32, tupleOff[len(s.shards)])
	sizes := make([]partSizes, len(s.shards))
	ParallelFor(workers, len(s.shards), func(i int) {
		ts, ords := s.shards[i].ts, ords[groupOff[i]:]
		for j := range ts.tuples {
			h, ref := s.hash.seed, ts.tuples[j].setRef()
			k := int(ref)
			for last := ref == 0; !last; {
				var ord uint32
				ord, last, k = groupRef(ts.sets.arena, k)
				h = mixWord(h, ords[ord])
			}
			tag := s.hash.tagOf(h, ref == 0)
			refs[tupleOff[i]+j] = tag
			sizes[i][recordPart(tag)] += k - int(ref)
		}
	})
	var size partSizes // each partition's records' bytes, duplicates and all
	for _, sz := range sizes {
		for p, n := range sz {
			size[p] += n
		}
	}
	arena, _ = dedupRecords(workers, refs, tupleOff, size, false, func(dst []byte, i, j int) []byte {
		ts, ords := s.shards[i].ts, ords[groupOff[i]:]
		ref := ts.tuples[j].setRef()
		for k, last := int(ref), ref == 0; !last; {
			var ord uint32
			ord, last, k = groupRef(ts.sets.arena, k)
			dst = appendGroupRef(dst, ords[ord], last)
		}
		return dst
	})
	return arena, refs
}

// stitchParts is how many hash partitions Stitch deduplicates records
// in. It is a constant, not the worker count, so a stitched arena —
// partition after partition, each in shard and position order — is a
// function of the shards alone.
const stitchParts = 16

// recordPart is the partition of a record by its tag: bits 1 to 4.
// Neither the forced low bit nor a partition's table, whose home slot is
// the tag's top bits, uses them; bits that every record of a partition
// shared would pile them onto one run of its table's slots.
func recordPart(tag uint32) int { return int(tag>>1) & (stitchParts - 1) }

// partSizes counts record items by partition.
type partSizes [stitchParts]int

// dedupRecords deduplicates records of one kind from every shard by
// content. A record is named by a position — a group by its ordinal in
// its shard, a set record by its tuple's index in its shard — and shard
// i's positions are numbered from off[i] in keys, which holds each
// position's record tag on entry (0 where there is none, or the record is
// empty) and its record's name in the returned arena on return: its
// offset, 0 (the empty record, seeded at 0) where the tag was 0, or, when
// byOrdinal, its ordinal, at holding the ordinals' offsets. rec(dst, i,
// pos) is the record at shard i's position pos, in dst if it is rendered
// there. A partition's arena is allocated for size[p] items, or one item
// a record when that is more.
//
// The positions are bucketed by partition (recordPart), each bucket in
// shard and position order; partition p interns its bucket's records
// into a recordIndex of its own, on up to workers goroutines, each
// writing only its own positions' keys. A goroutine's partitions take
// turns in one table (flatTable.reuse). Their arenas are then laid end to
// end in one exact-size arena, and each key is rebased onto its
// partition's start.
func dedupRecords[E bgp.Community | byte](workers int, keys []uint32, off []int, size partSizes, byOrdinal bool, rec func(dst []E, i, pos int) []E) (arena []E, at []uint32) {
	var start [stitchParts + 1]int
	for _, tag := range keys {
		if tag != 0 {
			start[recordPart(tag)+1]++
		}
	}
	for p := range stitchParts {
		start[p+1] += start[p]
	}
	bucket := make([]uint32, start[stitchParts])
	next := start
	for g, tag := range keys {
		if tag != 0 {
			p := recordPart(tag)
			bucket[next[p]] = uint32(g)
			next[p]++
		}
	}
	var parts [stitchParts]recordIndex[E]
	parallelRanges(ResolveWorkers(workers), stitchParts, func(_, lo, hi int) {
		var tab flatTable
		var buf []E
		for p := lo; p < hi; p++ {
			recs := bucket[start[p]:start[p+1]]
			tab.reuse(len(recs))
			ri := recordIndex[E]{arena: make([]E, 0, max(size[p], len(recs))), tab: tab, byOrdinal: byOrdinal}
			i := 0
			for _, g := range recs {
				for int(g) >= off[i+1] {
					i++
				}
				buf = rec(buf[:0], i, int(g)-off[i])
				keys[g] = ri.intern(buf, keys[g])
			}
			tab, ri.tab = ri.tab, flatTable{}
			parts[p] = ri
		}
	})
	seed := 1 // the empty record at 0
	if byOrdinal {
		seed = 0 // no group is empty
	}
	total, ords := seed, 0
	for _, part := range parts {
		total += len(part.arena)
		ords += len(part.at)
	}
	if total > multiVP {
		panic("core: a record arena holds at most 1<<31 items")
	}
	arena = make([]E, seed, total)
	if byOrdinal {
		at = make([]uint32, 0, ords)
	}
	for p, part := range parts {
		base := uint32(len(arena))
		if byOrdinal {
			base = uint32(len(at))
			for _, o := range part.at {
				at = append(at, uint32(len(arena))+o)
			}
		}
		for _, g := range bucket[start[p]:start[p+1]] {
			keys[g] += base
		}
		arena = append(arena, part.arena...)
	}
	return arena, at
}

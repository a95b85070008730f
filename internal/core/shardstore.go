package core

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"bgpintent/internal/bgp"
)

// ShardedTupleStore is a concurrency-safe TupleStore front: AddView
// hashes the path key to one of N shards, each an independent
// TupleStore behind its own mutex. A parallel MRT load goes through Load
// instead, which gives every shard one writing goroutine (see ShardLoad).
// Stitch collapses the shards into a single TupleStore whose contents —
// the set of tuples, paths, VP sets and larges — are the same whatever
// the worker count or goroutine scheduling; its layout (path IDs, tuple
// order) follows arrival order within each shard and is not.
//
// Because shard routing is a pure function of the path key, every
// observation of one path lands in the same shard, so per-shard
// deduplication is global deduplication: no cross-shard reconciliation
// is needed at stitch time.
//
// All shards' TupleStores share one storeInterns: groups and set records
// intern into lock-free global tables, so every set ref a shard writes
// is already valid in the stitched store and Stitch never moves
// community payload. Path ASN
// words stay in the shard's own asnArena, written under the shard lock;
// Stitch copies them once into the stitched arena.
//
// A view is hashed once, before its shard's writer sees it
// (storeInterns.prepare): outside the shard lock here, on the scanning
// goroutine's Feeder in a load. The hash leads straight to its tuple
// (addView), so a duplicate costs one probe, a content compare and a VP
// binary search.
type ShardedTupleStore struct {
	shards []tupleShard
	shift  uint // 64 - log2(len(shards)): the route hash's top bits pick the shard
	shared *storeInterns
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
		shared: newStoreInterns(),
	}
	for i := range s.shards {
		s.shards[i].ts = &TupleStore{shared: s.shared, large: make(map[bgp.LargeCommunity]struct{})}
	}
	return s
}

// AddView records one vantage-point observation without large
// communities; safe for concurrent use. See AddViewLarge.
func (s *ShardedTupleStore) AddView(vp uint32, path []uint32, comms bgp.Communities) {
	s.AddViewLarge(vp, path, comms, nil)
}

// AddViewLarge records one vantage-point observation; safe for
// concurrent use. Semantics match TupleStore.AddViewLarge: the larges
// count toward the distinct-large statistics even when the path is
// empty and no tuple results.
func (s *ShardedTupleStore) AddViewLarge(vp uint32, path []uint32, comms bgp.Communities, larges bgp.LargeCommunities) {
	if len(path) == 0 {
		s.NoteLarge(larges)
		return
	}
	sc := addScratchPool.Get().(*addScratch)
	s.add(vp, path, comms, larges, sc)
	addScratchPool.Put(sc)
}

// AddViewASPath is AddViewASPathLarge without large communities.
func (s *ShardedTupleStore) AddViewASPath(vp uint32, path bgp.ASPath, comms bgp.Communities) {
	s.AddViewASPathLarge(vp, path, comms, nil)
}

// AddViewASPathLarge is AddViewLarge taking the path as an
// un-flattened bgp.ASPath: the flattening happens into pooled scratch,
// so callers feeding decoded MRT attributes avoid the per-view
// []uint32 allocation of ASPath.Flatten.
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
	route, hp, h := s.shared.prepare(sc, comms, larges)
	sh := &s.shards[route>>s.shift]
	sh.mu.Lock()
	sh.ts.addView(vp, hp, h, sc)
	sh.mu.Unlock()
}

// NoteLarge records large communities that attach to no tuple (the
// view's path was empty); safe for concurrent use. Larges that do
// attach are recorded by the shard when their tuple is first inserted.
func (s *ShardedTupleStore) NoteLarge(ls bgp.LargeCommunities) {
	for _, lc := range ls {
		sh := &s.shards[hashLargeCommunity(lc)>>s.shift]
		sh.mu.Lock()
		sh.ts.large[lc] = struct{}{}
		sh.mu.Unlock()
	}
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

// loopedKey locates, in the ASN arena, the key words of one path that
// repeats an AS.
type loopedKey struct {
	id  int32
	key span
}

// pathKey returns a path's key: its ASN words with prepending
// collapsed, which identify the path. For a loop-free path — every path
// BGP loop prevention lets through — that is the distinct-ASN sequence
// the path stores anyway, so the key costs nothing. Only a path that
// repeats an AS apart (AS_SET flattening, poisoning: A B A, whose
// distinct ASNs are those of A B) keeps its key words in the arena as
// well, found through ts.loops.
func (ts *TupleStore) pathKey(id int32) []uint32 {
	if len(ts.loops) != 0 {
		i, ok := slices.BinarySearchFunc(ts.loops, id, func(l loopedKey, id int32) int { return cmp.Compare(l.id, id) })
		if ok {
			k := ts.loops[i].key
			return ts.asnArena[k.off : k.off+k.n]
		}
	}
	return ts.pathASNs(&ts.paths[id])
}

// addView is the write path for one prepared view:
// hashes hp (path) and h (identity), path key in sc.words, canonical set
// in sc.set; addView reads nothing else of sc. One probe of the
// tuple table finds the view's tuple if it exists, confirmed by comparing
// the path key and the set, group by group — identity is exact whatever
// the hash does. Only a miss goes on to the path table, the global group
// and set interns (whose refs Stitch carries over) and the appends; that
// is also the one moment the tuple's larges enter the distinct-large set.
func (ts *TupleStore) addView(vp uint32, hp, h uint64, sc *addScratch) {
	if ts.tupleTab.slots == nil {
		ts.reindex()
	}
	tab := &ts.tupleTab
	tag, mask := uint32(h>>32), uint32(len(tab.slots)-1)
	for i := tag >> tab.shift; tab.slots[i] != 0; i = (i + 1) & mask {
		s := tab.slots[i]
		if uint32(s>>32) != tag {
			continue
		}
		ti := int32(uint32(s) - 1)
		t := &ts.tuples[ti]
		if slices.Equal(ts.pathKey(t.PathID), sc.words) && sameSet(&ts.shared.groups, ts.setRecord(t), sc.set) {
			ts.addVP(ti, vp)
			return
		}
	}
	id := ts.internPath(hp, sc)
	sc.groupSet(&ts.shared.groups)
	set := ts.shared.sets.intern(sc.rec)
	_, larges := splitSet(sc.set)
	for ls := larges; len(ls) > 0; ls = ls[3:] {
		ts.large[bgp.LargeCommunity{GlobalAdmin: uint32(ls[0]), LocalData1: uint32(ls[1]), LocalData2: uint32(ls[2])}] = struct{}{}
		ts.largeTuples = true
	}
	tab.insert(h, len(ts.tuples))
	ts.tuples = append(ts.tuples, Tuple{PathID: id, set: set, vp: [1]uint32{vp}, nVP: 1})
}

// internPath returns the ID of the path with key sc.words and hash
// hp, creating the entry if new: IDs are handed out in arrival order, and
// the distinct-ASN sequence goes into the store's own ASN arena. The key
// words follow it there only when they are not that same sequence.
func (ts *TupleStore) internPath(hp uint64, sc *addScratch) int32 {
	tab := &ts.pathTab
	tag, mask := uint32(hp>>32), uint32(len(tab.slots)-1)
	for i := tag >> tab.shift; tab.slots[i] != 0; i = (i + 1) & mask {
		s := tab.slots[i]
		if id := int32(uint32(s) - 1); uint32(s>>32) == tag && slices.Equal(ts.pathKey(id), sc.words) {
			return id
		}
	}
	id := int32(len(ts.paths))
	tab.insert(hp, int(id))
	asns := ts.appendPathASNs(sc.words)
	ts.paths = append(ts.paths, pathMeta{asns: asns})
	if key := uint32(len(sc.words)); asns.n != key {
		ts.loops = append(ts.loops, loopedKey{id: id, key: span{off: uint32(len(ts.asnArena)), n: key}})
		ts.asnArena = append(ts.asnArena, sc.words...)
	}
	return id
}

// reindex builds the tables from the columnar data. A stitched
// store arrives without them — readers never need them, and building
// them eagerly would put a serial pass back into the load path — so the
// first post-stitch AddView pays for them; so does a fresh store's. That
// includes the intern tables Stitch released: every set record a tuple
// refers to re-enters under the ref the tuple carries, and the groups of
// each record that re-entered under the refs it carries. The tuple
// table hashes the canonical set, so each record is expanded once.
func (ts *TupleStore) reindex() {
	ts.pathTab = newFlatTable(len(ts.paths))
	ts.tupleTab = newFlatTable(len(ts.tuples))
	sc := new(addScratch)
	for i := range ts.paths {
		sc.words = ts.pathKey(int32(i))
		_, hp, _ := ts.shared.hashView(sc)
		ts.pathTab.insert(hp, i)
	}
	for i := range ts.tuples {
		t := &ts.tuples[i]
		rec := ts.setRecord(t)
		sc.words, sc.set = ts.pathKey(t.PathID), appendExpanded(sc.set[:0], &ts.shared.groups, rec)
		_, _, h := ts.shared.hashView(sc)
		ts.tupleTab.insert(h, i)
		if ts.shared.sets.adopt(t.set) {
			for _, g := range rec[1:] {
				ts.shared.groups.adopt(uint32(g))
			}
		}
	}
}

// Len returns the number of unique tuples across all shards; safe for
// concurrent use.
func (s *ShardedTupleStore) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.ts.Len()
		sh.mu.Unlock()
	}
	return n
}

// Stitch collapses the shards into one TupleStore in O(n) index work, no
// comparison sort and no community payload moved: set refs already
// address the shared set intern's arena, and group refs the group
// intern's. Per shard, into disjoint pre-sized regions of the output:
//   - a path's global ID is the shard's offset plus its arrival ID;
//   - the shard's ASN words are copied at the shard's offset in one
//     exactly sized arena, and path and looped-key spans rebased onto it;
//   - tuples are counting-sorted by path ID, so stitched tuples are
//     non-decreasing in PathID and Observe walks them as they lie;
//   - VP lists of more than one are copied at capacity nextPow2(length).
//
// The per-shard work runs on up to workers goroutines (<= 0 means
// GOMAXPROCS); the regions are disjoint, so it needs no locks, and the
// layout is a function of the shards alone — what they hold and the
// order it arrived in — not of workers. What they hold is the same for
// any number of writers (routing is a pure function of the path key);
// the arrival order, hence path IDs and tuple order, is not. No output
// depends on that order: every reader sums, counts or sorts what it
// reads.
//
// The stitched store takes ownership of the shard contents and the
// shared storage; the sharded store must not be used afterwards. It
// holds what readers read and nothing else: the shards' lookup tables
// and ASN arenas die with the shards, the interns' hash tables — which
// only an insert probes — are released, and all of them are rebuilt
// lazily on the first AddView (reindex), so pure readers (Observe,
// snapshot write) never pay for them. Nothing carries growth slack beyond the one
// rule: a VP list of more than one keeps its capacity nextPow2(length),
// so post-stitch AddViews grow it as any other, and the intern arenas'
// newest chunks are trimmed to their fills, to be re-grown if views
// arrive.
func (s *ShardedTupleStore) Stitch(workers int) *TupleStore {
	n := len(s.shards)
	tupleOff := make([]int, n+1)
	pathOff := make([]int, n+1)
	vpOff := make([]int, n+1)
	loopOff := make([]int, n+1)
	asnOff := make([]int, n+1)
	large := make(map[bgp.LargeCommunity]struct{})
	largeTuples := false
	for i := range s.shards {
		ts := s.shards[i].ts
		nVPs := 0
		for j := range ts.tuples {
			if n := ts.tuples[j].nVP; n > 1 {
				nVPs += int(nextPow2(n))
			}
		}
		largeTuples = largeTuples || ts.largeTuples
		tupleOff[i+1] = tupleOff[i] + len(ts.tuples)
		pathOff[i+1] = pathOff[i] + len(ts.paths)
		vpOff[i+1] = vpOff[i] + nVPs
		loopOff[i+1] = loopOff[i] + len(ts.loops)
		asnOff[i+1] = asnOff[i] + len(ts.asnArena)
		for lc := range ts.large {
			large[lc] = struct{}{}
		}
	}
	out := &TupleStore{
		shared:      s.shared,
		tuples:      make([]Tuple, tupleOff[n]),
		paths:       make([]pathMeta, pathOff[n]),
		asnArena:    make([]uint32, asnOff[n]),
		vpArena:     make([]uint32, vpOff[n]),
		loops:       make([]loopedKey, loopOff[n]),
		large:       large,
		largeTuples: largeTuples,
	}
	ParallelFor(workers, n, func(i int) {
		ts := s.shards[i].ts
		idBase, asnBase := int32(pathOff[i]), uint32(asnOff[i])
		copy(out.asnArena[asnBase:], ts.asnArena)
		for j, p := range ts.paths {
			p.asns.off += asnBase
			out.paths[pathOff[i]+j] = p
		}
		// A shard appends a looped key as it creates the path, so its loops
		// are already ascending by ID.
		for j, l := range ts.loops {
			l.id += idBase
			l.key.off += asnBase
			out.loops[loopOff[i]+j] = l
		}
		order, _ := countingSort(len(ts.tuples), len(ts.paths), func(j int) int32 { return ts.tuples[j].PathID })
		vpCur := uint32(vpOff[i])
		for j, ti := range order {
			t := ts.tuples[ti]
			if t.nVP > 1 {
				copy(out.vpArena[vpCur:], ts.TupleVPs(&ts.tuples[ti]))
				t.vp[0] = vpCur
				vpCur += nextPow2(t.nVP)
			}
			t.PathID += idBase
			out.tuples[tupleOff[i]+j] = t
		}
	})
	sh := s.shared
	sh.owner = out
	for _, li := range []*listIntern{&sh.sets, &sh.groups} {
		li.release()
		li.arena.trim()
	}
	return out
}

// splitmix64 is the splitmix64 finalizer, used to spread large-community
// values across shards.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

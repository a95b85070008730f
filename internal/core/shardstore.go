package core

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"bgpintent/internal/bgp"
)

// ShardedTupleStore is the parallel load's TupleStore front:
// AddViewASPathLarge hashes the path key to one of N shards, each an
// independent TupleStore behind its own mutex, and a parallel MRT load
// goes through Load, which gives every shard one writing goroutine (see
// ShardLoad). Stitch collapses the shards into a single read-only
// TupleStore whose contents — the set of tuples, paths, VP sets and
// larges — are the same whatever the worker count or goroutine
// scheduling; its layout (path IDs, tuple order) follows arrival order
// within each shard and is not.
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
		shared: newStoreInterns(),
	}
	for i := range s.shards {
		s.shards[i].ts = newStore(s.shared)
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
	route, hp, h := s.shared.prepare(sc, comms, larges)
	sh := &s.shards[route>>s.shift]
	sh.mu.Lock()
	sh.ts.addView(vp, hp, h, sc)
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

// loopedKey locates, in the store's loopWords, the key words of one path
// that repeats an AS.
type loopedKey struct {
	id  int32
	key span
}

// pathKey returns a path's key: its ASN words with prepending
// collapsed, which identify the path. For a loop-free path — every path
// BGP loop prevention lets through — that is the distinct-ASN sequence
// the path stores anyway, so the key costs nothing. Only a path that
// repeats an AS apart (AS_SET flattening, poisoning: A B A, whose
// distinct ASNs are those of A B) keeps its key words as well, in
// loopWords, found through ts.loops.
func (ts *TupleStore) pathKey(id int32) []uint32 {
	if len(ts.loops) != 0 {
		i, ok := slices.BinarySearchFunc(ts.loops, id, func(l loopedKey, id int32) int { return cmp.Compare(l.id, id) })
		if ok {
			k := ts.loops[i].key
			return ts.loopWords[k.off : k.off+k.n]
		}
	}
	return ts.pathASNs(id)
}

// addView is the write path for one prepared view:
// hashes hp (path) and h (identity), path key in sc.words, canonical set
// in sc.set; addView reads nothing else of sc. One probe of the
// tuple table finds the view's tuple if it exists, confirmed by comparing
// the path key and the set, group by group — identity is exact whatever
// the hash does. Only a miss goes on to the path table, the global group
// and set interns (whose refs Stitch carries over) and the appends.
func (ts *TupleStore) addView(vp uint32, hp, h uint64, sc *addScratch) {
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
	if sc.set[0]>>16 != 0 { // the set's header counts its larges
		ts.largeTuples = true
	}
	tab.insert(h, len(ts.tuples))
	ts.tuples = append(ts.tuples, Tuple{PathID: id, set: set, vp: [1]uint32{vp}})
}

// internPath returns the ID of the path with key sc.words and hash
// hp, creating the entry if new: IDs are handed out in arrival order, and
// the distinct-ASN sequence goes into the store's own ASN arena. The key
// words go to loopWords only when they are not that same sequence.
func (ts *TupleStore) internPath(hp uint64, sc *addScratch) int32 {
	tab := &ts.pathTab
	tag, mask := uint32(hp>>32), uint32(len(tab.slots)-1)
	for i := tag >> tab.shift; tab.slots[i] != 0; i = (i + 1) & mask {
		s := tab.slots[i]
		if id := int32(uint32(s) - 1); uint32(s>>32) == tag && slices.Equal(ts.pathKey(id), sc.words) {
			return id
		}
	}
	id := int32(len(ts.pathEnd))
	tab.insert(hp, int(id))
	ts.appendPath(sc.words)
	if key := len(sc.words); len(ts.pathASNs(id)) != key {
		ts.loops = append(ts.loops, loopedKey{id: id, key: span{off: uint32(len(ts.loopWords)), n: uint32(key)}})
		ts.loopWords = append(ts.loopWords, sc.words...)
	}
	return id
}

// Stitch collapses the shards into one read-only TupleStore in O(n)
// index work, no comparison sort and no community payload moved: set
// refs already address the shared set intern's arena, and group refs the
// group intern's. Per shard, into disjoint pre-sized regions of the
// output:
//   - a path's global ID is the shard's offset plus its arrival ID;
//   - the shard's ASN words are copied at the shard's offset in one
//     exactly sized arena, and its path ends rebased onto it; its looped
//     keys likewise, at its offset in the looped-key words;
//   - tuples are counting-sorted by path ID, so stitched tuples are
//     non-decreasing in PathID and Observe walks them as they lie;
//   - VP lists of more than one are copied as their count word and their
//     VPs.
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
// The stitched store takes ownership of the shard contents, the shared
// storage and the noted larges; the sharded store must not be used
// afterwards. It holds what readers read and nothing else, with no
// growth slack: the shards' lookup tables and ASN arenas die with the
// shards, the interns' hash tables, which only an insert probes, are
// released, and the intern arenas' newest chunks are trimmed to their
// fills. Without tables it takes no views (AddViewLarge panics).
func (s *ShardedTupleStore) Stitch(workers int) *TupleStore {
	n := len(s.shards)
	tupleOff := make([]int, n+1)
	pathOff := make([]int, n+1)
	vpOff := make([]int, n+1)
	loopOff := make([]int, n+1)
	loopWordOff := make([]int, n+1)
	asnOff := make([]int, n+1)
	largeTuples := false
	for i := range s.shards {
		ts := s.shards[i].ts
		nVPs := 0
		for j := range ts.tuples {
			if t := &ts.tuples[j]; t.set&multiVP != 0 {
				nVPs += 1 + int(ts.vpArena[t.vp[0]])
			}
		}
		largeTuples = largeTuples || ts.largeTuples
		tupleOff[i+1] = tupleOff[i] + len(ts.tuples)
		pathOff[i+1] = pathOff[i] + len(ts.pathEnd)
		vpOff[i+1] = vpOff[i] + nVPs
		loopOff[i+1] = loopOff[i] + len(ts.loops)
		loopWordOff[i+1] = loopWordOff[i] + len(ts.loopWords)
		asnOff[i+1] = asnOff[i] + len(ts.asnArena)
	}
	out := &TupleStore{
		shared:      s.shared,
		tuples:      make([]Tuple, tupleOff[n]),
		pathEnd:     make([]uint32, pathOff[n]),
		asnArena:    make([]uint32, asnOff[n]),
		vpArena:     make([]uint32, vpOff[n]),
		loops:       make([]loopedKey, loopOff[n]),
		loopWords:   make([]uint32, loopWordOff[n]),
		largeTuples: largeTuples,
		noted:       s.noted,
	}
	ParallelFor(workers, n, func(i int) {
		ts := s.shards[i].ts
		idBase, asnBase, wordBase := int32(pathOff[i]), uint32(asnOff[i]), uint32(loopWordOff[i])
		copy(out.asnArena[asnBase:], ts.asnArena)
		for j, end := range ts.pathEnd {
			out.pathEnd[pathOff[i]+j] = end + asnBase
		}
		// A shard appends a looped key as it creates the path, so its loops
		// are already ascending by ID.
		copy(out.loopWords[wordBase:], ts.loopWords)
		for j, l := range ts.loops {
			l.id += idBase
			l.key.off += wordBase
			out.loops[loopOff[i]+j] = l
		}
		order, _ := countingSort(len(ts.tuples), len(ts.pathEnd), func(j int) int32 { return ts.tuples[j].PathID })
		vpCur := uint32(vpOff[i])
		for j, ti := range order {
			t := ts.tuples[ti]
			if t.set&multiVP != 0 {
				vps := ts.TupleVPs(&t)
				out.vpArena[vpCur] = uint32(len(vps))
				copy(out.vpArena[vpCur+1:], vps)
				t.vp[0] = vpCur
				vpCur += 1 + uint32(len(vps))
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

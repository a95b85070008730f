package core

import (
	"slices"
	"strings"
	"sync"

	"bgpintent/internal/bgp"
)

// ShardedTupleStore is a concurrency-safe TupleStore front: AddView
// hashes the path key to one of N shards, each an independent
// TupleStore behind its own mutex, so parallel MRT workers ingest
// without contending on one lock. Stitch collapses the shards into a
// single canonical TupleStore whose contents are deterministic — the
// same input views produce a byte-identical store regardless of worker
// count or goroutine scheduling.
//
// Because shard routing is a pure function of the path key, every
// observation of one path lands in the same shard, so per-shard
// deduplication is global deduplication: no cross-shard reconciliation
// is needed at stitch time.
//
// All shards run their TupleStores in shared-storage mode against one
// storeShared: community lists intern into one lock-free global table
// and path ASN sequences land in one globally addressed arena, so
// every span a shard writes is already valid in the stitched store and
// Stitch moves only index-sized data (tuple records, path metas, VP
// lists) — never community or ASN payloads.
type ShardedTupleStore struct {
	shards []tupleShard
	mask   uint64
	shared *storeShared
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
		mask:   uint64(size - 1),
		shared: &storeShared{},
	}
	for i := range s.shards {
		ts := NewTupleStore()
		ts.shared = s.shared
		s.shards[i].ts = ts
	}
	return s
}

// Shards returns the shard count.
func (s *ShardedTupleStore) Shards() int { return len(s.shards) }

// AddView records one vantage-point observation without large
// communities; safe for concurrent use. See AddViewLarge.
func (s *ShardedTupleStore) AddView(vp uint32, path []uint32, comms bgp.Communities) {
	s.AddViewLarge(vp, path, comms, nil)
}

// AddViewLarge records one vantage-point observation; safe for
// concurrent use. Semantics match TupleStore.AddViewLarge: the larges
// are noted into the distinct-large statistics even when the path is
// empty and no tuple results.
func (s *ShardedTupleStore) AddViewLarge(vp uint32, path []uint32, comms bgp.Communities, larges bgp.LargeCommunities) {
	s.NoteLarge(larges)
	if len(path) == 0 {
		return
	}
	sc := addScratchPool.Get().(*addScratch)
	sc.key = appendPathKey(sc.key[:0], path)
	sh := &s.shards[hashKey(sc.key)&s.mask]
	sh.mu.Lock()
	sh.ts.addViewKeyed(vp, sc.key, path, comms, larges, sc)
	sh.mu.Unlock()
	addScratchPool.Put(sc)
}

// AddViewASPath is AddViewASPathLarge without large communities.
func (s *ShardedTupleStore) AddViewASPath(vp uint32, path bgp.ASPath, comms bgp.Communities) {
	s.AddViewASPathLarge(vp, path, comms, nil)
}

// AddViewASPathLarge is AddViewLarge taking the path as an
// un-flattened bgp.ASPath: the flattening happens into pooled scratch,
// so callers feeding decoded MRT attributes avoid the per-view
// []uint32 allocation of ASPath.Flatten. Larges are noted before the
// empty-path early return, so the distinct-large count matches the
// sequential loader's.
func (s *ShardedTupleStore) AddViewASPathLarge(vp uint32, path bgp.ASPath, comms bgp.Communities, larges bgp.LargeCommunities) {
	s.NoteLarge(larges)
	sc := addScratchPool.Get().(*addScratch)
	sc.flat = path.AppendFlatten(sc.flat[:0])
	if len(sc.flat) == 0 {
		addScratchPool.Put(sc)
		return
	}
	sc.key = appendPathKey(sc.key[:0], sc.flat)
	sh := &s.shards[hashKey(sc.key)&s.mask]
	sh.mu.Lock()
	sh.ts.addViewKeyed(vp, sc.key, sc.flat, comms, larges, sc)
	sh.mu.Unlock()
	addScratchPool.Put(sc)
}

// NoteLarge records large communities; safe for concurrent use.
func (s *ShardedTupleStore) NoteLarge(ls bgp.LargeCommunities) {
	for _, lc := range ls {
		sh := &s.shards[hashLargeCommunity(lc)&s.mask]
		sh.mu.Lock()
		sh.ts.large[lc] = struct{}{}
		sh.mu.Unlock()
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

// Stitch collapses the shards into one canonical TupleStore without
// moving any community or ASN payload: every shard span already points
// into the shared cross-shard storage, so stitching is index work —
// renumber each shard's paths, in key order, into a contiguous global
// range, lay its tuples out in (path key, communities, larges) order,
// and copy the tuple records, path metas, and VP lists into disjoint
// pre-sized regions of the output. Stitched tuples are therefore
// non-decreasing in PathID, which lets Observe walk them as they lie.
// Shards are laid out in index order, and each is sorted by
// content, so the result is deterministic — the same input views
// produce a byte-identical store regardless of worker count or
// goroutine scheduling (shard routing is content-hashed, so shard
// membership itself never depends on scheduling). The per-shard work
// runs on up to workers goroutines (<= 0 means GOMAXPROCS): the
// regions are disjoint, so the phase parallelizes without locks.
//
// The stitched store takes ownership of the shard contents and the
// shared storage; the sharded store must not be used afterwards. Its
// lookup maps are left nil and rebuilt lazily on the first AddView —
// pure readers (Observe, snapshot write) never pay for them. VP lists
// are copied compacted (capacity == length), so the stitched store
// carries none of the shards' growth slack.
func (s *ShardedTupleStore) Stitch(workers int) *TupleStore {
	n := len(s.shards)
	tupleOff := make([]int, n+1)
	pathOff := make([]int, n+1)
	vpOff := make([]int, n+1)
	large := make(map[bgp.LargeCommunity]struct{})
	for i := range s.shards {
		ts := s.shards[i].ts
		nVPs := 0
		for j := range ts.tuples {
			nVPs += int(ts.tuples[j].vpLen)
		}
		tupleOff[i+1] = tupleOff[i] + len(ts.tuples)
		pathOff[i+1] = pathOff[i] + len(ts.paths)
		vpOff[i+1] = vpOff[i] + nVPs
		for lc := range ts.large {
			large[lc] = struct{}{}
		}
	}
	out := &TupleStore{
		shared:   s.shared,
		tuples:   make([]Tuple, tupleOff[n]),
		paths:    make([]pathMeta, pathOff[n]),
		pathKeys: make([]string, pathOff[n]),
		vpArena:  make([]uint32, vpOff[n]),
		large:    large,
	}
	ParallelFor(workers, n, func(i int) {
		ts := s.shards[i].ts
		// Paths get their global IDs in ascending path-key order.
		porder := make([]int32, len(ts.paths))
		for j := range porder {
			porder[j] = int32(j)
		}
		slices.SortFunc(porder, func(a, b int32) int {
			return strings.Compare(ts.pathKeys[a], ts.pathKeys[b])
		})
		rank := make([]int32, len(ts.paths))
		for r, old := range porder {
			id := pathOff[i] + r
			rank[old] = int32(r)
			out.paths[id] = ts.paths[old]
			out.pathKeys[id] = ts.pathKeys[old]
		}
		// Tuples follow their path's rank, so only the few tuples of one
		// path are left to order among themselves.
		order, end := countingSort(len(ts.tuples), len(ts.paths), func(j int) int32 {
			return rank[ts.tuples[j].PathID]
		})
		byPayload := func(a, b int32) int {
			ta, tb := &ts.tuples[a], &ts.tuples[b]
			if c := slices.Compare(ts.TupleComms(ta), ts.TupleComms(tb)); c != 0 {
				return c
			}
			return slices.CompareFunc(ts.TupleLarges(ta), ts.TupleLarges(tb), bgp.LargeCommunity.Compare)
		}
		lo := int32(0)
		for _, hi := range end {
			slices.SortFunc(order[lo:hi], byPayload)
			lo = hi
		}
		vpCur := uint32(vpOff[i])
		for j, ti := range order {
			t := &ts.tuples[ti]
			vps := ts.TupleVPs(t)
			copy(out.vpArena[vpCur:], vps)
			out.tuples[tupleOff[i]+j] = Tuple{
				PathID: int32(pathOff[i]) + rank[t.PathID],
				comms:  t.comms,
				lcomms: t.lcomms,
				vpOff:  vpCur, vpLen: uint32(len(vps)), vpCap: uint32(len(vps)),
			}
			vpCur += uint32(len(vps))
		}
	})
	return out
}

// Merge collapses the shards into one canonical TupleStore.
//
// Deprecated: Merge is the old name for the stitch phase; it now
// delegates to Stitch with default (GOMAXPROCS) parallelism.
func (s *ShardedTupleStore) Merge() *TupleStore {
	return s.Stitch(0)
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

package core

// Shared cross-shard storage for the parallel load path. A
// ShardedTupleStore used to give every shard its own community and ASN
// arenas, which forced Merge to copy and re-intern everything through
// one goroutine — the serialization that made parallel loads slower
// than sequential. Instead the shards now share two global structures:
//
//   - a community intern table (commIntern): canonical community lists
//     are deduplicated globally and stored once in a chunked arena, so a
//     tuple's comms span is already global and Stitch moves no
//     community data. Reads are lock-free (atomic table pointer,
//     CAS-free probing of atomically published slots); inserts take one
//     mutex. A shard asks it for a ref only when it inserts a new tuple
//     — duplicates are recognized by the shard's own table first (see
//     addViewShared).
//   - a shared ASN arena (sharedArena[uint32]): each shard appends its
//     new paths' distinct-ASN sequences into globally addressed chunks,
//     so path spans are global too and Stitch moves no ASN data either.
//     (Paths shard by path key, so there is no cross-shard ASN-sequence
//     duplication to dedup — sharing the arena is purely about making
//     the spans stitchable.)
//
// Memory-model argument for the lock-free read path: an inserter, while
// holding the intern mutex, (1) publishes any new arena chunk through
// an atomic pointer, (2) writes the list values into the chunk, and
// (3) atomically stores the packed slot last. A reader that observes
// the slot value (atomic load) therefore observes the chunk pointer and
// the values written before it, per the Go memory model. Readers that
// miss (stale table or empty slot) fall back to the mutex and re-probe.

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"bgpintent/internal/bgp"
)

// Arena chunks hold up to 1<<20 elements each; a span's 32-bit offset
// packs the chunk index above the in-chunk position, so the global
// capacity stays the 4G entries the span layout already assumed. Lists
// never span chunks (BGP attribute lengths cap lists far below a chunk).
// The newest chunk starts at arenaMinChunk elements and doubles up to
// the full size, so a small corpus does not pay for full chunks.
const (
	internChunkShift = 20
	internChunkSize  = 1 << internChunkShift
	internChunkMask  = internChunkSize - 1
	internMaxChunks  = 1 << (32 - internChunkShift)
	arenaMinChunk    = 1 << 12
)

// sharedArena is a concurrently appendable, globally addressed arena:
// appends reserve a contiguous region under a mutex, reads resolve a
// (offset, length) span lock-free at any time.
type sharedArena[T any] struct {
	chunks atomic.Pointer[[][]T]
	mu     sync.Mutex
	fill   int // elements used in the newest chunk (guarded by mu)
}

// append copies vals into the arena and returns the global offset of
// the copy. The written values are visible to any reader that acquired
// the offset through a properly published location (see the package
// comment); callers that hand the offset to another goroutine through
// a mutex or channel are covered by those primitives instead.
//
// The chunk list is copy-on-write: adding a chunk and growing the
// newest one both publish a fresh list before any value lands in the
// new storage. A grown chunk starts as a copy of its predecessor, which
// is never written again, so a reader holding the old list resolves
// every offset it can know to the same values.
func (a *sharedArena[T]) append(vals []T) uint32 {
	n := len(vals)
	if n > internChunkSize {
		panic("core: arena list exceeds chunk size")
	}
	a.mu.Lock()
	var chunks [][]T
	if p := a.chunks.Load(); p != nil {
		chunks = *p
	}
	nc := len(chunks)
	switch {
	case nc == 0 || a.fill+n > internChunkSize:
		if nc >= internMaxChunks {
			panic("core: shared arena full")
		}
		chunks = append(chunks[:nc:nc], make([]T, arenaChunkLen(n)))
		nc++
		a.fill = 0
		a.publish(chunks)
	case a.fill+n > len(chunks[nc-1]):
		grown := make([]T, arenaChunkLen(a.fill+n))
		copy(grown, chunks[nc-1][:a.fill])
		chunks = slices.Clone(chunks)
		chunks[nc-1] = grown
		a.publish(chunks)
	}
	off := uint32(nc-1)<<internChunkShift | uint32(a.fill)
	copy(chunks[nc-1][a.fill:], vals)
	a.fill += n
	a.mu.Unlock()
	return off
}

// publish makes a new chunk list the one readers see (its own method,
// so only a list being published is moved to the heap).
func (a *sharedArena[T]) publish(chunks [][]T) { a.chunks.Store(&chunks) }

// arenaChunkLen is the smallest doubling of arenaMinChunk that holds
// need elements.
func arenaChunkLen(need int) int {
	return arenaMinChunk << bits.Len(uint(max(need, 1)-1)/arenaMinChunk)
}

// view resolves a span into the arena. Zero-length spans return nil.
func (a *sharedArena[T]) view(off, n uint32) []T {
	if n == 0 {
		return nil
	}
	chunks := *a.chunks.Load()
	c := chunks[off>>internChunkShift]
	i := off & internChunkMask
	return c[i : i+n : i+n]
}

// commTable is one generation of the intern hash table: open-addressed,
// linear probing, power-of-two sized. A slot holds the packed span of
// one interned list plus one (so zero means empty); slots are written
// atomically exactly once.
type commTable struct {
	mask  uint64
	slots []atomic.Uint64
}

// packRef packs an arena span into the intern reference: offset in the
// high 32 bits, length in the low 32. The empty list is ref 0.
func packRef(off, n uint32) uint64 { return uint64(off)<<32 | uint64(n) }

func unpackRef(ref uint64) (off, n uint32) { return uint32(ref >> 32), uint32(ref) }

// lookup probes for a list with the given hash and content, returning
// its ref. Lock-free; may miss entries inserted into a newer table.
func (t *commTable) lookup(h uint64, canon bgp.Communities, arena *sharedArena[bgp.Community]) (uint64, bool) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i].Load()
		if s == 0 {
			return 0, false
		}
		ref := s - 1
		off, n := unpackRef(ref)
		if int(n) == len(canon) && commsEqual(arena.view(off, n), canon) {
			return ref, true
		}
	}
}

// insert publishes ref into the first empty slot of its probe chain.
// Callers hold the intern mutex.
func (t *commTable) insert(h uint64, ref uint64) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		if t.slots[i].Load() == 0 {
			t.slots[i].Store(ref + 1)
			return
		}
	}
}

// commIntern globally deduplicates canonical community lists across all
// shards of a ShardedTupleStore. The returned refs are exact identities
// — the same canonical list always gets the same ref — and double as
// the tuple's globally addressed comms span. Ref values depend on
// arrival order and are NOT stable across runs; everything derived from
// them must go through the list content (and does: shards compare
// content, Stitch orders by content, snapshots and TSV render content).
type commIntern struct {
	arena sharedArena[bgp.Community]
	table atomic.Pointer[commTable]
	mu    sync.Mutex
	count int // live entries (guarded by mu)
}

// intern returns the ref of canon, inserting it on first sight. The hit
// path is lock-free and allocation-free; canon may be reused by the
// caller (the arena keeps its own copy).
func (ci *commIntern) intern(canon bgp.Communities) uint64 {
	if len(canon) == 0 {
		return 0
	}
	h := hashComms(canon)
	if t := ci.table.Load(); t != nil {
		if ref, ok := t.lookup(h, canon, &ci.arena); ok {
			return ref
		}
	}
	ci.mu.Lock()
	defer ci.mu.Unlock()
	t := ci.table.Load()
	if t != nil {
		// Re-probe the latest table: another shard may have inserted the
		// list between our lock-free miss and taking the mutex.
		if ref, ok := t.lookup(h, canon, &ci.arena); ok {
			return ref
		}
	}
	if t == nil || uint64(ci.count+1)*4 > 3*(t.mask+1) {
		t = ci.grow(t)
	}
	off := ci.arena.append(canon)
	ref := packRef(off, uint32(len(canon)))
	t.insert(h, ref)
	ci.count++
	return ref
}

// view resolves a ref back to its list (shared storage; do not mutate).
func (ci *commIntern) view(off, n uint32) bgp.Communities {
	return ci.arena.view(off, n)
}

// grow publishes a table of at least double the capacity with every
// existing entry rehashed into it. Holding the mutex keeps insertions
// out; lock-free readers keep probing the old table (every entry they
// could have seen is in both) until the pointer swap lands.
func (ci *commIntern) grow(old *commTable) *commTable {
	size := uint64(1024)
	if old != nil {
		size = 2 * (old.mask + 1)
	}
	nt := &commTable{mask: size - 1, slots: make([]atomic.Uint64, size)}
	if old != nil {
		for i := range old.slots {
			s := old.slots[i].Load()
			if s == 0 {
				continue
			}
			off, n := unpackRef(s - 1)
			nt.insert(hashComms(ci.arena.view(off, n)), s-1)
		}
	}
	ci.table.Store(nt)
	return nt
}

// largeTable is one generation of the large-community intern hash
// table, the RFC 8092 sibling of commTable: open-addressed, linear
// probing, slots written atomically exactly once.
type largeTable struct {
	mask  uint64
	slots []atomic.Uint64
}

// lookup probes for a large list with the given hash and content,
// returning its ref. Lock-free; may miss entries inserted into a newer
// table.
func (t *largeTable) lookup(h uint64, canon bgp.LargeCommunities, arena *sharedArena[bgp.LargeCommunity]) (uint64, bool) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i].Load()
		if s == 0 {
			return 0, false
		}
		ref := s - 1
		off, n := unpackRef(ref)
		if int(n) == len(canon) && largesEqual(arena.view(off, n), canon) {
			return ref, true
		}
	}
}

// insert publishes ref into the first empty slot of its probe chain.
// Callers hold the intern mutex.
func (t *largeTable) insert(h uint64, ref uint64) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		if t.slots[i].Load() == 0 {
			t.slots[i].Store(ref + 1)
			return
		}
	}
}

// largeIntern globally deduplicates canonical large-community lists,
// giving the RFC 8092 community key the same exact interned identity
// the classic key has: the same canonical large list always gets the
// same ref. Refs depend on arrival order and are NOT stable across
// runs; everything derived from them goes through the list content.
type largeIntern struct {
	arena sharedArena[bgp.LargeCommunity]
	table atomic.Pointer[largeTable]
	mu    sync.Mutex
	count int // live entries (guarded by mu)
}

// intern returns the ref of canon, inserting it on first sight. The
// hit path is lock-free and allocation-free; canon may be reused by
// the caller (the arena keeps its own copy).
func (li *largeIntern) intern(canon bgp.LargeCommunities) uint64 {
	if len(canon) == 0 {
		return 0
	}
	h := hashLarges(canon)
	if t := li.table.Load(); t != nil {
		if ref, ok := t.lookup(h, canon, &li.arena); ok {
			return ref
		}
	}
	li.mu.Lock()
	defer li.mu.Unlock()
	t := li.table.Load()
	if t != nil {
		if ref, ok := t.lookup(h, canon, &li.arena); ok {
			return ref
		}
	}
	if t == nil || uint64(li.count+1)*4 > 3*(t.mask+1) {
		t = li.grow(t)
	}
	off := li.arena.append(canon)
	ref := packRef(off, uint32(len(canon)))
	t.insert(h, ref)
	li.count++
	return ref
}

// view resolves a ref back to its list (shared storage; do not mutate).
func (li *largeIntern) view(off, n uint32) bgp.LargeCommunities {
	return li.arena.view(off, n)
}

// grow publishes a table of at least double the capacity with every
// existing entry rehashed into it; see commIntern.grow.
func (li *largeIntern) grow(old *largeTable) *largeTable {
	size := uint64(1024)
	if old != nil {
		size = 2 * (old.mask + 1)
	}
	nt := &largeTable{mask: size - 1, slots: make([]atomic.Uint64, size)}
	if old != nil {
		for i := range old.slots {
			s := old.slots[i].Load()
			if s == 0 {
				continue
			}
			off, n := unpackRef(s - 1)
			nt.insert(hashLarges(li.arena.view(off, n)), s-1)
		}
	}
	li.table.Store(nt)
	return nt
}

// storeShared bundles the cross-shard structures one ShardedTupleStore
// hands to all its shard TupleStores (and to the stitched output).
type storeShared struct {
	comms  commIntern
	larges largeIntern
	asns   sharedArena[uint32]

	// seed starts every table hash (never the routing hash), so which
	// views share a probe chain cannot be computed from outside the
	// process — the protection Go's seeded maps used to give.
	seed uint64
	// collide zeroes every table hash, so all views share one probe
	// chain: tests set it to show content, not the hash, decides identity.
	collide bool
}

// prepare readies one view, whose path key is already rendered into
// sc.key, for a shard: it canonicalizes both lists into sc and hashes
// the identity. route picks the shard, hp tags the path in the shard's
// path table, h tags the whole identity in its tuple table.
func (sh *storeShared) prepare(sc *addScratch, comms bgp.Communities, larges bgp.LargeCommunities) (route, hp, h uint64) {
	sc.comms = canonicalInto(sc.comms, comms)
	sc.larges = canonicalLargeInto(sc.larges, larges)
	route, hp = hashPathKey(sc.key, sh.seed)
	h = hashLists(hp, sc.comms, sc.larges)
	if sh.collide {
		hp, h = 0, 0
	}
	return route, hp, h
}

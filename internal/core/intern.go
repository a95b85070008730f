package core

// Shared cross-shard storage for the parallel load path. A
// ShardedTupleStore used to give every shard its own community and ASN
// arenas, which forced Merge to copy and re-intern everything through
// one goroutine — the serialization that made parallel loads slower
// than sequential. Instead the shards now share two global structures:
//
//   - an intern table per community kind (listIntern): canonical lists
//     are deduplicated globally and stored once in a chunked arena, so a
//     tuple's comms span is already global and Stitch moves no
//     community data. Reads are lock-free (atomic table pointer,
//     CAS-free probing of atomically published slots); inserts take one
//     mutex. A shard asks it for a ref only when it inserts a new tuple
//     — duplicates are recognized by the shard's own table first (see
//     addViewShared).
//   - a shared ASN arena (sharedArena[uint32]): each shard appends its
//     new paths' distinct-ASN sequences (and, for the rare path that
//     repeats an AS, its key words) into globally addressed chunks, so
//     path spans are global too and Stitch moves no ASN data either.
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
	"math/rand/v2"
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
// (offset, length) span lock-free at any time. A chunk that has been
// succeeded is as long as its fill; the newest is as long as its
// reservation, with fill saying how much of it is used.
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
		chunks = append(make([][]T, 0, nc+1), chunks...)
		if nc > 0 {
			chunks[nc-1] = chunks[nc-1][:a.fill]
		}
		chunks = append(chunks, make([]T, arenaChunkLen(n)))
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

// empty reports whether nothing was ever appended.
func (a *sharedArena[T]) empty() bool { return a.chunks.Load() == nil }

// trim reallocates the newest chunk at exactly its fill, releasing the
// doubling slack behind it: what Stitch calls once the load is over. A
// later append finds the chunk full and takes the grow path above.
func (a *sharedArena[T]) trim() {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.chunks.Load()
	if p == nil || len((*p)[len(*p)-1]) == a.fill {
		return
	}
	chunks := slices.Clone(*p)
	exact := make([]T, a.fill)
	copy(exact, chunks[len(chunks)-1])
	chunks[len(chunks)-1] = exact
	a.publish(chunks)
}

// filled returns the used prefix of every chunk, in offset order: all
// values ever appended and nothing else.
func (a *sharedArena[T]) filled() [][]T {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.chunks.Load()
	if p == nil {
		return nil
	}
	chunks := slices.Clone(*p)
	chunks[len(chunks)-1] = chunks[len(chunks)-1][:a.fill]
	return chunks
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

// internTable is one generation of an intern hash table: open-addressed,
// linear probing, power-of-two sized. A slot holds the packed span of
// one interned list plus one (so zero means empty); slots are written
// atomically exactly once.
type internTable struct {
	mask  uint64
	slots []atomic.Uint64
}

// packRef packs an arena span into the intern reference: offset in the
// high 32 bits, length in the low 32. The empty list is ref 0.
func packRef(off, n uint32) uint64 { return uint64(off)<<32 | uint64(n) }

func unpackRef(ref uint64) (off, n uint32) { return uint32(ref >> 32), uint32(ref) }

// insert publishes ref into the first empty slot of its probe chain.
// Callers hold the intern mutex.
func (t *internTable) insert(h uint64, ref uint64) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		if t.slots[i].Load() == 0 {
			t.slots[i].Store(ref + 1)
			return
		}
	}
}

// listIntern globally deduplicates the canonical lists of one community
// kind across all shards of a ShardedTupleStore: bgp.Communities (RFC
// 1997) and bgp.LargeCommunities (RFC 8092) each get one. The returned
// refs are exact identities — the same canonical list always gets the
// same ref — and double as the tuple's globally addressed span. Ref
// values depend on arrival order and are NOT stable across runs;
// everything derived from them must go through the list content (and
// does: shards compare content, Stitch orders by content, snapshots and
// TSV render content).
//
// Only the arena outlives the load: the hash table serves intern alone,
// so Stitch releases it and adopt rebuilds it if views arrive later.
type listIntern[L ~[]T, T comparable] struct {
	arena sharedArena[T]
	table atomic.Pointer[internTable]
	mu    sync.Mutex
	count int            // live entries (guarded by mu)
	hash  func(L) uint64 // of a canonical list; fixed at construction
}

type (
	commIntern  = listIntern[bgp.Communities, bgp.Community]
	largeIntern = listIntern[bgp.LargeCommunities, bgp.LargeCommunity]
)

// lookup probes t for a list with the given hash and content, returning
// its ref. Lock-free; may miss entries inserted into a newer table.
func (li *listIntern[L, T]) lookup(t *internTable, h uint64, canon L) (uint64, bool) {
	if t == nil {
		return 0, false
	}
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i].Load()
		if s == 0 {
			return 0, false
		}
		ref := s - 1
		off, n := unpackRef(ref)
		if int(n) == len(canon) && slices.Equal(li.arena.view(off, n), canon) {
			return ref, true
		}
	}
}

// intern returns the ref of canon, inserting it on first sight. The hit
// path is lock-free and allocation-free; canon may be reused by the
// caller (the arena keeps its own copy).
func (li *listIntern[L, T]) intern(canon L) uint64 {
	if len(canon) == 0 {
		return 0
	}
	h := li.hash(canon)
	if ref, ok := li.lookup(li.table.Load(), h, canon); ok {
		return ref
	}
	li.mu.Lock()
	defer li.mu.Unlock()
	// Re-probe the latest table: another shard may have inserted the
	// list between our lock-free miss and taking the mutex.
	if ref, ok := li.lookup(li.table.Load(), h, canon); ok {
		return ref
	}
	ref := packRef(li.arena.append(canon), uint32(len(canon)))
	li.insertLocked(h, ref)
	return ref
}

// adopt re-enters a list the arena already holds at (off, n), unless the
// table knows its content: how reindexShared rebuilds a released table
// from the tuples' spans, so a known list keeps resolving to the ref its
// tuples carry and the arena does not grow for it.
func (li *listIntern[L, T]) adopt(off, n uint32) {
	if n == 0 {
		return
	}
	list := li.view(off, n)
	h := li.hash(list)
	li.mu.Lock()
	defer li.mu.Unlock()
	if _, ok := li.lookup(li.table.Load(), h, list); !ok {
		li.insertLocked(h, packRef(off, n))
	}
}

// insertLocked enters a ref established absent, growing the table past
// 3/4 load. Callers hold the mutex.
func (li *listIntern[L, T]) insertLocked(h, ref uint64) {
	t := li.table.Load()
	if t == nil || uint64(li.count+1)*4 > 3*(t.mask+1) {
		t = li.grow(t)
	}
	t.insert(h, ref)
	li.count++
}

// release drops the hash table, which only intern reads; every ref
// handed out stays valid, because refs address the arena. Before the
// next intern, adopt must have re-entered every list still referred to,
// or a known list would be stored again under a second ref.
func (li *listIntern[L, T]) release() {
	li.mu.Lock()
	li.table.Store(nil)
	li.count = 0
	li.mu.Unlock()
}

// tableSize returns the hash table's live entries and slots.
func (li *listIntern[L, T]) tableSize() (live, slots int) {
	li.mu.Lock()
	defer li.mu.Unlock()
	if t := li.table.Load(); t != nil {
		slots = len(t.slots)
	}
	return li.count, slots
}

// view resolves a ref back to its list (shared storage; do not mutate).
func (li *listIntern[L, T]) view(off, n uint32) L {
	return li.arena.view(off, n)
}

// grow publishes a table of at least double the capacity with every
// existing entry rehashed into it. Holding the mutex keeps insertions
// out; lock-free readers keep probing the old table (every entry they
// could have seen is in both) until the pointer swap lands.
func (li *listIntern[L, T]) grow(old *internTable) *internTable {
	size := uint64(1024)
	if old != nil {
		size = 2 * (old.mask + 1)
	}
	nt := &internTable{mask: size - 1, slots: make([]atomic.Uint64, size)}
	if old != nil {
		for i := range old.slots {
			s := old.slots[i].Load()
			if s == 0 {
				continue
			}
			off, n := unpackRef(s - 1)
			nt.insert(li.hash(li.view(off, n)), s-1)
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

	// stitched is the store Stitch handed all of the above to; nil while
	// the shards are still writing. Every value in the arenas belongs to
	// one of its tuples or paths.
	stitched *TupleStore

	// seed starts every table hash (never the routing hash), so which
	// views share a probe chain cannot be computed from outside the
	// process — the protection Go's seeded maps used to give.
	seed uint64
	// collide zeroes every table hash, so all views share one probe
	// chain: tests set it to show content, not the hash, decides identity.
	collide bool
}

func newStoreShared() *storeShared {
	return &storeShared{
		comms:  commIntern{hash: hashComms},
		larges: largeIntern{hash: hashLarges},
		seed:   rand.Uint64(),
	}
}

// prepare readies one view, whose path key is already collapsed into
// sc.words, for a shard: it canonicalizes both lists into sc and hashes
// the identity. route picks the shard, hp tags the path in the shard's
// path table, h tags the whole identity in its tuple table.
func (sh *storeShared) prepare(sc *addScratch, comms bgp.Communities, larges bgp.LargeCommunities) (route, hp, h uint64) {
	sc.comms = canonicalInto(sc.comms, comms)
	sc.larges = canonicalLargeInto(sc.larges, larges)
	route, hp = hashPathKey(sc.words, sh.seed)
	h = hashLists(hp, sc.comms, sc.larges)
	if sh.collide {
		hp, h = 0, 0
	}
	return route, hp, h
}

package core

// Every store's community storage: per-α groups (see groupSet) and the
// set records that list them. The group intern stores each distinct
// group once in a chunked arena; all shards of a ShardedTupleStore share
// it, so every group ref a shard writes is already valid in the stitched
// store and Stitch moves no group payload. Reads are lock-free (atomic
// table pointer, CAS-free probing of atomically published slots);
// inserts take the intern's mutex. A shard asks it for refs only when it
// inserts a new tuple — duplicates are recognized by the shard's own
// table first (see addView).
//
// Set records are not shared. A NewTupleStore deduplicates its own
// inline (setIndex); a shard appends one record per new tuple to its own
// arena, beside the record's tag, and Stitch deduplicates them all at
// once (dedupSets). Hops are not shared either: paths shard by origin,
// so every hop a path can share lives in its shard, and each shard
// appends them to its own arrays under the lock it already holds.
//
// Memory-model argument for the group intern's lock-free read path: an
// inserter, while holding the intern mutex, (1) publishes any new arena
// chunk through an atomic pointer, (2) writes the group's words into the
// chunk, and (3) atomically stores the packed slot last. A reader that
// observes the slot value (atomic load) therefore observes the chunk
// pointer and the values written before it, per the Go memory model.
// Readers that miss (stale table or empty slot) take the mutex and
// resume the probe (see intern).

import (
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"bgpintent/internal/bgp"
)

// Arena chunks hold up to 1<<20 elements each; a 32-bit offset packs the
// chunk index above the in-chunk position. At most 2048 chunks keep every
// offset below 1<<31 (2G entries an arena), so the top bit of a group
// ref is free for lastGroup, the flag on a set record's last ref. Lists
// never span chunks (BGP attribute lengths cap lists far below a chunk).
// The first chunk holds arenaMinChunk elements and each next one twice
// its predecessor, up to the full size, so a small corpus does not pay
// for full chunks and growth never copies.
const (
	internChunkShift = 20
	internChunkSize  = 1 << internChunkShift
	internChunkMask  = internChunkSize - 1
	internMaxChunks  = 1 << (31 - internChunkShift)
	arenaMinChunk    = 1 << 12
)

// Every arena offset is below 1<<31: the constant index is out of range,
// and the build fails, unless the chunks address exactly 1<<31 entries.
var _ = [1]struct{}{}[internMaxChunks<<internChunkShift-1<<31]

// sharedArena is a globally addressed arena that one writer at a time
// appends to while readers resolve offsets lock-free: its user, the
// group intern, appends under its mutex, and trim and filled run once
// the writers are done. A chunk that has been succeeded is as long as
// its fill; the newest is as long as its reservation, with fill saying
// how much of it is used.
type sharedArena[T any] struct {
	chunks atomic.Pointer[[][]T]
	fill   int // elements used in the newest chunk (written by the one writer)
}

// append copies vals into the arena and returns the global offset of
// the copy. The written values are visible to any reader that acquired
// the offset through a properly published location (see the package
// comment); callers that hand the offset to another goroutine through
// a mutex or channel are covered by those primitives instead.
//
// A list that does not fit in the newest chunk starts the next one. The
// chunk list is copy-on-write: a fresh list is published before any value
// lands in the new chunk, and a chunk once succeeded is never written
// again, so a reader holding an old list resolves every offset it can
// know to the same values.
func (a *sharedArena[T]) append(vals []T) uint32 {
	n := len(vals)
	if n > internChunkSize {
		panic("core: arena list exceeds chunk size")
	}
	var chunks [][]T
	if p := a.chunks.Load(); p != nil {
		chunks = *p
	}
	nc := len(chunks)
	if nc == 0 || a.fill+n > len(chunks[nc-1]) {
		if nc >= internMaxChunks {
			panic("core: shared arena full")
		}
		size := arenaMinChunk
		if nc > 0 {
			size = 2 * len(chunks[nc-1])
		}
		chunks = append(make([][]T, 0, nc+1), chunks...)
		if nc > 0 {
			chunks[nc-1] = chunks[nc-1][:a.fill]
		}
		chunks = append(chunks, make([]T, min(max(size, n), internChunkSize)))
		nc++
		a.fill = 0
		a.publish(chunks)
	}
	off := uint32(nc-1)<<internChunkShift | uint32(a.fill)
	copy(chunks[nc-1][a.fill:], vals)
	a.fill += n
	return off
}

// trim reallocates the newest chunk at exactly its fill, releasing the
// slack behind it: what Stitch calls once the load is over.
func (a *sharedArena[T]) trim() {
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

// from returns the arena from off to the end of its chunk: what a
// record that carries its own framing is resolved from.
func (a *sharedArena[T]) from(off uint32) []T {
	c := (*a.chunks.Load())[off>>internChunkShift]
	return c[off&internChunkMask:]
}

// internTable is one generation of the group intern's hash table:
// open-addressed, linear probing, power-of-two sized. A slot holds
// tag<<32 | offset — the hash's top half beside the arena offset of one
// interned group — and zero means empty (offset 0 is the empty record,
// which is never entered); slots are written atomically exactly once.
// As in flatTable, the home slot is the tag's top bits, so growth
// re-places slots without reading a group or hashing one.
type internTable struct {
	shift uint // 32 - log2(len(slots))
	slots []atomic.Uint64
}

// home returns the first slot of the probe chain for hash h (0 in the nil
// table, which holds nothing).
func (t *internTable) home(h uint64) uint32 {
	if t == nil {
		return 0
	}
	return uint32(h>>32) >> t.shift
}

// place publishes slot value s into the first empty slot of its probe
// chain. Callers hold the intern mutex.
func (t *internTable) place(s uint64) {
	mask := uint32(len(t.slots) - 1)
	for i := t.home(s); ; i = (i + 1) & mask {
		if t.slots[i].Load() == 0 {
			t.slots[i].Store(s)
			return
		}
	}
}

// groupIntern deduplicates groups (recordAt) across all shards of a
// ShardedTupleStore, or within one NewTupleStore. The returned refs are
// exact identities — the same group always gets the same ref — and are
// the group's arena offset, which is what a set record carries. Ref
// values depend on arrival order and are NOT stable across runs;
// everything derived from them must go through the content (and does:
// shards compare content, snapshots and TSV render content). The empty
// group is seeded at offset 0, so it is ref 0.
//
// Only the arena outlives the load: the hash table serves intern alone,
// so Stitch, whose output is read-only, releases it.
type groupIntern struct {
	arena sharedArena[bgp.Community]
	table atomic.Pointer[internTable]
	mu    sync.Mutex
	count int // live entries (guarded by mu)
}

// init readies an empty intern: the empty record, one zero word, is
// seeded at offset 0.
func (li *groupIntern) init() {
	li.arena.append(emptySet[:])
}

// probe walks t's chain for the group with hash h and the given content
// from slot i, returning its ref, or the empty slot that ends the chain.
// Lock-free; a nil table holds nothing.
func (li *groupIntern) probe(t *internTable, i uint32, h uint64, rec []bgp.Community) (ref uint32, found bool, end uint32) {
	if t == nil {
		return 0, false, 0
	}
	for mask := uint32(len(t.slots) - 1); ; i = (i + 1) & mask {
		s := t.slots[i].Load()
		if s == 0 {
			return 0, false, i
		}
		if s>>32 == h>>32 && slices.Equal(li.view(uint32(s)), rec) {
			return uint32(s), true, i
		}
	}
}

// intern returns the ref of group rec, whose table hash is h, inserting
// it on first sight. The hit path is lock-free and allocation-free; rec
// may be reused by the caller (the arena keeps its own copy). A miss
// walks its chain once: slots are only ever filled, so whatever another
// shard entered into the chain between the lock-free miss and the mutex
// lies at or past the slot the miss ended on, and the locked probe
// resumes there — in the same table; in one published since, from the
// home slot.
func (li *groupIntern) intern(rec []bgp.Community, h uint64) uint32 {
	if rec[0] == 0 { // the empty group
		return 0
	}
	t := li.table.Load()
	ref, ok, end := li.probe(t, t.home(h), h, rec)
	if ok {
		return ref
	}
	li.mu.Lock()
	defer li.mu.Unlock()
	if latest := li.table.Load(); latest != t {
		t, end = latest, latest.home(h)
	}
	if ref, ok, end = li.probe(t, end, h, rec); ok {
		return ref
	}
	ref = li.arena.append(rec)
	li.insertAt(t, end, h, ref)
	return ref
}

// insertAt enters a ref established absent into t, the current table, at
// end, the empty slot its chain ended on — unless the table must first
// grow past 3/4 load. Callers hold the mutex.
func (li *groupIntern) insertAt(t *internTable, end uint32, h uint64, ref uint32) {
	s := h>>32<<32 | uint64(ref)
	if t == nil || (li.count+1)*4 > 3*len(t.slots) {
		li.grow(t).place(s)
	} else {
		t.slots[end].Store(s)
	}
	li.count++
}

// release drops the hash table, which only intern reads, once no intern
// will follow; every ref handed out stays valid, because refs address
// the arena.
func (li *groupIntern) release() {
	li.mu.Lock()
	li.table.Store(nil)
	li.count = 0
	li.mu.Unlock()
}

// tableSize returns the hash table's live entries and slots.
func (li *groupIntern) tableSize() (live, slots int) {
	li.mu.Lock()
	defer li.mu.Unlock()
	if t := li.table.Load(); t != nil {
		slots = len(t.slots)
	}
	return li.count, slots
}

// view resolves a ref back to its group (shared storage; do not
// mutate).
func (li *groupIntern) view(ref uint32) []bgp.Community {
	return recordAt(li.arena.from(ref))
}

// grow publishes a table of double the capacity (1024 slots the first
// time) with every existing slot re-placed into it on its stored tag.
// Holding the mutex keeps insertions out; lock-free readers keep probing
// the old table (every entry they could have seen is in both) until the
// pointer swap lands.
func (li *groupIntern) grow(old *internTable) *internTable {
	size, shift := 1024, uint(32-10)
	if old != nil {
		size, shift = 2*len(old.slots), old.shift-1
	}
	nt := &internTable{shift: shift, slots: make([]atomic.Uint64, size)}
	if old != nil {
		for i := range old.slots {
			if s := old.slots[i].Load(); s != 0 {
				nt.place(s)
			}
		}
	}
	li.table.Store(nt)
	return nt
}

// setIndex is a set arena that deduplicates its records by content, for
// one writer and with no lock: a NewTupleStore's, inline as its tuples
// arrive, and each of Stitch's partitions, in bulk (dedupSets). Its
// flatTable's slots hold a record's tag beside its arena offset, the tag
// confirmed against the arena words. A shard's set arena and a stitched
// store's have no table: the shard appends, and Stitch has deduplicated.
type setIndex struct {
	arena []bgp.Community
	tab   flatTable
}

// intern returns the offset of the non-empty set record rec, whose tag
// is tag, appending it on first sight.
func (si *setIndex) intern(rec []bgp.Community, tag uint32) uint32 {
	tab := &si.tab
	mask := uint32(len(tab.slots) - 1)
	for i := tag >> tab.shift; tab.slots[i] != 0; i = (i + 1) & mask {
		s := tab.slots[i]
		if uint32(s>>32) != tag {
			continue
		}
		// Only a record's last ref is flagged lastGroup, so a stored
		// record that starts with rec's words ends where rec does.
		if stored := si.arena[uint32(s)-1:]; len(stored) >= len(rec) && slices.Equal(stored[:len(rec)], rec) {
			return uint32(s) - 1
		}
	}
	off := appendSetRecord(&si.arena, rec)
	tab.insert(uint64(tag)<<32, int(off))
	return off
}

// appendSetRecord appends rec to a set arena and returns its offset,
// which stays below 1<<31 so that a tuple's set ref has room for
// multiVP.
func appendSetRecord(arena *[]bgp.Community, rec []bgp.Community) uint32 {
	off := len(*arena)
	if off >= multiVP {
		panic("core: a set arena holds at most 1<<31 words")
	}
	*arena = append(*arena, rec...)
	return uint32(off)
}

// storeInterns bundles the group intern and the hash seed a TupleStore's
// set records resolve through: a NewTupleStore's own, or the one a
// ShardedTupleStore hands to all its shard TupleStores (and to the
// stitched output).
type storeInterns struct {
	groups groupIntern

	// owner is the one store whose tuples every group in the arena
	// belongs to: the NewTupleStore that made the interns, or the store
	// Stitch handed them to. It is nil while shards are writing.
	owner *TupleStore

	// seed starts every table hash (never the routing hash), so which
	// views share a probe chain cannot be computed from outside the
	// process — the protection Go's seeded maps used to give.
	seed uint64
	// collide zeroes every table hash, so all views share one probe
	// chain: tests set it to show content, not the hash, decides identity.
	collide bool
}

func newStoreInterns() *storeInterns {
	sh := &storeInterns{seed: rand.Uint64()}
	sh.groups.init()
	return sh
}

// recordHash is the table hash of a group or a set record.
func (sh *storeInterns) recordHash(rec []bgp.Community) uint64 {
	if sh.collide {
		return 0
	}
	return hashSet(sh.seed, rec)
}

// setTag is set record rec's tag: the top half of its table hash, low
// bit forced, so that 0 is the empty record's alone.
func (sh *storeInterns) setTag(rec []bgp.Community) uint32 {
	if len(rec) == 0 {
		return 0
	}
	return uint32(sh.recordHash(rec)>>32) | 1
}

// hopHash is the hop table's hash of hop (asn, next).
func (sh *storeInterns) hopHash(asn, next uint32) uint64 {
	if sh.collide {
		return 0
	}
	return mixWord(mixWord(sh.seed, asn), next)
}

// prepare readies one view, whose path key is already collapsed into
// sc.words, for addView: it renders the canonical set into sc.set and
// hashes the view. route picks the shard, h tags the whole identity in
// its tuple table.
func (sh *storeInterns) prepare(sc *addScratch, comms bgp.Communities, larges bgp.LargeCommunities) (route, h uint64) {
	sc.canonicalSet(comms, larges)
	route, hp := hashPathKey(sc.words, sh.seed)
	h = hashSet(hp, sc.set)
	if sh.collide {
		h = 0
	}
	return route, h
}

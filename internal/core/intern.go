package core

// Every store's community storage, shared by all shards on the parallel
// load path: two record interns (listIntern). The group intern stores each distinct group —
// one α's run of a set, see groupSet — once in a chunked arena; the set
// intern stores each distinct set record, the refs of its groups, once in
// another. A tuple's set ref is therefore already global and Stitch moves
// no community data. Reads are lock-free (atomic table pointer, CAS-free
// probing of atomically published slots); inserts take one mutex per
// intern. A shard asks them for refs only when it inserts a new tuple —
// duplicates are recognized by the shard's own table first (see
// addView).
// Hops are not shared: paths shard by origin, so every hop a path can
// share lives in its shard, and each shard appends them to its own
// arrays under the lock it already holds.
//
// Memory-model argument for the lock-free read path: an inserter, while
// holding the intern mutex, (1) publishes any new arena chunk through
// an atomic pointer, (2) writes the set's words into the chunk, and
// (3) atomically stores the packed slot last. A reader that observes
// the slot value (atomic load) therefore observes the chunk pointer and
// the values written before it, per the Go memory model. Readers that
// miss (stale table or empty slot) take the mutex and resume the probe
// (see intern).

import (
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"bgpintent/internal/bgp"
)

// Arena chunks hold up to 1<<20 elements each; a 32-bit offset packs the
// chunk index above the in-chunk position. At most 2048 chunks keep every
// offset below 1<<31 (2G entries an arena), so the top bit of a ref is
// free for a flag: lastGroup on a set record's group refs, multiVP on a
// tuple's set ref. Lists never span chunks (BGP attribute lengths cap
// lists far below a chunk). The first chunk holds arenaMinChunk elements
// and each next one twice its predecessor, up to the full size, so a
// small corpus does not pay for full chunks and growth never copies.
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
// appends to while readers resolve offsets lock-free: its users, the
// record interns, append under their own mutexes, and trim and filled
// run once the writers are done. A chunk that has been succeeded is as long as its
// fill; the newest is as long as its reservation, with fill saying how
// much of it is used.
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

// internTable is one generation of a record intern's hash table:
// open-addressed, linear probing, power-of-two sized. A slot holds
// tag<<32 | offset — the hash's top half beside the arena offset of one
// interned record — and zero means empty (offset 0 is the empty record,
// which is never entered); slots are written atomically exactly once.
// As in flatTable, the home slot is the tag's top bits, so growth
// re-places slots without reading a set or hashing one.
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

// listIntern deduplicates records — groups (recordAt), or set records
// (setRecordAt) — across all shards of a ShardedTupleStore, or within one
// NewTupleStore. The returned refs are exact identities — the same record
// always gets the same ref — and are the record's arena offset, which is
// what a set record or a tuple carries. Ref values depend on arrival
// order and are NOT stable across runs; everything derived from them
// must go through the content (and does: shards compare content,
// snapshots and TSV render content). The empty record is seeded at
// offset 0, so it is ref 0.
//
// Only the arena outlives the load: the hash table serves intern alone,
// so Stitch, whose output is read-only, releases it.
type listIntern struct {
	arena sharedArena[bgp.Community]
	table atomic.Pointer[internTable]
	mu    sync.Mutex
	count int                                   // live entries (guarded by mu)
	hash  func([]bgp.Community) uint64          // of a record; fixed at construction
	frame func([]bgp.Community) []bgp.Community // the record at the start of the words
}

// init readies an empty intern: hash is its table hash, frame its record
// framing, and the empty record, one zero word, is seeded at offset 0.
func (li *listIntern) init(hash func([]bgp.Community) uint64, frame func([]bgp.Community) []bgp.Community) {
	li.hash, li.frame = hash, frame
	li.arena.append(emptySet[:])
}

// probe walks t's chain for the record with hash h and the given content
// from slot i, returning its ref, or the empty slot that ends the chain.
// Lock-free; a nil table holds nothing.
func (li *listIntern) probe(t *internTable, i uint32, h uint64, rec []bgp.Community) (ref uint32, found bool, end uint32) {
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

// intern returns the ref of record rec, inserting it on first sight. The
// hit path is lock-free and allocation-free; rec may be reused by the
// caller (the arena keeps its own copy). A miss walks its chain once:
// slots are only ever filled, so whatever another shard entered into the
// chain between the lock-free miss and the mutex lies at or past the slot
// the miss ended on, and the locked probe resumes there — in the same
// table; in one published since, from the home slot.
func (li *listIntern) intern(rec []bgp.Community) uint32 {
	if len(rec) == 0 || rec[0] == 0 { // the empty set record, or the empty group
		return 0
	}
	h := li.hash(rec)
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
func (li *listIntern) insertAt(t *internTable, end uint32, h uint64, ref uint32) {
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
func (li *listIntern) release() {
	li.mu.Lock()
	li.table.Store(nil)
	li.count = 0
	li.mu.Unlock()
}

// tableSize returns the hash table's live entries and slots.
func (li *listIntern) tableSize() (live, slots int) {
	li.mu.Lock()
	defer li.mu.Unlock()
	if t := li.table.Load(); t != nil {
		slots = len(t.slots)
	}
	return li.count, slots
}

// view resolves a ref back to its record (shared storage; do not
// mutate).
func (li *listIntern) view(ref uint32) []bgp.Community {
	return li.frame(li.arena.from(ref))
}

// grow publishes a table of double the capacity (1024 slots the first
// time) with every existing slot re-placed into it on its stored tag.
// Holding the mutex keeps insertions out; lock-free readers keep probing
// the old table (every entry they could have seen is in both) until the
// pointer swap lands.
func (li *listIntern) grow(old *internTable) *internTable {
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

// storeInterns bundles the interns and hash seed a TupleStore's set refs
// resolve through: a NewTupleStore's own, or the ones a ShardedTupleStore
// hands to all its shard TupleStores (and to the stitched output).
type storeInterns struct {
	// sets interns set records, groups the groups they refer to.
	sets, groups listIntern

	// owner is the one store whose tuples every record in either intern
	// arena belongs to: the NewTupleStore that made the interns, or the
	// store Stitch handed them to. It is nil while shards are writing.
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
	sh.sets.init(sh.setHash, setRecordAt)
	sh.groups.init(sh.setHash, recordAt)
	return sh
}

// setHash is the record interns' table hash.
func (sh *storeInterns) setHash(set []bgp.Community) uint64 {
	if sh.collide {
		return 0
	}
	return hashSet(sh.seed, set)
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

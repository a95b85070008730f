package core

// Every store's community storage: per-α groups (see groupSet) and the
// set records that list their ordinals, each kind in an arena of the
// store's own. A store deduplicates its groups inline, through a
// recordIndex, as a new tuple brings them: a shard under the shard lock
// it already holds, so no group storage is shared while a load writes. A
// NewTupleStore deduplicates its set records the same way; a shard
// appends one record per new tuple. Stitch then deduplicates every
// shard's groups at once, translates the shards' set records to the
// stitched ordinals, and deduplicates the records (dedupRecords, for both
// kinds). Hops are a shard's own too: paths shard by origin, so every hop
// a path can share lives in its shard.

import (
	"math/rand/v2"
	"slices"

	"bgpintent/internal/bgp"
)

// recordIndex is a record arena that deduplicates its records by
// content, for one writer and with no lock: every writable store's
// groups and a NewTupleStore's set records, inline as its tuples arrive.
// Its flatTable's slots hold a record's tag beside its name, the tag
// confirmed against the arena. A shard's set arena and a stitched
// store's arenas have no table: the shard appends, and Stitch
// deduplicates in bulk (dedupRecords).
//
// A record's name is its offset in the arena, or, in an index byOrdinal
// (groups), its ordinal, the order it was appended in; at then holds each
// record's offset at its ordinal.
type recordIndex[E bgp.Community | byte] struct {
	arena     []E
	tab       flatTable
	at        []uint32
	byOrdinal bool
}

// intern returns the name of the non-empty record rec, a group or a set
// record, whose tag is tag, appending it on first sight.
func (ri *recordIndex[E]) intern(rec []E, tag uint32) uint32 {
	tab := &ri.tab
	mask := uint32(len(tab.slots) - 1)
	for i := tag >> tab.shift; tab.slots[i] != 0; i = (i + 1) & mask {
		s := tab.slots[i]
		if uint32(s>>32) != tag {
			continue
		}
		name, off := uint32(s)-1, uint32(s)-1
		if ri.byOrdinal {
			off = ri.at[name]
		}
		// A stored record that starts with rec's items ends where rec
		// does: a group's header counts its words, and only a set
		// record's last ref is flagged last.
		if stored := ri.arena[off:]; len(stored) >= len(rec) && slices.Equal(stored[:len(rec)], rec) {
			return name
		}
	}
	name := appendRecord(&ri.arena, rec)
	if ri.byOrdinal {
		ri.at = append(ri.at, name)
		name = uint32(len(ri.at) - 1)
	}
	tab.insert(uint64(tag)<<32, int(name))
	return name
}

// appendRecord appends rec to a record arena and returns its offset,
// which stays below 1<<31 so that a tuple's set ref has room for
// multiVP.
func appendRecord[E bgp.Community | byte](arena *[]E, rec []E) uint32 {
	off := len(*arena)
	if off >= multiVP {
		panic("core: a record arena holds at most 1<<31 items")
	}
	*arena = append(*arena, rec...)
	return uint32(off)
}

// storeHash is where a store's table hashes start (never the routing
// hash's). A NewTupleStore draws its own; a ShardedTupleStore copies its
// own into every shard, so that all of them tag a record alike and
// Stitch can partition records from every shard by tag.
type storeHash struct {
	// seed starts every table hash, so which views share a probe chain
	// cannot be computed from outside the process — the protection Go's
	// seeded maps used to give.
	seed uint64
	// collide zeroes every table hash, so all views share one probe
	// chain: tests set it to show content, not the hash, decides identity.
	collide bool
}

func newStoreHash() storeHash { return storeHash{seed: rand.Uint64()} }

// tag is group rec's tag: the top half of its seeded hash, low bit
// forced, so that 0 is the empty record's alone.
func (sh *storeHash) tag(rec []bgp.Community) uint32 {
	return sh.tagOf(hashSet(sh.seed, rec), len(rec) == 0)
}

// setTag is set record rec's tag, as tag, over its group ordinals.
func (sh *storeHash) setTag(rec []byte) uint32 {
	h := sh.seed
	for i := 0; i < len(rec); {
		var ord uint32
		ord, _, i = groupRef(rec, i)
		h = mixWord(h, ord)
	}
	return sh.tagOf(h, len(rec) == 0)
}

// tagOf is the tag of a record whose seeded hash is h.
func (sh *storeHash) tagOf(h uint64, empty bool) uint32 {
	switch {
	case empty:
		return 0
	case sh.collide:
		return 1
	}
	return uint32(h>>32) | 1
}

// hopHash is the hop table's hash of hop (asn, next).
func (sh *storeHash) hopHash(asn, next uint32) uint64 {
	if sh.collide {
		return 0
	}
	return mixWord(mixWord(sh.seed, asn), next)
}

// prepare readies one view, whose path key is already collapsed into
// sc.words, for addView: it renders the canonical set into sc.set and
// hashes the view. route picks the shard, h tags the whole identity in
// its tuple table.
func (sh *storeHash) prepare(sc *addScratch, comms bgp.Communities, larges bgp.LargeCommunities) (route, h uint64) {
	sc.canonicalSet(comms, larges)
	route, hp := hashPathKey(sc.words, sh.seed)
	h = hashSet(hp, sc.set)
	if sh.collide {
		h = 0
	}
	return route, h
}

package core

// Every store's community storage: per-α groups (see groupSet) and the
// set records that list them, each kind in an arena of the store's own.
// A store deduplicates its groups inline, through a recordIndex, as a new
// tuple brings them: a shard under the shard lock it already holds, so
// no group storage is shared while a load writes. A NewTupleStore
// deduplicates its set records the same way; a shard appends one record
// per new tuple. Stitch then deduplicates every shard's groups at once,
// rewrites the shards' set records to refer to the stitched groups, and
// deduplicates the records (dedupRecords, for both kinds). Hops are a
// shard's own too: paths shard by origin, so every hop a path can share
// lives in its shard.

import (
	"math/rand/v2"
	"slices"

	"bgpintent/internal/bgp"
)

// recordIndex is a record arena that deduplicates its records by
// content, for one writer and with no lock: every writable store's
// groups, a NewTupleStore's set records, inline as its tuples arrive,
// and each of Stitch's partitions, in bulk (dedupRecords). Its
// flatTable's slots hold a record's tag beside its arena offset, the tag
// confirmed against the arena words. A shard's set arena and a stitched
// store's arenas have no table: the shard appends, and Stitch has
// deduplicated.
type recordIndex struct {
	arena []bgp.Community
	tab   flatTable
}

// intern returns the offset of the non-empty record rec, a group or a
// set record, whose tag is tag, appending it on first sight.
func (ri *recordIndex) intern(rec []bgp.Community, tag uint32) uint32 {
	tab := &ri.tab
	mask := uint32(len(tab.slots) - 1)
	for i := tag >> tab.shift; tab.slots[i] != 0; i = (i + 1) & mask {
		s := tab.slots[i]
		if uint32(s>>32) != tag {
			continue
		}
		// A stored record that starts with rec's words ends where rec
		// does: a group's header counts its words, and only a set
		// record's last ref is flagged lastGroup.
		if stored := ri.arena[uint32(s)-1:]; len(stored) >= len(rec) && slices.Equal(stored[:len(rec)], rec) {
			return uint32(s) - 1
		}
	}
	off := appendRecord(&ri.arena, rec)
	tab.insert(uint64(tag)<<32, int(off))
	return off
}

// appendRecord appends rec to a record arena and returns its offset,
// which stays below 1<<31 so that a tuple's set ref has room for multiVP
// and a group ref for lastGroup.
func appendRecord(arena *[]bgp.Community, rec []bgp.Community) uint32 {
	off := len(*arena)
	if off >= multiVP {
		panic("core: a record arena holds at most 1<<31 words")
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

// tag is record rec's tag, a group's or a set record's: the top half of
// its seeded hash, low bit forced, so that 0 is the empty record's alone.
func (sh *storeHash) tag(rec []bgp.Community) uint32 {
	switch {
	case len(rec) == 0:
		return 0
	case sh.collide:
		return 1
	}
	return uint32(hashSet(sh.seed, rec)>>32) | 1
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

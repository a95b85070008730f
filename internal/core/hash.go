package core

import "bgpintent/internal/bgp"

// FNV-1a constants of the community-list hashes (plain-store tupleKey,
// intern tables).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// mixWord folds one 32-bit word into a 64-bit hash state: the multiply
// spreads the word upward, the shift folds the well-mixed top half back
// down for the next multiply. The shared-mode view hash is built from it
// (storeShared.prepare); it only has to spread — content decides identity.
func mixWord(h uint64, v uint32) uint64 {
	h = (h ^ uint64(v)) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// hashPathKey hashes a shared-mode path key (its ASN words) twice in one
// pass: route from a fixed state — shard routing must be a pure function
// of the path key, or the stitched layout would differ between runs —
// and h from seed, which tags the shard's tables.
func hashPathKey(key []uint32, seed uint64) (route, h uint64) {
	route, h = fnvOffset64, seed
	for _, asn := range key {
		route = mixWord(route, asn)
		h = mixWord(h, asn)
	}
	return route, h
}

// hashLists continues a path hash over the canonical lists, giving the
// hash of a whole view identity; each list is preceded by its length.
func hashLists(h uint64, comms bgp.Communities, larges bgp.LargeCommunities) uint64 {
	h = mixWord(h, uint32(len(comms)))
	for _, c := range comms {
		h = mixWord(h, uint32(c))
	}
	h = mixWord(h, uint32(len(larges)))
	for _, lc := range larges {
		h = mixWord(h, lc.GlobalAdmin)
		h = mixWord(h, lc.LocalData1)
		h = mixWord(h, lc.LocalData2)
	}
	return h
}

// fnvU32 folds one little-endian uint32 into an FNV-1a state.
func fnvU32(h uint64, v uint32) uint64 {
	h ^= uint64(v & 0xff)
	h *= fnvPrime64
	h ^= uint64(v >> 8 & 0xff)
	h *= fnvPrime64
	h ^= uint64(v >> 16 & 0xff)
	h *= fnvPrime64
	h ^= uint64(v >> 24)
	h *= fnvPrime64
	return h
}

// hashComms is FNV-1a over canonical communities.
func hashComms(comms bgp.Communities) uint64 {
	h := fnvOffset64
	for _, c := range comms {
		h = fnvU32(h, uint32(c))
	}
	return h
}

// hashLarges is FNV-1a over canonical large communities. The empty
// list hashes to 0, so classic-only tuples carry a zero large key.
func hashLarges(ls bgp.LargeCommunities) uint64 {
	if len(ls) == 0 {
		return 0
	}
	h := fnvOffset64
	for _, lc := range ls {
		h = fnvU32(h, lc.GlobalAdmin)
		h = fnvU32(h, lc.LocalData1)
		h = fnvU32(h, lc.LocalData2)
	}
	return h
}

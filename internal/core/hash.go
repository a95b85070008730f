package core

import "bgpintent/internal/bgp"

// fnvOffset64 is the FNV-1a offset basis, the fixed starting state of the
// shard-routing hash.
const fnvOffset64 uint64 = 14695981039346656037

// mixWord folds one 32-bit word into a 64-bit hash state: the multiply
// spreads the word upward, the shift folds the well-mixed top half back
// down for the next multiply. Every store hash is built from it; it only
// has to spread — content decides identity.
func mixWord(h uint64, v uint32) uint64 {
	h = (h ^ uint64(v)) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// hashPathKey hashes a path key (its ASN words) twice in one pass:
// route from a fixed state over the key's last word, the origin — shard
// routing is a pure function of the origin, so every observation of a
// path meets its earlier ones in one shard, every path toward one origin
// shares its suffixes in that shard, and a shard holds the same paths in
// every run — and h from seed over every word, which tags the shard's
// tuple table.
func hashPathKey(key []uint32, seed uint64) (route, h uint64) {
	h = seed
	for _, asn := range key {
		h = mixWord(h, asn)
	}
	return mixWord(fnvOffset64, key[len(key)-1]), h
}

// hashSet continues h over a canonical set or a group (see appendSet).
// Its header word carries both list lengths, so equal hashes of unequal
// sets stay as rare as the mixing makes them.
func hashSet(h uint64, set []bgp.Community) uint64 {
	for _, w := range set {
		h = mixWord(h, uint32(w))
	}
	return h
}

// splitmix64 is the splitmix64 finalizer, which spreads a large
// community's 96 bits over its hash (hashLargeCommunity).
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

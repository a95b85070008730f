//go:build race

package bgpintent

// raceEnabled reports whether the race detector is compiled in. The
// allocation guards skip under -race: race-mode sync.Pool randomly
// drops Put items (see sync/pool.go), so pool-backed hot paths
// allocate probabilistically with no real regression.
const raceEnabled = true

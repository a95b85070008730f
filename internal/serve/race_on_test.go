//go:build race

package serve

// raceEnabled reports whether the race detector is compiled in. The
// allocation guard skips under -race: race-mode sync.Pool randomly
// drops Put items (see sync/pool.go), so the pooled scratch is
// reallocated probabilistically and AllocsPerRun counts noise.
const raceEnabled = true

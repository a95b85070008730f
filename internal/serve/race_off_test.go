//go:build !race

package serve

// raceEnabled reports whether the race detector is compiled in; see
// race_on_test.go for why the allocation guard needs to know.
const raceEnabled = false

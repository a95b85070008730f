//go:build !race

package simulate

// raceEnabled reports whether the race detector is compiled in; see
// race_on_test.go for why the allocation budget needs to know.
const raceEnabled = false

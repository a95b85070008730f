//go:build !race

package mrt

// raceEnabled reports whether the race detector is compiled in; see
// race_on_test.go for why the zero-alloc guards need to know.
const raceEnabled = false

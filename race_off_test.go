//go:build !race

package bgpintent

// raceEnabled reports whether the race detector is compiled in; see
// race_on_test.go for why the allocation guards need to know.
const raceEnabled = false

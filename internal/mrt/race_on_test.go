//go:build race

package mrt

// raceEnabled reports whether the race detector is compiled in. The
// zero-alloc guards skip under -race, whose instrumentation allocates
// on its own account.
const raceEnabled = true

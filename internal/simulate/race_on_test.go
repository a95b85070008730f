//go:build race

package simulate

// raceEnabled reports whether the race detector is compiled in. The
// allocation budget skips under -race, whose instrumentation allocates
// shadow state of its own and so counts more than the simulator asks for.
const raceEnabled = true

package main

import (
	"math/rand"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks, so small samples (batch
// iterations, published generations) do not collapse onto one value.
// It returns 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns vals sorted ascending, leaving vals untouched.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// median is the 0.5 quantile of an unsorted sample.
func median(vals []float64) float64 { return percentile(sortedCopy(vals), 0.5) }

// fastQuartile is the quantile reported for a cost measured many times
// in one run on identical work (batch iterations, slices of a load
// window): the lower quartile. On a shared host interference only ever
// adds time, so the fast quartile reads the undisturbed cost where the
// median reads whatever the neighbours were doing; measured here, its
// run-to-run spread is about half the median's.
const fastQuartile = 0.25

// zipfPicker draws indexes in [0, n) skewed toward 0 with exponent s:
// the hot-key mix the response cache is built for.
type zipfPicker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newZipfPicker(seed int64, s float64, n int) *zipfPicker {
	rng := rand.New(rand.NewSource(seed))
	p := &zipfPicker{rng: rng}
	if n > 1 {
		p.zipf = rand.NewZipf(rng, s, 1, uint64(n-1))
	}
	return p
}

func (p *zipfPicker) next() int {
	if p.zipf == nil {
		return 0
	}
	return int(p.zipf.Uint64())
}

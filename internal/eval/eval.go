// Package eval regenerates the paper's evaluation: every figure and
// table in §5-§6, plus the ablations DESIGN.md calls out. Each
// experiment returns a Report with rendered text rows (the analogue of
// the paper's plots) and machine-readable key metrics.
package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/dict"
)

// Confusion is a two-class confusion matrix against ground truth.
type Confusion struct {
	InfoAsInfo     int
	InfoAsAction   int
	ActionAsAction int
	ActionAsInfo   int
}

// Total returns the number of scored communities.
func (c Confusion) Total() int {
	return c.InfoAsInfo + c.InfoAsAction + c.ActionAsAction + c.ActionAsInfo
}

// Accuracy returns the fraction classified correctly (0 when nothing was
// scored).
func (c Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.InfoAsInfo+c.ActionAsAction) / float64(t)
}

// Add accumulates one (truth, inferred) pair.
func (c *Confusion) Add(truth, inferred dict.Category) {
	switch {
	case truth == dict.CatInformation && inferred == dict.CatInformation:
		c.InfoAsInfo++
	case truth == dict.CatInformation && inferred == dict.CatAction:
		c.InfoAsAction++
	case truth == dict.CatAction && inferred == dict.CatAction:
		c.ActionAsAction++
	case truth == dict.CatAction && inferred == dict.CatInformation:
		c.ActionAsInfo++
	}
}

// AgainstDictionary scores inferences against a ground-truth regex
// dictionary, over the communities the method classified and the
// dictionary covers — the paper's validation population (6,259
// communities, 96.5% accuracy).
func AgainstDictionary(inf *core.Inferences, d *dict.Dictionary) Confusion {
	var c Confusion
	inf.EachLabeled(func(comm bgp.Community, got dict.Category) bool {
		if truth := d.Category(uint32(comm.ASN()), comm.Value()); truth != dict.CatUnknown {
			c.Add(truth, got)
		}
		return true
	})
	return c
}

// CDF collects values and answers quantile/fraction queries, standing in
// for the paper's CDF plots.
type CDF struct {
	values []float64
	sorted bool
}

// Add inserts one value.
func (c *CDF) Add(v float64) {
	c.values = append(c.values, v)
	c.sorted = false
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.values) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.values)
		c.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of the sample, or NaN
// for an empty sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.values) == 0 {
		return math.NaN()
	}
	c.sort()
	idx := int(q * float64(len(c.values)-1))
	return c.values[idx]
}

// FractionBelow returns P(X < x).
func (c *CDF) FractionBelow(x float64) float64 {
	if len(c.values) == 0 {
		return 0
	}
	c.sort()
	i := sort.SearchFloat64s(c.values, x)
	return float64(i) / float64(len(c.values))
}

// Report is one regenerated table or figure.
type Report struct {
	ID         string
	Title      string
	PaperClaim string
	Lines      []string
	Metrics    map[string]float64
}

func newReport(id, title, claim string) *Report {
	return &Report{ID: id, Title: title, PaperClaim: claim, Metrics: make(map[string]float64)}
}

func (r *Report) addf(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// Render produces the text block for the experiment.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&b, "paper: %s\n", r.PaperClaim)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

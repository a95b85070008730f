package anomaly

import (
	"fmt"
	"math"
	"math/bits"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
)

// Thresholds are the committed detection parameters. The zero value
// selects the defaults the ground-truth validation pins down; tests and
// the CI smoke run at exactly these numbers.
type Thresholds struct {
	// SpikeWarmup is how many closed buckets a series needs before spike
	// and churn judgments begin (default 6).
	SpikeWarmup int
	// SpikeK scales the MAD in the burst threshold (default 6).
	SpikeK float64
	// SpikeRatio is the multiplicative guard: a burst must also exceed
	// SpikeRatio x median, so organic day-over-day level shifts on busy
	// series stay quiet (default 3).
	SpikeRatio float64
	// SpikeMin is the absolute activity floor of a burst, guarding
	// near-zero baselines (default 50).
	SpikeMin float64

	// FlapTransitions is how many burst/calm transitions within the
	// history window call a series churning (default 5).
	FlapTransitions int

	// ReliableMin is the decayed route count through an AS before its
	// tagging baseline is trusted; ReliableFrac the tag rate it must
	// sustain (defaults 300 routes, 0.9).
	ReliableMin  float64
	ReliableFrac float64
	// MissFrac is the per-bucket miss rate on a reliable AS that flags a
	// disappearance; MissMin the minimum routes in the bucket for the
	// rate to mean anything (defaults 0.6, 20).
	MissFrac float64
	MissMin  int
	// BaselineDecay is the per-bucket exponential decay of the learned
	// per-AS counts (default 0.98).
	BaselineDecay float64
}

func (t Thresholds) withDefaults() Thresholds {
	if t.SpikeWarmup <= 0 {
		t.SpikeWarmup = 6
	}
	if t.SpikeK <= 0 {
		t.SpikeK = 6
	}
	if t.SpikeRatio <= 0 {
		t.SpikeRatio = 3
	}
	if t.SpikeMin <= 0 {
		t.SpikeMin = 50
	}
	if t.FlapTransitions <= 0 {
		t.FlapTransitions = 5
	}
	if t.ReliableMin <= 0 {
		t.ReliableMin = 300
	}
	if t.ReliableFrac <= 0 {
		t.ReliableFrac = 0.9
	}
	if t.MissFrac <= 0 {
		t.MissFrac = 0.6
	}
	if t.MissMin <= 0 {
		t.MissMin = 20
	}
	if t.BaselineDecay <= 0 {
		t.BaselineDecay = 0.98
	}
	return t
}

// burst is the robust activity level above which a closed bucket
// counts as bursting: median plus SpikeK MADs, at least SpikeRatio times
// the median (level-shift guard), at least SpikeMin (cold-series guard).
// Spike onsets, churn transitions and the baseline freeze all read this
// one level.
func (t *Thresholds) burst(med, mad float64) float64 {
	return math.Max(math.Max(med+t.SpikeK*mad, t.SpikeRatio*med), t.SpikeMin)
}

// Detector names: Finding.Detector, the names Health lists, and what
// Query.Detector matches.
const (
	spikeName     = "spike"
	churnName     = "churn"
	disappearName = "disappearance"
)

// seriesStat is one community's closed-bucket measurement: the count,
// the robust statistics of its retained history, the burst level they
// give, its burst history and its current inferred semantics.
type seriesStat struct {
	comm      bgp.Community
	count     int
	median    float64
	mad       float64
	threshold float64
	histLen   int
	category  dict.Category
	// burstBits is the trailing burst history, bit 0 = this bucket.
	burstBits uint64
}

func fracStr(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }

// spikeDetector flags activity bursts on action communities — the
// blackhole-onset signature — and their withdrawal when the series
// falls back to baseline. Only action communities are judged: an
// information community's activity follows route volume, an action
// community's follows operator intervention.
type spikeDetector struct {
	spiking map[bgp.Community]bool
}

func (d *spikeDetector) close(s *seriesStat, emit func(Finding)) {
	x := float64(s.count)
	score := (x - s.median) / math.Max(s.mad, 1)
	switch {
	case !d.spiking[s.comm] && x >= s.threshold && s.category == dict.CatAction:
		d.spiking[s.comm] = true
		f := Finding{
			Detector: spikeName, Kind: "spike-onset",
			Community: s.comm, HasCommunity: true, ASN: uint32(s.comm.ASN()),
			Category: s.category,
			Value:    x, Baseline: s.median, Score: score,
		}
		f.Summary = fmt.Sprintf("spike-onset: %s community %s at %d updates/bucket (baseline %.0f, %.0fx MAD)",
			s.category, f.subject(), s.count, s.median, score)
		emit(f)
	case d.spiking[s.comm] && x < s.threshold/2:
		delete(d.spiking, s.comm)
		f := Finding{
			Detector: spikeName, Kind: "spike-withdrawal",
			Community: s.comm, HasCommunity: true, ASN: uint32(s.comm.ASN()),
			Category: s.category,
			Value:    x, Baseline: s.median, Score: score,
		}
		f.Summary = fmt.Sprintf("spike-withdrawal: %s community %s back to %d updates/bucket (baseline %.0f)",
			s.category, f.subject(), s.count, s.median)
		emit(f)
	}
}

// churnDetector flags series that keep flipping between bursting and
// calm — the traffic-engineering flap signature. A single sustained
// spike produces two transitions; a flap series produces two per cycle,
// so the transition threshold separates the shapes.
type churnDetector struct {
	flagged map[bgp.Community]bool
}

// transitions counts burst-state changes over the n newest bits.
func transitions(bitsWord uint64, n int) int {
	if n < 2 {
		return 0
	}
	if n < 64 {
		bitsWord &= (1 << n) - 1
	}
	return bits.OnesCount64((bitsWord ^ (bitsWord >> 1)) & ((1 << (n - 1)) - 1))
}

func (d *churnDetector) close(t *Thresholds, s *seriesStat, emit func(Finding)) {
	// History length plus the just-closed bucket, capped at the bitmap.
	n := s.histLen + 1
	if n > 64 {
		n = 64
	}
	tr := transitions(s.burstBits, n)
	switch {
	case !d.flagged[s.comm] && tr >= t.FlapTransitions && s.category == dict.CatAction:
		d.flagged[s.comm] = true
		f := Finding{
			Detector: churnName, Kind: "churn",
			Community: s.comm, HasCommunity: true, ASN: uint32(s.comm.ASN()),
			Category: s.category,
			Value:    float64(s.count), Baseline: s.median, Score: float64(tr),
		}
		f.Summary = fmt.Sprintf("churn: %s community %s flapped %d times across the window",
			s.category, f.subject(), tr)
		emit(f)
	case d.flagged[s.comm] && tr <= t.FlapTransitions/2:
		// Re-arm quietly once the series settles.
		delete(d.flagged, s.comm)
	}
}

// asBaseline is the disappearance detector's learned view of one AS:
// decayed route and tag counts, accumulated from unflagged buckets only
// so a strip event cannot erode the baseline that detects it.
type asBaseline struct {
	through float64
	tagged  float64
	flagged bool
}

// disappearDetector learns, per AS (full 32-bit space), how reliably
// routes through it carry its own information communities, and flags
// buckets where those tags go missing — the community-stripping leak
// signature. This is the promotion of examples/anomaly's batch
// heuristic into a streaming detector, minus its 16-bit truncation
// bias: 4-byte ASes are counted like any other, and since a classic
// community α is 16-bit they can never look "reliably tagged", so they
// also can never produce a false disappearance.
type disappearDetector struct {
	as map[uint32]*asBaseline
}

func (d *disappearDetector) close(t *Thresholds, asn uint32, a *asOpen, emit func(Finding)) {
	bl := d.as[asn]
	if bl == nil {
		bl = &asBaseline{}
		d.as[asn] = bl
	}
	reliable := bl.through >= t.ReliableMin &&
		bl.tagged/bl.through >= t.ReliableFrac
	missFrac := 0.0
	if a.through > 0 {
		missFrac = float64(a.through-a.tagged) / float64(a.through)
	}
	anomalous := reliable && a.through >= t.MissMin && missFrac >= t.MissFrac

	switch {
	case anomalous && !bl.flagged:
		bl.flagged = true
		f := Finding{
			Detector: disappearName, Kind: "info-disappearance",
			ASN:      asn,
			Category: dict.CatInformation,
			Value:    missFrac, Baseline: 1 - bl.tagged/bl.through, Score: missFrac / t.MissFrac,
		}
		f.Summary = fmt.Sprintf("info-disappearance: %s of %d routes through %s lost its information tags (baseline miss %s)",
			fracStr(missFrac), a.through, f.subject(), fracStr(f.Baseline))
		emit(f)
	case bl.flagged && a.through >= t.MissMin && missFrac < t.MissFrac/2:
		bl.flagged = false
		f := Finding{
			Detector: disappearName, Kind: "info-recovery",
			ASN:      asn,
			Category: dict.CatInformation,
			Value:    missFrac, Baseline: 1 - bl.tagged/bl.through, Score: missFrac / t.MissFrac,
		}
		f.Summary = fmt.Sprintf("info-recovery: routes through %s carry their information tags again (%s missing)",
			f.subject(), fracStr(missFrac))
		emit(f)
	}

	// Learn from calm buckets only; the decay keeps the baseline
	// tracking slow organic drift.
	if !bl.flagged {
		bl.through = bl.through*t.BaselineDecay + float64(a.through)
		bl.tagged = bl.tagged*t.BaselineDecay + float64(a.tagged)
	}
}

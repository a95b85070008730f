// Package anomaly is CommunityWatch: streaming anomaly detection over
// inferred community intent. It consumes the live update stream, keeps
// ring-buffered per-community activity time series bucketed by feed
// time, and runs three detectors at every bucket close — MAD-based
// spike detection on action communities (blackhole onset/withdrawal),
// disappearance of reliably-tagged information communities on paths
// through an AS (leak/strip events), and churn detection on flapping
// traffic engineering. Every finding carries the inferred semantics of
// its subject at detection time; semantics refresh on each published
// classification generation without restarting the detectors.
package anomaly

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/dict"
	"bgpintent/internal/stream"
)

// Defaults for Options fields left zero.
const (
	DefaultBucketSpan  = 30 * time.Minute
	DefaultHistory     = 32
	DefaultMaxFindings = 4096
)

// Options shape the engine's time series and its detectors.
type Options struct {
	// BucketSpan is the feed-time width of one activity bucket.
	BucketSpan time.Duration
	// History is how many closed buckets each series retains (2..64);
	// robust statistics and flap windows are computed over it.
	History int
	// MaxFindings bounds the retained finding log; the oldest half is
	// dropped when it fills.
	MaxFindings int

	// Thresholds are the detection parameters; zero fields take their
	// defaults.
	Thresholds Thresholds

	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.BucketSpan <= 0 {
		o.BucketSpan = DefaultBucketSpan
	}
	if o.History < 2 {
		o.History = DefaultHistory
	}
	if o.History > 64 {
		o.History = 64 // burst history is a uint64 bitmap
	}
	if o.MaxFindings <= 0 {
		o.MaxFindings = DefaultMaxFindings
	}
	o.Thresholds = o.Thresholds.withDefaults()
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Finding is one detected anomaly, stamped with the inferred semantics
// of its subject at detection time.
type Finding struct {
	// ID is a monotone per-engine identifier.
	ID uint64
	// Detector is the emitting detector's name; Kind is the specific
	// event shape ("spike-onset", "spike-withdrawal", "churn",
	// "info-disappearance", "info-recovery").
	Detector string
	Kind     string

	// Community is the subject of series findings (HasCommunity true);
	// ASN is the subject AS — the community's α, or the on-path AS of a
	// disappearance finding (full 32-bit space).
	Community    bgp.Community
	HasCommunity bool
	ASN          uint32

	// Category is the subject's inferred semantics when the finding was
	// made; Generation is the classification generation that said so.
	Category   dict.Category
	Generation uint64

	// Bucket is the closed feed-time bucket the finding describes;
	// Span its width.
	Bucket time.Time
	Span   time.Duration

	// Value is the observed measurement (bucket activity, or miss
	// fraction), Baseline the expectation it deviated from, and Score
	// the deviation's strength (MAD z-score, or miss/threshold ratio).
	Value, Baseline, Score float64

	// Summary is a one-line human-readable account.
	Summary string
}

// Query selects findings; zero values mean "no constraint".
type Query struct {
	// Since keeps findings whose bucket starts at or after it.
	Since time.Time
	// Window, when positive, keeps findings within this much feed time
	// of the newest closed bucket (an alternative to Since).
	Window time.Duration
	// Detector keeps findings from one detector.
	Detector string
	// Limit caps the result to the newest N findings (0 = all).
	Limit int
}

// Report is a query answer plus the engine provenance a caller needs to
// interpret it.
type Report struct {
	Findings []Finding
	// Generation is the semantics generation detectors currently use.
	Generation uint64
	// Stamp increments on every observable change (finding, bucket
	// close, semantics swap): clients compare two answers' stamps to
	// tell whether anything moved between them.
	Stamp uint64
	// LastBucket is the start of the newest closed bucket; zero before
	// the first close.
	LastBucket time.Time
	// Buckets and Total are lifetime counters (closed buckets, findings
	// ever made — Total counts dropped ones too).
	Buckets uint64
	Total   uint64
}

// HealthInfo is the provenance /v1/health renders: what runs, how far
// behind it is, and how much it has seen.
type HealthInfo struct {
	// Detectors are the active detector names.
	Detectors []string
	// Updates and Buckets are lifetime counts of processed updates and
	// closed buckets.
	Updates uint64
	Buckets uint64
	// Findings is the lifetime finding count; ByDetector splits it per
	// emitting detector.
	Findings   uint64
	ByDetector map[string]uint64
	// Generation is the semantics generation in force (0 until the
	// first SetSemantics).
	Generation uint64
	// LastBucket is the feed-time start of the newest closed bucket.
	LastBucket time.Time
	// Lag is the wall-clock time since a bucket last closed — the
	// detector lag: how stale detection is relative to now, regardless
	// of feed-time compression. Zero before the first close.
	Lag time.Duration
}

// series is one community's bucketed activity ring.
type series struct {
	counts [64]uint32 // closed-bucket ring, History entries live
	n      int        // closed buckets recorded (saturates at History)
	head   int        // next ring write index
	cur    uint32     // open-bucket count
	bursts uint64     // trailing burst bits, bit 0 = newest closed bucket
	run    int        // consecutive bursting closes (baseline freeze cap)
}

// history copies the live ring, oldest first, into dst.
func (s *series) history(dst []float64) []float64 {
	dst = dst[:0]
	for i := 0; i < s.n; i++ {
		idx := (s.head - s.n + i + 64) & 63
		dst = append(dst, float64(s.counts[idx]))
	}
	return dst
}

// asOpen is one AS's open-bucket path accounting.
type asOpen struct {
	through int // routes through the AS this bucket
	tagged  int // of those, routes carrying one of its info communities
}

// Engine is the single-writer detection state machine. Process owns all
// mutation and must be called from one goroutine (the Watcher's, or a
// driver's loop); queries take a read lock and may come from anywhere.
type Engine struct {
	mu  sync.RWMutex
	opt Options

	sem    core.InferenceSource // nil until the first SetSemantics
	semGen uint64

	cur       time.Time // current open bucket start; zero before first update
	lastClose time.Time // wall clock of the newest bucket close
	series    map[bgp.Community]*series
	open      map[uint32]*asOpen // per-AS open-bucket counts
	touched   []uint32           // ASes counted this bucket (reset list)

	spike     spikeDetector
	churn     churnDetector
	disappear disappearDetector

	updates  uint64
	buckets  uint64
	total    uint64 // findings ever made
	perDet   map[string]uint64
	stamp    uint64
	findings []Finding

	// scratch buffers reused across closes (History is capped at 64).
	hist  [64]float64
	devs  [64]float64
	infoB []uint16 // info-community αs of the update being processed
}

// NewEngine builds an engine with the given options and no semantics
// yet: detectors idle (counting, not judging) until SetSemantics.
func NewEngine(opt Options) *Engine {
	return &Engine{
		opt:    opt.withDefaults(),
		series: make(map[bgp.Community]*series),
		open:   make(map[uint32]*asOpen),
		perDet: make(map[string]uint64),

		spike:     spikeDetector{spiking: make(map[bgp.Community]bool)},
		churn:     churnDetector{flagged: make(map[bgp.Community]bool)},
		disappear: disappearDetector{as: make(map[uint32]*asBaseline)},
	}
}

// SetSemantics swaps in a freshly-published classification; detectors
// use it from the next lookup on, no restart involved. Call on every
// snapshot generation change.
func (e *Engine) SetSemantics(src core.InferenceSource) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sem = src
	e.semGen++
	e.stamp++
}

// Process feeds one in-order stream update into the open bucket,
// closing buckets (and running detectors) whenever the update's feed
// time has moved past the bucket boundary. Single caller only.
func (e *Engine) Process(u stream.Update) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.updates++

	t := u.Time.Truncate(e.opt.BucketSpan)
	switch {
	case e.cur.IsZero():
		e.cur = t
	case t.After(e.cur):
		steps := int(t.Sub(e.cur) / e.opt.BucketSpan)
		if steps > e.opt.History {
			// The feed jumped past everything we remember: close once to
			// flush, then restart the timeline at the new bucket.
			e.closeBucketLocked()
			e.resetSeriesLocked()
			e.cur = t
			e.opt.Logf("anomaly: feed time jumped %d buckets, series history reset", steps)
		} else {
			for i := 0; i < steps; i++ {
				e.closeBucketLocked()
				e.cur = e.cur.Add(e.opt.BucketSpan)
			}
		}
	}
	// Stragglers older than the open bucket are counted into it rather
	// than dropped: conservative, like the window.

	for _, c := range u.Comms {
		s := e.series[c]
		if s == nil {
			s = &series{}
			e.series[c] = s
		}
		s.cur++
	}

	// Per-AS accounting needs semantics (which communities are
	// information); before the first classification there is nothing to
	// learn or judge.
	if e.sem == nil {
		return
	}
	e.infoB = e.infoB[:0]
	for _, c := range u.Comms {
		if e.sem.Category(c) == dict.CatInformation {
			e.infoB = append(e.infoB, c.ASN())
		}
	}
	path := u.Path
	if len(path) == 0 {
		return
	}
	for i := 1; i < len(path); i++ { // skip the vantage point itself
		asn := path[i]
		dup := false
		for j := 1; j < i; j++ {
			if path[j] == asn { // prepends count once
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		st := e.open[asn]
		if st == nil {
			st = &asOpen{}
			e.open[asn] = st
			e.touched = append(e.touched, asn)
		} else if st.through == 0 && st.tagged == 0 {
			e.touched = append(e.touched, asn)
		}
		st.through++
		if asn <= 0xffff {
			for _, b := range e.infoB {
				if uint32(b) == asn {
					st.tagged++
					break
				}
			}
		}
	}
}

// CloseUpTo closes every bucket whose span ends at or before t — the
// flush a finite feed (or a test) calls after its last update, since
// buckets otherwise close only when a later update arrives.
func (e *Engine) CloseUpTo(t time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cur.IsZero() {
		return
	}
	for !e.cur.Add(e.opt.BucketSpan).After(t) {
		e.closeBucketLocked()
		e.cur = e.cur.Add(e.opt.BucketSpan)
	}
}

// resetSeriesLocked zeroes all ring and open-bucket state.
func (e *Engine) resetSeriesLocked() {
	e.series = make(map[bgp.Community]*series)
	e.open = make(map[uint32]*asOpen)
	e.touched = e.touched[:0]
}

// closeBucketLocked seals the open bucket: computes per-series robust
// statistics, runs the detectors once semantics exist, and rolls the
// rings.
func (e *Engine) closeBucketLocked() {
	th := &e.opt.Thresholds
	judge := e.sem != nil
	emit := e.emitLocked

	for c, s := range e.series {
		x := float64(s.cur)
		hist := s.history(e.hist[:0])
		med, mad := medianMAD(hist, e.devs[:0])
		thr := th.burst(med, mad)
		// A bucket "bursts" when it clears the burst level; bursting
		// values are kept out of the baseline ring (frozen baseline) so
		// an excursion cannot mask itself — capped, so a genuine level
		// shift is eventually accepted as the new normal.
		burst := s.n >= 2 && x >= thr
		s.bursts = s.bursts<<1 | btoi(burst)
		freeze := burst && s.run < e.opt.History/2
		if burst {
			s.run++
		} else {
			s.run = 0
		}

		if judge && s.n >= th.SpikeWarmup {
			stat := seriesStat{
				comm:      c,
				count:     int(s.cur),
				median:    med,
				mad:       mad,
				threshold: thr,
				histLen:   s.n,
				category:  e.sem.Category(c),
				burstBits: s.bursts,
			}
			e.spike.close(&stat, emit)
			e.churn.close(th, &stat, emit)
		}

		if !freeze {
			s.counts[s.head] = s.cur
			s.head = (s.head + 1) & 63
			if s.n < e.opt.History {
				s.n++
			}
		}
		s.cur = 0
	}

	for _, asn := range e.touched {
		st := e.open[asn]
		if judge {
			e.disappear.close(th, asn, st, emit)
		}
		st.through, st.tagged = 0, 0
	}
	e.touched = e.touched[:0]

	e.buckets++
	e.lastClose = time.Now()
	e.stamp++
}

// emitLocked stamps and stores one finding.
func (e *Engine) emitLocked(f Finding) {
	e.total++
	e.perDet[f.Detector]++
	f.ID = e.total
	f.Generation = e.semGen
	f.Bucket = e.cur
	f.Span = e.opt.BucketSpan
	if len(e.findings) >= e.opt.MaxFindings {
		half := len(e.findings) / 2
		e.findings = append(e.findings[:0], e.findings[half:]...)
	}
	e.findings = append(e.findings, f)
	e.stamp++
	e.opt.Logf("anomaly: %s", f.Summary)
}

// Query answers a windowed finding query.
func (e *Engine) Query(q Query) Report {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var lastBucket time.Time
	if e.buckets > 0 {
		lastBucket = e.cur.Add(-e.opt.BucketSpan)
	}
	since := q.Since
	if q.Window > 0 {
		ws := lastBucket.Add(-q.Window)
		if ws.After(since) {
			since = ws
		}
	}
	rep := Report{
		Generation: e.semGen,
		Stamp:      e.stamp,
		LastBucket: lastBucket,
		Buckets:    e.buckets,
		Total:      e.total,
	}
	for i := len(e.findings) - 1; i >= 0; i-- {
		f := e.findings[i]
		if !since.IsZero() && f.Bucket.Before(since) {
			continue
		}
		if q.Detector != "" && f.Detector != q.Detector {
			continue
		}
		rep.Findings = append(rep.Findings, f)
		if q.Limit > 0 && len(rep.Findings) >= q.Limit {
			break
		}
	}
	// Newest-first scan for the limit; present oldest-first.
	sort.Slice(rep.Findings, func(i, j int) bool { return rep.Findings[i].ID < rep.Findings[j].ID })
	return rep
}

// Health reports detector provenance and lag.
func (e *Engine) Health() HealthInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	h := HealthInfo{
		Updates:    e.updates,
		Buckets:    e.buckets,
		Findings:   e.total,
		Generation: e.semGen,
	}
	if e.buckets > 0 {
		h.LastBucket = e.cur.Add(-e.opt.BucketSpan)
		h.Lag = time.Since(e.lastClose)
	}
	h.Detectors = []string{spikeName, churnName, disappearName}
	h.ByDetector = make(map[string]uint64, len(e.perDet))
	for name, n := range e.perDet {
		h.ByDetector[name] = n
	}
	return h
}

// medianMAD computes the median and the median absolute deviation of
// xs, using devs as scratch. xs is sorted in place. Empty xs yields
// (0, 0).
func medianMAD(xs, devs []float64) (med, mad float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	med = quantile(xs)
	for _, x := range xs {
		d := x - med
		if d < 0 {
			d = -d
		}
		devs = append(devs, d)
	}
	sort.Float64s(devs)
	return med, quantile(devs)
}

// quantile returns the median of a sorted slice.
func quantile(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func btoi(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// String renders a finding subject for summaries.
func (f *Finding) subject() string {
	if f.HasCommunity {
		return f.Community.String()
	}
	return fmt.Sprintf("AS%d", f.ASN)
}

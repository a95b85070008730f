package stream

import (
	"time"

	"bgpintent/internal/core"
)

// WindowConfig controls the rolling time window over the tuple store.
type WindowConfig struct {
	// Span is the total window length in feed time: updates older than
	// Span behind the newest bucket are evicted. 0 means an unbounded
	// window (no eviction) — the batch semantics.
	Span time.Duration
	// Buckets is the eviction granularity: the window is Span split
	// into this many buckets, dropped whole as feed time advances.
	// Values below 2 are raised to 2 (newest + at least one aged).
	Buckets int
}

// WindowStats are the window's corpus counters, used for snapshot
// provenance.
type WindowStats struct {
	Updates          int // live (unevicted) updates
	Evicted          uint64
	Rebuilds         uint64 // store rebuilds (one per bucket eviction batch)
	Tuples           int
	Paths            int
	VantagePoints    int
	Communities      int
	LargeCommunities int
	// DirtyAlphas is always 0: every generation is a full classification,
	// so no α awaits one. The field remains for readers written against
	// the incremental classifier.
	DirtyAlphas int
	// Oldest/Newest bound the live window in feed time; zero when empty.
	Oldest, Newest time.Time
}

// Window is a rolling time window of updates feeding a columnar tuple
// store incrementally. Adds go straight into the store (cheap,
// allocation-light), classic and large communities keyed alike, exactly
// as a batch load keys them; when feed time advances past a bucket
// boundary, whole buckets fall off the tail and the store is rebuilt
// from the survivors — O(window), amortized once per bucket span.
//
// Window is not safe for concurrent use; the Ingestor owns it from a
// single goroutine and publishes immutable classification results.
type Window struct {
	cfg   WindowConfig
	store *core.TupleStore

	buckets []windowBucket
	base    time.Time // start of buckets[0]; zero until the first add

	evicted  uint64
	rebuilds uint64
}

type windowBucket struct {
	start   time.Time
	updates []Update
	// oldest and newest bound the feed times of the bucket's updates,
	// which a straggler can put before start; zero while it has none.
	oldest, newest time.Time
}

// NewWindow returns an empty window.
func NewWindow(cfg WindowConfig) *Window {
	if cfg.Span > 0 && cfg.Buckets < 2 {
		cfg.Buckets = 2
	}
	return &Window{cfg: cfg, store: core.NewTupleStore()}
}

// bucketSpan is the feed-time length of one bucket.
func (w *Window) bucketSpan() time.Duration {
	return w.cfg.Span / time.Duration(w.cfg.Buckets)
}

// Add applies one update: rotates/evicts buckets if the update's feed
// time crossed a boundary, then feeds the store.
// Updates are expected in roughly feed-time order (the sequence
// protocol guarantees it); stragglers land in the newest bucket, which
// only makes eviction conservative, never wrong.
func (w *Window) Add(u Update) {
	if w.cfg.Span > 0 {
		w.rotate(u.Time)
	} else if w.buckets == nil {
		w.buckets = []windowBucket{{start: u.Time}}
	}
	b := &w.buckets[len(w.buckets)-1]
	if len(b.updates) == 0 || u.Time.Before(b.oldest) {
		b.oldest = u.Time
	}
	if len(b.updates) == 0 || u.Time.After(b.newest) {
		b.newest = u.Time
	}
	b.updates = append(b.updates, u)
	w.apply(&u)
}

// apply feeds one update into the store.
func (w *Window) apply(u *Update) {
	w.store.AddViewLarge(u.VP, u.Path, u.Comms, u.LargeComms)
}

// rotate advances the bucket ring to cover feed time t, evicting
// buckets that fell out of the window and rebuilding the store when
// any did.
func (w *Window) rotate(t time.Time) {
	span := w.bucketSpan()
	if w.base.IsZero() {
		w.base = t.Truncate(span)
		w.buckets = append(w.buckets, windowBucket{start: w.base})
		return
	}
	last := w.buckets[len(w.buckets)-1].start
	if t.Before(last.Add(span)) {
		return // stragglers and same-bucket updates: nothing to rotate
	}
	// Open buckets up to the one containing t. A jump past the whole
	// window (a long stall, a looped feed wrapping) opens only the
	// buckets that can survive — intermediate empties would all be
	// evicted immediately anyway.
	steps := int64(t.Sub(last) / span)
	if skip := steps - int64(w.cfg.Buckets); skip > 0 {
		last = last.Add(time.Duration(skip) * span)
		steps = int64(w.cfg.Buckets)
	}
	for i := int64(1); i <= steps; i++ {
		w.buckets = append(w.buckets, windowBucket{start: last.Add(time.Duration(i) * span)})
	}
	if len(w.buckets) <= w.cfg.Buckets {
		return
	}
	// Evict whole buckets off the tail, then rebuild the store from the
	// survivors: the columnar store dedups tuples and interns paths, so
	// removal is a rebuild, amortized to once per bucket span.
	evict := w.buckets[:len(w.buckets)-w.cfg.Buckets]
	w.buckets = w.buckets[len(w.buckets)-w.cfg.Buckets:]
	for _, b := range evict {
		w.evicted += uint64(len(b.updates))
	}
	w.rebuilds++
	w.store = core.NewTupleStore()
	for bi := range w.buckets {
		for i := range w.buckets[bi].updates {
			w.apply(&w.buckets[bi].updates[i])
		}
	}
}

// Store exposes the live tuple store. The caller must not retain it
// across Add calls that may rotate buckets (the store is replaced on
// eviction); classify from the Ingestor goroutine only.
func (w *Window) Store() *core.TupleStore { return w.store }

// TakeDirty returns nil: the window tracks no dirty αs, because every
// generation is a full classification (core.ClassifyDelta is
// core.ClassifyContext). It remains for callers written against the
// incremental classifier.
func (w *Window) TakeDirty() map[uint16]bool { return nil }

// Stats snapshots the window counters. It runs once per published
// generation, so it counts distinct communities and vantage points
// without copying or sorting them, and reads the feed-time bounds off the
// buckets' own, kept by Add: O(buckets), no pass over the updates.
func (w *Window) Stats() WindowStats {
	st := WindowStats{
		Evicted:          w.evicted,
		Rebuilds:         w.rebuilds,
		Tuples:           w.store.Len(),
		Paths:            w.store.PathCount(),
		LargeCommunities: w.store.LargeCommunityCount(),
	}
	st.Communities, st.VantagePoints = w.store.DistinctCounts()
	for bi := range w.buckets {
		b := &w.buckets[bi]
		if len(b.updates) == 0 {
			continue
		}
		if st.Updates == 0 || b.oldest.Before(st.Oldest) {
			st.Oldest = b.oldest
		}
		if st.Updates == 0 || b.newest.After(st.Newest) {
			st.Newest = b.newest
		}
		st.Updates += len(b.updates)
	}
	return st
}

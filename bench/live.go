package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"bgpintent/internal/anomaly"
	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/dict"
	"bgpintent/internal/stream"
)

// The live window: six one-hour buckets. A generation is published once
// per bucket's worth of updates (the wall-clock trigger is off so the
// generation count follows the feed, not the machine), which makes every
// feed hour the same work: its share of the day's adds, one bucket
// eviction with its store rebuild, one delta reclassification.
const (
	liveSpan    = 6 * time.Hour
	liveBuckets = 6
	liveBucket  = liveSpan / liveBuckets
)

// stampSource wraps a feed so that the benchmark knows when each update
// was handed to the Ingestor, and ends the feed at the first bucket
// boundary after the measured window is over. The first liveSpan of
// feed time fills the window and is not measured; measurement starts at
// the next bucket boundary, so it covers whole buckets only. Only the
// ingest goroutine calls Recv; the benchmark reads the fields after
// Wait has returned.
type stampSource struct {
	src    stream.Source
	window time.Duration

	feedNs []int64 // feed time of update seq-1
	recvNs []int64 // wall time (since t0) update seq-1 was delivered
	endNs  int64   // wall time (since t0) the feed was ended
	t0     time.Time

	measureFromFeed time.Time // zero until the first update
	startSeq        uint64    // first measured update; 0 until measuring
	startWall       time.Time
	deadline        time.Time
}

func (s *stampSource) Connect(ctx context.Context, after uint64) (stream.Session, error) {
	sess, err := s.src.Connect(ctx, after)
	if err != nil {
		return nil, err
	}
	return &stampSession{s: s, sess: sess}, nil
}

type stampSession struct {
	s    *stampSource
	sess stream.Session
}

func (ss *stampSession) Close() error { return ss.sess.Close() }

func (ss *stampSession) Recv(ctx context.Context) (stream.Update, error) {
	s := ss.s
	u, err := ss.sess.Recv(ctx)
	if err != nil {
		return u, err
	}
	now := time.Now()
	if int(u.Seq) != len(s.recvNs)+1 {
		return u, nil // a resumed session redelivering: already stamped
	}
	feed := u.Time.UnixNano()
	if s.measureFromFeed.IsZero() {
		s.measureFromFeed = u.Time.Add(liveSpan)
	}
	if n := len(s.feedNs); n > 0 && feed/int64(liveBucket) != s.feedNs[n-1]/int64(liveBucket) {
		// u opens a new bucket.
		switch {
		case s.startSeq == 0 && !u.Time.Before(s.measureFromFeed):
			s.startSeq, s.startWall, s.deadline = u.Seq, now, now.Add(s.window)
		case s.startSeq != 0 && !now.Before(s.deadline):
			s.endNs = now.Sub(s.t0).Nanoseconds()
			return stream.Update{}, io.EOF
		}
	}
	s.feedNs = append(s.feedNs, feed)
	s.recvNs = append(s.recvNs, now.Sub(s.t0).Nanoseconds())
	return u, nil
}

// liveRun is one drained feed: what the Ingestor published and when.
type liveRun struct {
	src     *stampSource
	stats   stream.Stats
	wall    time.Duration // first measured update delivered -> feed ended
	lagsMs  []float64     // OnSnapshot time minus Recv time of its lastSeq, measured generations
	final   *core.Inferences
	heap    float64 // live heap with the window alive, minus the pre-Start baseline
	dropped uint64  // updates the anomaly watcher's queue refused
}

func (r *liveRun) measuredUpdates() float64 {
	return float64(r.stats.Updates - (r.src.startSeq - 1))
}

// nsPerUpdateByBucket returns the wall time per update of every
// measured bucket (first delivery of the bucket to first delivery of the
// next), sorted.
func (r *liveRun) nsPerUpdateByBucket() []float64 {
	s := r.src
	var out []float64
	start := int(s.startSeq) - 1
	for i := start + 1; i <= len(s.feedNs); i++ {
		end := s.endNs
		if i < len(s.feedNs) {
			if s.feedNs[i]/int64(liveBucket) == s.feedNs[i-1]/int64(liveBucket) {
				continue
			}
			end = s.recvNs[i]
		}
		out = append(out, float64(end-s.recvNs[start])/float64(i-start))
		start = i
	}
	sort.Float64s(out)
	return out
}

// liveWorkload drains the simulated feed at full speed through
// stream.Start wired the way bgpintent.StartLive wires it: rolling
// window, delta reclassification per generation, the anomaly watcher
// tapped on OnUpdate and fed every published classification.
type liveWorkload struct {
	w         *world
	src       *stream.SimSource
	perBucket int // updates per window bucket: the generation interval
}

func (l *liveWorkload) name() string { return "live-window" }

// setup takes the seed to a feed ready to connect: topology, simulator
// and day 0 of the endless feed generated.
func (l *liveWorkload) setup(ctx context.Context, e *env) error {
	w, err := buildWorld(e.seed, e.sc, false)
	if err != nil {
		return err
	}
	l.w = w
	l.src = stream.NewSimSource(w.sim, stream.SimConfig{Days: 1, Loop: true})
	sess, err := l.src.Connect(ctx, 0) // generates and caches the day
	if err != nil {
		return err
	}
	defer sess.Close()
	first, err := sess.Recv(ctx)
	if err != nil {
		return err
	}
	day := 1
	for {
		u, err := sess.Recv(ctx)
		if err != nil {
			return err
		}
		if u.Time.Sub(first.Time) >= 24*time.Hour {
			break
		}
		day++
	}
	l.perBucket = max(day/int(24*time.Hour/liveBucket), 1)
	return nil
}

func (l *liveWorkload) teardown() error {
	l.w, l.src, l.perBucket = nil, nil, 0
	return nil
}

// run drains the feed for window (after the unmeasured fill) and tears
// the Ingestor and the watcher down before returning.
func (l *liveWorkload) run(ctx context.Context, window time.Duration, rec *recorder) (*liveRun, error) {
	const reserve = 1 << 20 // stamps for a million updates, allocated before the heap baseline
	src := &stampSource{
		src: l.src, window: window, t0: time.Now(),
		feedNs: make([]int64, 0, reserve), recvNs: make([]int64, 0, reserve),
	}
	run := &liveRun{src: src}
	base := heapAfterGC()

	wctx, stopWatcher := context.WithCancel(ctx)
	defer stopWatcher()
	watch := anomaly.StartWatcher(wctx, anomaly.NewEngine(anomaly.Options{}), 0)

	root := rec.start("live", 0, -1)
	gen, genStart, lastGen := 0, time.Now(), uint64(0)
	in, err := stream.Start(ctx, stream.Config{
		Source:           src,
		Window:           stream.WindowConfig{Span: liveSpan, Buckets: liveBuckets},
		Classify:         core.DefaultOptions(),
		OnUpdate:         watch.Offer,
		SnapshotEvery:    l.perBucket,
		SnapshotInterval: -1,
		Seed:             1,
		OnSnapshot: func(inf *core.Inferences, st stream.WindowStats, lastSeq uint64) {
			now := time.Now()
			watch.SetSemantics(inf)
			run.final = inf
			recv := src.t0.Add(time.Duration(src.recvNs[lastSeq-1]))
			if src.startSeq != 0 && lastSeq >= src.startSeq && lastSeq-lastGen >= uint64(l.perBucket) {
				// (The generation the end of the feed forces covers a few
				// updates only and is not a sample.)
				run.lagsMs = append(run.lagsMs, float64(now.Sub(recv))/1e6)
			}
			lastGen = lastSeq
			id := rec.add("generation", gen, root, genStart, now.Sub(genStart),
				"last_seq", int64(lastSeq), "tuples", int64(st.Tuples), "rebuilds", int64(st.Rebuilds))
			rec.add("publish", gen, id, recv, now.Sub(recv), "dirty_alphas", int64(st.DirtyAlphas))
			gen, genStart = gen+1, now
		},
	})
	if err != nil {
		return nil, err
	}
	err = in.Wait()
	run.wall = src.t0.Add(time.Duration(src.endNs)).Sub(src.startWall)
	run.stats = in.Stats()
	rec.end(root, "updates", int64(run.stats.Updates), "generations", int64(run.stats.Snapshots))
	run.heap = heapAfterGC() - base
	stopWatcher()
	<-watch.Done()
	run.dropped = watch.Health().Dropped
	if err != nil {
		return nil, fmt.Errorf("ingestor: %w", err)
	}
	if src.startSeq == 0 {
		return nil, errors.New("feed ended before the window filled")
	}
	return run, nil
}

// labelDigest hashes every (community, label) pair of an inference in
// community order: the TSV a user would get, without rendering it.
func labelDigest(inf *core.Inferences) [sha256.Size]byte {
	type row struct {
		c   bgp.Community
		cat dict.Category
	}
	var rows []row
	inf.EachLabeled(func(c bgp.Community, cat dict.Category) bool {
		rows = append(rows, row{c, cat})
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].c < rows[j].c })
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%s\t%s\n", r.c, r.cat)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// check verifies a drained feed: every delivered update applied exactly
// once, and the final generation equal to a from-scratch classification
// of exactly the updates the window must still hold.
func (l *liveWorkload) check(ctx context.Context, o *outcome, run *liveRun) error {
	delivered := uint64(len(run.src.recvNs))
	o.attempted += int64(delivered)
	st := run.stats
	if st.Updates != delivered || st.LastSeq != delivered {
		lost := int64(delivered) - int64(st.Updates)
		o.fail(max(lost, 1), "%d updates delivered, %d applied, last seq %d", delivered, st.Updates, st.LastSeq)
	}
	if st.Duplicates+st.Reordered+st.Resyncs+st.Disconnects+st.Stalls+st.CorruptFrames > 0 {
		o.fail(1, "clean feed reported faults: %+v", st)
	}
	if st.Window.Rebuilds == 0 {
		o.fail(1, "window never evicted a bucket")
	}

	// The window keeps the newest liveBuckets buckets, aligned to
	// absolute feed time; everything older has been evicted.
	o.attempted++
	bucket := liveSpan / liveBuckets
	newest := time.Unix(0, run.src.feedNs[delivered-1]).Truncate(bucket)
	cutoff := newest.Add(-time.Duration(liveBuckets-1) * bucket).UnixNano()
	first := sort.Search(len(run.src.feedNs), func(i int) bool { return run.src.feedNs[i] >= cutoff })
	sess, err := l.src.Connect(ctx, uint64(first))
	if err != nil {
		return err
	}
	defer sess.Close()
	oracle := core.NewTupleStore()
	for seq := uint64(first) + 1; seq <= delivered; seq++ {
		u, err := sess.Recv(ctx)
		if err != nil {
			return fmt.Errorf("replaying update %d: %w", seq, err)
		}
		oracle.AddView(u.VP, u.Path, u.Comms)
		oracle.NoteLarge(u.LargeComms)
	}
	want, err := core.ClassifyContext(ctx, oracle, core.DefaultOptions())
	if err != nil {
		return err
	}
	if run.final == nil || labelDigest(run.final) != labelDigest(want) {
		o.fail(1, "final generation differs from a from-scratch classification of the live window (%d updates)", delivered-uint64(first))
	}
	return nil
}

func (l *liveWorkload) measure(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	run, err := l.run(ctx, e.seconds, nil)
	if err != nil {
		return nil, err
	}
	if err := l.check(ctx, o, run); err != nil {
		return nil, err
	}
	rate := run.measuredUpdates() / run.wall.Seconds()
	lags := sortedCopy(run.lagsMs)
	tuples := float64(run.stats.Window.Tuples)

	o.metrics.set("ns_per_unit", percentile(run.nsPerUpdateByBucket(), fastQuartile), "ns")
	o.metrics.set("op_us", percentile(lags, fastQuartile)*1e3, "us")
	o.metrics.set("heap_bytes_per_tuple", run.heap/tuples, "B")

	o.named.set("live_updates_per_s", rate, "1/s")
	o.named.set("publish_lag_p50_ms", percentile(lags, 0.5), "ms")
	o.named.set("publish_lag_p75_ms", percentile(lags, 0.75), "ms")
	o.named.set("generations", float64(len(lags)), "count")
	o.named.set("updates", run.measuredUpdates(), "count")
	o.named.set("window_tuples", tuples, "count")
	return o, nil
}

func (l *liveWorkload) trace(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	window := e.seconds / 3
	untraced, err := l.run(ctx, window, nil)
	if err != nil {
		return nil, err
	}
	traced, err := l.run(ctx, window, e.rec)
	if err != nil {
		return nil, err
	}
	if err := l.check(ctx, o, traced); err != nil {
		return nil, err
	}
	o.metrics.set("trace.overhead_pct", overheadPct(
		untraced.wall.Seconds()/untraced.measuredUpdates(),
		traced.wall.Seconds()/traced.measuredUpdates()), "%")

	// The layer probes read MRT files and a snapshot, which this
	// workload has no use for: make them now from the same seed.
	w, err := buildWorld(e.seed, e.sc, true)
	if err != nil {
		return nil, err
	}
	li, err := makeLayerInputs(ctx, e, w)
	if err != nil {
		return nil, err
	}
	if err := probeLayers(ctx, e, li, o); err != nil {
		return nil, err
	}
	o.metrics.set("anomaly.offer_drops", float64(traced.dropped), "count")
	return o, nil
}

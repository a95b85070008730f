package bgpintent

import (
	"context"
	"fmt"
	"time"

	"bgpintent/internal/anomaly"
	"bgpintent/internal/core"
	"bgpintent/internal/corpus"
	"bgpintent/internal/simulate"
	"bgpintent/internal/stream"
	"bgpintent/internal/topology"
)

// LiveOptions configure StartLive: the simulated feed, the optional
// fault injector, the rolling window, and the Ingestor's robustness
// knobs. Zero values mean the documented defaults throughout.
type LiveOptions struct {
	// Seed selects the deterministic feed (0 means 1); Days is how many
	// distinct simulated days it covers (default 2); Small selects the
	// test-sized synthetic Internet instead of benchmark scale.
	Seed  int64
	Days  int
	Small bool
	// Loop replays the days forever (an endless feed); without it the
	// feed ends and the Ingestor finishes with a final snapshot.
	Loop bool
	// Interval paces deliveries in wall time; 0 delivers as fast as the
	// Ingestor reads.
	Interval time.Duration

	// Events, when non-empty, scripts ground-truth anomalies into the
	// feed (see simulate.ParseScript):
	// "spike:<asn>:<value>@<at>+<dur>#<count>" bursts a community,
	// "strip:<asn>@<at>+<dur>" strips communities on routes through an
	// AS, "flap:<asn>:<value>@<at>+<dur>#<cycles>x<count>" toggles one;
	// events are joined with ";" and offsets are relative to the feed
	// epoch. With Loop the events play once at their absolute times.
	Events string

	// Anomaly enables CommunityWatch: a streaming detection engine tap
	// on the feed, queried via Live.Anomalies. AnomalyBucket is the
	// feed-time bucket width (default 30m), AnomalyHistory the baseline
	// buckets kept per series (default 32).
	Anomaly        bool
	AnomalyBucket  time.Duration
	AnomalyHistory int

	// FaultRate, when positive, wraps the feed in the deterministic
	// fault injector: each delivery fails with this probability, drawing
	// uniformly from disconnects, stalls, corrupt frames, duplicates and
	// reorderings. FaultSeed makes the schedule replayable; FaultStall
	// is the injected stall length (default 1s).
	FaultRate  float64
	FaultSeed  int64
	FaultStall time.Duration

	// Params are the classifier parameters for every published
	// snapshot. Each generation runs the batch method over the window:
	// sibling-aware, with the as2org map the synthetic batch corpus and
	// gencorpus's as2org file are built from, and classifying large
	// communities beside classic ones.
	Params Params

	// WindowSpan bounds the rolling window in feed time (0 keeps
	// everything — batch semantics); WindowBuckets is the eviction
	// granularity (default 6).
	WindowSpan    time.Duration
	WindowBuckets int

	// Robustness knobs, mirroring the stream package defaults:
	// ReadTimeout (30s) bounds one read before the feed counts as
	// stalled; StaleAfter (2m) is the staleness budget /v1/health keys
	// on; RetryBudget (8) is how many consecutive no-progress cycles
	// are tolerated before degrading to stale-but-serving (negative:
	// never give up). Reconnect backoff keeps the stream defaults
	// (100ms doubling to 30s).
	ReadTimeout time.Duration
	StaleAfter  time.Duration
	RetryBudget int

	// SnapshotEvery (5000 updates) and SnapshotInterval (10s) bound how
	// much feed progress accumulates between published snapshots;
	// negative disables that trigger.
	SnapshotEvery    int
	SnapshotInterval time.Duration

	// OnSnapshot receives every published classification, called from
	// the ingest goroutine: swap and return, do not block.
	OnSnapshot func(res *Result, info SnapshotInfo, lastSeq uint64)
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// LiveHealth is the degradation-aware health verdict of a live feed.
type LiveHealth struct {
	// Status is "healthy", "stale" (no fresh update within the staleness
	// budget) or "degraded" (feed abandoned); a stale or degraded feed
	// still serves its last good snapshot.
	Status string
	// State is the connection state: connecting, live, down, or ended.
	State string
	// LastSeq and LastUpdate identify the freshest applied feed update;
	// Staleness is the wall-clock age of LastUpdate.
	LastSeq    uint64
	LastUpdate time.Time
	Staleness  time.Duration
	// Updates, Reconnects and Snapshots are lifetime counters.
	Updates    uint64
	Reconnects uint64
	Snapshots  uint64
}

// Live is a running live-feed ingestion: a streaming source consumed
// through the fault-tolerant Ingestor, publishing classification
// snapshots via OnSnapshot.
type Live struct {
	in    *stream.Ingestor
	watch *anomaly.Watcher // nil unless Anomaly was enabled
}

// StartLive builds the simulated feed and starts ingesting it. It
// returns immediately; snapshots arrive via opts.OnSnapshot, health via
// Health, and termination via Wait. Canceling ctx stops ingestion
// promptly with no goroutine left behind.
func StartLive(ctx context.Context, opts LiveOptions) (*Live, error) {
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Days == 0 {
		opts.Days = 2
	}
	if opts.WindowBuckets == 0 {
		opts.WindowBuckets = 6
	}

	tcfg, scfg := topology.DefaultConfig(), simulate.DefaultConfig()
	if opts.Small {
		tcfg, scfg = topology.TinyConfig(), simulate.TinyConfig()
	}
	tcfg.Seed, scfg.Seed = opts.Seed, opts.Seed
	topo, err := topology.Generate(tcfg)
	if err != nil {
		return nil, fmt.Errorf("bgpintent: generating live topology: %w", err)
	}

	var script *simulate.Script
	if opts.Events != "" {
		script, err = simulate.ParseScript(opts.Events)
		if err != nil {
			return nil, fmt.Errorf("bgpintent: parsing event script: %w", err)
		}
	}

	var src stream.Source = stream.NewSimSource(simulate.New(topo, scfg), stream.SimConfig{
		Days:     opts.Days,
		Loop:     opts.Loop,
		Interval: opts.Interval,
		Script:   script,
	})
	if opts.FaultRate > 0 {
		src = stream.NewFaultSource(src, stream.FaultConfig{
			Seed:     opts.FaultSeed,
			Rate:     opts.FaultRate,
			StallFor: opts.FaultStall,
		})
	}

	copts := opts.Params.coreOptions()
	copts.Orgs = corpus.OrgMapOf(topo, corpus.DefaultConfig().OrgCoverage)

	var watch *anomaly.Watcher
	var onUpdate func(u stream.Update)
	if opts.Anomaly {
		eng := anomaly.NewEngine(anomaly.Options{
			BucketSpan: opts.AnomalyBucket,
			History:    opts.AnomalyHistory,
			Logf:       opts.Logf,
		})
		watch = anomaly.StartWatcher(ctx, eng, 0)
		onUpdate = watch.Offer
	}

	scfgSource := fmt.Sprintf("live-sim(seed=%d,days=%d,loop=%v,fault=%g)",
		opts.Seed, opts.Days, opts.Loop, opts.FaultRate)
	var onSnap func(inf *core.Inferences, st stream.WindowStats, lastSeq uint64)
	if opts.OnSnapshot != nil || watch != nil {
		cb := opts.OnSnapshot
		onSnap = func(inf *core.Inferences, st stream.WindowStats, lastSeq uint64) {
			if watch != nil {
				// Every published classification generation refreshes the
				// detectors' semantics — findings attribute with the newest
				// inference, no restart involved.
				watch.SetSemantics(inf)
			}
			if cb == nil {
				return
			}
			cb(newResult(inf), SnapshotInfo{
				Created:          time.Now(),
				Source:           scfgSource,
				Tuples:           st.Tuples,
				Paths:            st.Paths,
				VantagePoints:    st.VantagePoints,
				Communities:      st.Communities,
				LargeCommunities: st.LargeCommunities,
			}, lastSeq)
		}
	}

	in, err := stream.Start(ctx, stream.Config{
		Source:   src,
		Window:   stream.WindowConfig{Span: opts.WindowSpan, Buckets: opts.WindowBuckets},
		Classify: copts,
		OnUpdate: onUpdate,

		ReadTimeout: opts.ReadTimeout,
		StaleAfter:  opts.StaleAfter,
		RetryBudget: opts.RetryBudget,

		SnapshotEvery:    opts.SnapshotEvery,
		SnapshotInterval: opts.SnapshotInterval,
		Seed:             opts.Seed,
		OnSnapshot:       onSnap,
		Logf:             opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	return &Live{in: in, watch: watch}, nil
}

// Anomalies returns the CommunityWatch watcher when LiveOptions.Anomaly
// was set, nil otherwise. The watcher serves windowed finding queries
// and detection health, and satisfies serve.AnomalySource.
func (l *Live) Anomalies() *anomaly.Watcher { return l.watch }

// Health reports the feed's current degradation-aware verdict.
func (l *Live) Health() LiveHealth {
	h := l.in.Health()
	st := l.in.Stats()
	return LiveHealth{
		Status:     h.Status,
		State:      h.State.String(),
		LastSeq:    h.LastSeq,
		LastUpdate: h.LastUpdate,
		Staleness:  h.Staleness,
		Updates:    st.Updates,
		Reconnects: st.Reconnects,
		Snapshots:  st.Snapshots,
	}
}

// Wait blocks until ingestion stops: nil after a finite feed completed,
// the context error after cancellation, or stream.ErrRetryBudget after
// the feed was abandoned (the last snapshot keeps serving either way).
func (l *Live) Wait() error { return l.in.Wait() }

// EmptyResult returns a classification of an empty corpus — the
// placeholder a live-mode server serves until the first feed snapshot
// arrives.
func EmptyResult() (*Result, SnapshotInfo) {
	inf, err := core.ClassifyContext(context.Background(), core.NewTupleStore(), core.DefaultOptions())
	if err != nil {
		// Unreachable: an empty store classifies without I/O and the
		// background context never cancels.
		panic(err)
	}
	return newResult(inf), SnapshotInfo{Created: time.Now(), Source: "empty"}
}

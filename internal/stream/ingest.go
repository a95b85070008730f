package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"bgpintent/internal/core"
)

// Defaults for Config fields left zero.
const (
	DefaultReadTimeout      = 30 * time.Second
	DefaultStaleAfter       = 2 * time.Minute
	DefaultBackoffBase      = 100 * time.Millisecond
	DefaultBackoffMax       = 30 * time.Second
	DefaultRetryBudget      = 8
	DefaultReorderWindow    = 64
	DefaultSnapshotEvery    = 5000
	DefaultSnapshotInterval = 10 * time.Second
)

// ErrRetryBudget is returned by Wait when the Ingestor gave up
// reconnecting: RetryBudget consecutive connect/read cycles made no
// progress. The window and the last published snapshot remain valid —
// the service degrades to stale-but-serving, it does not crash.
var ErrRetryBudget = errors.New("stream: retry budget exhausted, feed abandoned")

// errStalled marks a read deadline expiry (silent feed hang).
var errStalled = errors.New("stream: read stalled past deadline")

// errGap marks an unrecoverable ordering gap: the reorder buffer
// overflowed or the session ended with buffered out-of-order updates,
// so the Ingestor resynchronizes by reconnecting from the last applied
// sequence number.
var errGap = errors.New("stream: sequence gap, resynchronizing")

// Config configures an Ingestor.
type Config struct {
	// Source is the feed to consume.
	Source Source
	// Window configures the rolling window over the tuple store.
	Window WindowConfig
	// Classify are the classifier options for every generation, used
	// exactly as a batch classification uses them: Orgs (as2org) makes
	// the on-path test sibling-aware, and the window's large communities
	// are classified beside its classic ones.
	Classify core.Options

	// ReadTimeout bounds one Recv: a feed silent for longer is treated
	// as stalled and the session is torn down and re-established.
	ReadTimeout time.Duration
	// StaleAfter is the wall-clock age of the last applied update
	// beyond which Health reports the serving data as stale.
	StaleAfter time.Duration
	// BackoffBase/BackoffMax shape the jittered exponential backoff
	// between reconnect attempts.
	BackoffBase, BackoffMax time.Duration
	// RetryBudget is how many consecutive no-progress connect/read
	// cycles are tolerated before the Ingestor gives up (ErrRetryBudget).
	// 0 means DefaultRetryBudget; negative means never give up.
	RetryBudget int
	// ReorderWindow bounds the out-of-order buffer; a gap wider than
	// this forces a resync reconnect. 0 means DefaultReorderWindow.
	ReorderWindow int

	// SnapshotEvery emits a snapshot after this many applied
	// updates; SnapshotInterval after this much wall time (whichever
	// comes first, and only when something changed). Zeros mean the
	// defaults; negative disables that trigger.
	SnapshotEvery    int
	SnapshotInterval time.Duration

	// Seed drives the backoff jitter, so failure schedules are
	// replayable in tests.
	Seed int64

	// OnSnapshot receives every snapshot (including the final one
	// of a finite feed), called from the ingest goroutine: the callback
	// must swap and return, not block.
	OnSnapshot func(inf *core.Inferences, st WindowStats, lastSeq uint64)
	// OnUpdate receives every applied update in exact sequence order,
	// after it entered the window — the tap a streaming consumer (the
	// anomaly engine) listens on. Called from the ingest goroutine: it
	// must hand off and return, not block; a slow OnUpdate stalls
	// ingestion itself.
	OnUpdate func(u Update)
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time view of the Ingestor's counters; every
// field is read from atomics, so Stats is safe to call from any
// goroutine while ingestion runs.
type Stats struct {
	State         FeedState
	LastSeq       uint64
	LastUpdate    time.Time
	Updates       uint64
	Duplicates    uint64
	Reordered     uint64
	CorruptFrames uint64
	Disconnects   uint64
	Stalls        uint64
	Resyncs       uint64
	Reconnects    uint64
	Snapshots     uint64
	Window        WindowStats
}

// Health is the degradation-aware health verdict.
type Health struct {
	// Status is "healthy", "stale" or "degraded" (see Ingestor.Health).
	Status string
	State  FeedState
	// LastSeq/LastUpdate identify the freshest applied update.
	LastSeq    uint64
	LastUpdate time.Time
	// Staleness is the wall-clock age of LastUpdate.
	Staleness time.Duration
}

// Ingestor consumes a Source, survives its failures, and keeps a
// rolling-window classification fresh. One goroutine owns the window
// and the session; everything exported is answered from atomics.
type Ingestor struct {
	cfg Config
	win *Window

	state        atomic.Int32
	lastSeq      atomic.Uint64
	lastUpdateAt atomic.Int64 // unix nanos; 0 until the first update
	startedAt    time.Time

	updates       atomic.Uint64
	duplicates    atomic.Uint64
	reordered     atomic.Uint64
	corruptFrames atomic.Uint64
	disconnects   atomic.Uint64
	stalls        atomic.Uint64
	resyncs       atomic.Uint64
	connects      atomic.Uint64
	snapshots     atomic.Uint64
	winStats      atomic.Pointer[WindowStats]

	sinceSnap  int
	lastSnapAt time.Time
	rng        *rand.Rand

	done chan struct{}
	err  error
}

// Start validates cfg and launches the ingest loop. It returns
// immediately; Wait (or Done) observes termination. Canceling ctx
// stops the loop promptly — mid-read, mid-backoff, or mid-classify —
// and no goroutine outlives Wait's return.
func Start(ctx context.Context, cfg Config) (*Ingestor, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("stream: Config.Source is nil")
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = DefaultReadTimeout
	}
	if cfg.StaleAfter == 0 {
		cfg.StaleAfter = DefaultStaleAfter
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	if cfg.ReorderWindow <= 0 {
		cfg.ReorderWindow = DefaultReorderWindow
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.SnapshotInterval == 0 {
		cfg.SnapshotInterval = DefaultSnapshotInterval
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	in := &Ingestor{
		cfg:        cfg,
		win:        NewWindow(cfg.Window),
		startedAt:  time.Now(),
		lastSnapAt: time.Now(),
		rng:        rand.New(rand.NewSource(cfg.Seed ^ 0x19e57)),
		done:       make(chan struct{}),
	}
	in.winStats.Store(&WindowStats{})
	go func() {
		in.err = in.run(ctx)
		close(in.done)
	}()
	return in, nil
}

// Done closes when the ingest loop has fully stopped.
func (in *Ingestor) Done() <-chan struct{} { return in.done }

// Wait blocks until the loop stops and returns why: nil after a finite
// feed completed, ctx.Err() after cancellation, ErrRetryBudget after
// giving up.
func (in *Ingestor) Wait() error {
	<-in.done
	return in.err
}

// Stats snapshots the counters.
func (in *Ingestor) Stats() Stats {
	connects := in.connects.Load()
	var reconnects uint64
	if connects > 1 {
		reconnects = connects - 1
	}
	return Stats{
		State:         FeedState(in.state.Load()),
		LastSeq:       in.lastSeq.Load(),
		LastUpdate:    in.lastUpdateTime(),
		Updates:       in.updates.Load(),
		Duplicates:    in.duplicates.Load(),
		Reordered:     in.reordered.Load(),
		CorruptFrames: in.corruptFrames.Load(),
		Disconnects:   in.disconnects.Load(),
		Stalls:        in.stalls.Load(),
		Resyncs:       in.resyncs.Load(),
		Reconnects:    reconnects,
		Snapshots:     in.snapshots.Load(),
		Window:        *in.winStats.Load(),
	}
}

func (in *Ingestor) lastUpdateTime() time.Time {
	ns := in.lastUpdateAt.Load()
	if ns == 0 {
		return in.startedAt
	}
	return time.Unix(0, ns)
}

// Health derives the degradation verdict: "degraded" once the feed is
// abandoned (retry budget exhausted), "stale" while the last applied
// update is older than StaleAfter and the feed has not cleanly ended,
// "healthy" otherwise. A stale-or-degraded service still serves — the
// verdict is advisory, never a refusal.
func (in *Ingestor) Health() Health {
	state := FeedState(in.state.Load())
	last := in.lastUpdateTime()
	staleness := time.Since(last)
	status := "healthy"
	switch {
	case state == StateDown:
		status = "degraded"
	case state != StateEnded && staleness > in.cfg.StaleAfter:
		status = "stale"
	}
	return Health{
		Status:     status,
		State:      state,
		LastSeq:    in.lastSeq.Load(),
		LastUpdate: last,
		Staleness:  staleness,
	}
}

func (in *Ingestor) setState(s FeedState) { in.state.Store(int32(s)) }

// run is the reconnect loop: connect (resuming after the last applied
// sequence number), consume until the session fails, back off, repeat.
// failures counts consecutive cycles that applied nothing.
func (in *Ingestor) run(ctx context.Context) error {
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		in.setState(StateConnecting)
		sess, err := in.cfg.Source.Connect(ctx, in.lastSeq.Load())
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			in.disconnects.Add(1)
			in.cfg.Logf("stream: connect failed: %v", err)
			failures++
			if err := in.backoff(ctx, failures); err != nil {
				return err
			}
			continue
		}
		in.connects.Add(1)
		progressed, err := in.consume(ctx, sess)
		sess.Close()
		if progressed {
			failures = 0
		}
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, io.EOF):
			in.setState(StateEnded)
			in.snapshot(ctx)
			in.cfg.Logf("stream: feed ended at seq %d (%d updates applied)",
				in.lastSeq.Load(), in.updates.Load())
			return nil
		default:
			in.cfg.Logf("stream: session lost at seq %d: %v", in.lastSeq.Load(), err)
			failures++
			if err := in.backoff(ctx, failures); err != nil {
				return err
			}
		}
	}
}

// backoff sleeps the jittered exponential delay for the given failure
// streak, honoring cancellation, and enforces the retry budget.
func (in *Ingestor) backoff(ctx context.Context, failures int) error {
	if in.cfg.RetryBudget > 0 && failures > in.cfg.RetryBudget {
		in.setState(StateDown)
		in.cfg.Logf("stream: giving up after %d consecutive failures; serving last good snapshot", failures-1)
		return ErrRetryBudget
	}
	d := in.cfg.BackoffBase << (failures - 1)
	if d <= 0 || d > in.cfg.BackoffMax {
		d = in.cfg.BackoffMax
	}
	// Full jitter in [d/2, d): desynchronizes reconnect herds without
	// ever collapsing the delay to zero.
	d = d/2 + time.Duration(in.rng.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// consume reads one session until it fails, applying updates in
// sequence order: duplicates (Seq already applied) are dropped, small
// reorderings are buffered until the gap fills, and a gap that cannot
// fill forces a resync via the resume protocol. Returns whether any
// update was applied, and why the session ended.
func (in *Ingestor) consume(ctx context.Context, sess Session) (bool, error) {
	progressed := false
	pending := make(map[uint64]Update)
	for {
		rctx, cancel := context.WithTimeout(ctx, in.cfg.ReadTimeout)
		u, err := sess.Recv(rctx)
		cancel()
		if err != nil {
			switch {
			case ctx.Err() != nil:
				return progressed, ctx.Err()
			case errors.Is(err, context.DeadlineExceeded):
				in.stalls.Add(1)
				return progressed, errStalled
			case errors.Is(err, ErrCorruptFrame):
				in.corruptFrames.Add(1)
				return progressed, err
			case errors.Is(err, io.EOF):
				if len(pending) > 0 {
					// The feed ended with a hole before our buffered
					// updates: resume to recover the missing ones.
					in.resyncs.Add(1)
					return progressed, errGap
				}
				return progressed, io.EOF
			default:
				in.disconnects.Add(1)
				return progressed, err
			}
		}
		in.setState(StateLive)
		next := in.lastSeq.Load() + 1
		switch {
		case u.Seq < next:
			in.duplicates.Add(1)
			continue
		case u.Seq > next:
			in.reordered.Add(1)
			if _, dup := pending[u.Seq]; !dup {
				pending[u.Seq] = u
			}
			if len(pending) > in.cfg.ReorderWindow {
				in.resyncs.Add(1)
				return progressed, errGap
			}
			continue
		}
		in.apply(u)
		progressed = true
		for {
			nu, ok := pending[in.lastSeq.Load()+1]
			if !ok {
				break
			}
			delete(pending, nu.Seq)
			in.apply(nu)
		}
		if in.shouldSnapshot() {
			if err := in.snapshot(ctx); err != nil {
				return progressed, err
			}
		}
	}
}

// apply feeds one in-order update into the window and the OnUpdate tap.
func (in *Ingestor) apply(u Update) {
	in.win.Add(u)
	in.lastSeq.Store(u.Seq)
	in.lastUpdateAt.Store(time.Now().UnixNano())
	in.updates.Add(1)
	in.sinceSnap++
	if in.cfg.OnUpdate != nil {
		in.cfg.OnUpdate(u)
	}
}

func (in *Ingestor) shouldSnapshot() bool {
	if in.sinceSnap == 0 {
		return false
	}
	if in.cfg.SnapshotEvery > 0 && in.sinceSnap >= in.cfg.SnapshotEvery {
		return true
	}
	return in.cfg.SnapshotInterval > 0 && time.Since(in.lastSnapAt) >= in.cfg.SnapshotInterval
}

// snapshot classifies the window and publishes the result, when an
// update was applied since the last generation (or none was ever
// published). Only a canceled context is an error; the previous snapshot
// stays published on any failure, and the next tick retries.
func (in *Ingestor) snapshot(ctx context.Context) error {
	if in.sinceSnap == 0 && in.snapshots.Load() > 0 {
		in.lastSnapAt = time.Now()
		return nil // nothing changed
	}
	inf, err := core.ClassifyContext(ctx, in.win.Store(), in.cfg.Classify)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		in.cfg.Logf("stream: classify failed (keeping previous snapshot): %v", err)
		return nil
	}
	st := in.win.Stats()
	in.winStats.Store(&st)
	in.snapshots.Add(1)
	in.lastSnapAt = time.Now()
	in.sinceSnap = 0
	if in.cfg.OnSnapshot != nil {
		in.cfg.OnSnapshot(inf, st, in.lastSeq.Load())
	}
	return nil
}

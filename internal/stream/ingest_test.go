package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"bgpintent/internal/asrel"
	"bgpintent/internal/core"
	"bgpintent/internal/corpus"
	"bgpintent/internal/simulate"
	"bgpintent/internal/topology"
)

// classifyBatch is the oracle: a one-shot batch classification over the
// full update set, exactly what the paper's pipeline would produce.
func classifyBatch(t *testing.T, ups []Update) *core.Inferences {
	t.Helper()
	inf, err := core.ClassifyContext(context.Background(), refStore(ups), core.DefaultOptions())
	if err != nil {
		t.Fatalf("batch classify: %v", err)
	}
	return inf
}

// sameInferences fails unless two classifications agree on every label,
// cluster, and exclusion: on their snapshot bytes, which carry the
// clusters, the exclusions and every community's evidence.
func sameInferences(t *testing.T, got, want *core.Inferences) {
	t.Helper()
	if got == nil {
		t.Fatal("no classification produced")
	}
	if got.ClusterCount() != want.ClusterCount() {
		t.Fatalf("clusters diverged: %d vs %d", got.ClusterCount(), want.ClusterCount())
	}
	if got.ExcludedCount() != want.ExcludedCount() {
		t.Fatalf("exclusions diverged: %d vs %d entries", got.ExcludedCount(), want.ExcludedCount())
	}
	var g, w bytes.Buffer
	if err := errors.Join(core.WriteSnapshotFlat(&g, got, core.SnapshotMeta{}), core.WriteSnapshotFlat(&w, want, core.SnapshotMeta{})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatal("labels, exclusions or evidence diverged: the two classifications serialize differently")
	}
}

// snapshotRecorder captures the latest published classification.
type snapshotRecorder struct {
	mu   sync.Mutex
	inf  *core.Inferences
	seen int
}

func (r *snapshotRecorder) record(inf *core.Inferences, _ WindowStats, _ uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inf = inf
	r.seen++
}

func (r *snapshotRecorder) latest() (*core.Inferences, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inf, r.seen
}

func TestIngestorCleanConvergence(t *testing.T) {
	clean := drain(t, NewSimSource(newTestSim(t), SimConfig{Days: 2}), 0, 0)
	want := classifyBatch(t, clean)

	rec := &snapshotRecorder{}
	in, err := Start(context.Background(), Config{
		Source:           NewSimSource(newTestSim(t), SimConfig{Days: 2}),
		Classify:         core.DefaultOptions(),
		SnapshotEvery:    2000, // several generations per run, not just the final one
		SnapshotInterval: -1,
		OnSnapshot:       rec.record,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	st := in.Stats()
	if st.State != StateEnded {
		t.Fatalf("state = %v, want ended", st.State)
	}
	if st.Updates != uint64(len(clean)) || st.LastSeq != uint64(len(clean)) {
		t.Fatalf("applied %d updates to seq %d, want %d", st.Updates, st.LastSeq, len(clean))
	}
	if st.Duplicates+st.CorruptFrames+st.Disconnects+st.Stalls != 0 {
		t.Fatalf("clean feed produced fault counters: %+v", st)
	}
	inf, snaps := rec.latest()
	if snaps < 2 {
		t.Fatalf("only %d snapshots; no generation before the final one", snaps)
	}
	sameInferences(t, inf, want)
	if h := in.Health(); h.Status != "healthy" || h.State != StateEnded {
		t.Fatalf("health after clean EOF = %+v", h)
	}
}

// TestIngestorFaultConvergence is the acceptance test: at a 10% fault
// rate across every fault kind, the Ingestor must apply every update
// exactly once and converge to the same classification as a clean
// batch run over the same update set.
func TestIngestorFaultConvergence(t *testing.T) {
	clean := drain(t, NewSimSource(newTestSim(t), SimConfig{Days: 2}), 0, 0)
	want := classifyBatch(t, clean)

	fs := NewFaultSource(NewSimSource(newTestSim(t), SimConfig{Days: 2}), FaultConfig{
		Seed:     42,
		Rate:     0.10,
		StallFor: 100 * time.Millisecond, // longer than ReadTimeout: must trip the deadline
	})
	rec := &snapshotRecorder{}
	in, err := Start(context.Background(), Config{
		Source:   fs,
		Classify: core.DefaultOptions(),
		// Tight on purpose: a clean read off the cached feed is
		// microseconds, and a spuriously tripped deadline only costs a
		// reconnect, which the test is about anyway.
		ReadTimeout:      20 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		RetryBudget:      -1, // a 10% rate can produce long failure streaks
		ReorderWindow:    8,
		SnapshotEvery:    2000,
		SnapshotInterval: -1,
		Seed:             1,
		OnSnapshot:       rec.record,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	st := in.Stats()
	if st.Updates != uint64(len(clean)) || st.LastSeq != uint64(len(clean)) {
		t.Fatalf("exactly-once violated: applied %d, last seq %d, want %d",
			st.Updates, st.LastSeq, len(clean))
	}
	if fs.Stats.Total() == 0 {
		t.Fatal("no faults injected; the test proved nothing")
	}
	if st.Reconnects == 0 {
		t.Fatal("survived faults without reconnecting? injector misconfigured")
	}
	t.Logf("faults injected: disconnects=%d stalls=%d corrupts=%d dups=%d reorders=%d; ingestor: reconnects=%d resyncs=%d dups=%d reordered=%d",
		fs.Stats.Disconnects.Load(), fs.Stats.Stalls.Load(), fs.Stats.Corrupts.Load(),
		fs.Stats.Duplicates.Load(), fs.Stats.Reorders.Load(),
		st.Reconnects, st.Resyncs, st.Duplicates, st.Reordered)

	inf, _ := rec.latest()
	sameInferences(t, inf, want)
}

// TestIngestorClassifiesLikeBatch: a live generation runs the paper's
// whole method. Over a feed that carries large communities, with as2org
// siblings in the options, the final generation writes the same snapshot
// bytes as a batch ClassifyContext, under the same options, over a fresh
// store holding the same updates — on a clean feed and under injected
// faults. The tiny topology's as2org map (corpus.OrgMapOf) has two
// multi-AS orgs, too few to move a label, so a dense map, under which
// siblings change the batch answer, runs the clean feed too.
func TestIngestorClassifiesLikeBatch(t *testing.T) {
	ctx := context.Background()
	topo, err := topology.Generate(topology.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed := func() Source { return NewSimSource(simulate.New(topo, simulate.TinyConfig()), SimConfig{Days: 1}) }
	ups := drain(t, feed(), 0, 0)
	batch := core.NewTupleStore()
	for _, u := range ups {
		batch.AddViewLarge(u.VP, u.Path, u.Comms, u.LargeComms)
	}
	snapshot := func(opts core.Options) (*core.Inferences, []byte) {
		t.Helper()
		inf, err := core.ClassifyContext(ctx, batch, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.WriteSnapshotFlat(&buf, inf, core.SnapshotMeta{}); err != nil {
			t.Fatal(err)
		}
		return inf, buf.Bytes()
	}
	_, blind := snapshot(core.DefaultOptions())

	dense := asrel.NewOrgMap()
	for asn := range topo.ASes {
		dense.Set(asn, fmt.Sprintf("org-%d", asn%16))
	}
	for _, tc := range []struct {
		name   string
		orgs   core.OrgMapper
		faulty []bool
	}{
		{"as2org", corpus.OrgMapOf(topo, 0.9), []bool{false, true}},
		{"dense", dense, []bool{false}},
	} {
		opts := core.DefaultOptions()
		opts.Orgs = tc.orgs
		want, wantBytes := snapshot(opts)
		if want.Large().ClusterCount() == 0 {
			t.Fatal("the feed's large communities form no cluster; the test cannot see them dropped")
		}
		if tc.name == "dense" && bytes.Equal(wantBytes, blind) {
			t.Fatal("dense orgs: classifying with Options.Orgs changes no byte; sibling awareness is inert")
		}
		for _, faulty := range tc.faulty {
			src := feed()
			if faulty {
				src = NewFaultSource(src, FaultConfig{Seed: 42, Rate: 0.05, StallFor: time.Millisecond})
			}
			rec := &snapshotRecorder{}
			in, err := Start(ctx, Config{
				Source:           src,
				Classify:         opts,
				SnapshotEvery:    2000,
				SnapshotInterval: -1,
				ReadTimeout:      200 * time.Millisecond,
				BackoffBase:      time.Millisecond,
				BackoffMax:       5 * time.Millisecond,
				RetryBudget:      -1,
				Seed:             1,
				OnSnapshot:       rec.record,
				Logf:             t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := in.Wait(); err != nil {
				t.Fatalf("%s faulty=%v: Wait: %v", tc.name, faulty, err)
			}
			if st := in.Stats(); st.Updates != uint64(len(ups)) {
				t.Fatalf("%s faulty=%v: applied %d updates, feed carried %d", tc.name, faulty, st.Updates, len(ups))
			}
			inf, snaps := rec.latest()
			if snaps < 2 {
				t.Fatalf("%s faulty=%v: only %d generations", tc.name, faulty, snaps)
			}
			sameInferences(t, inf, want)
		}
	}
}

// failSource never connects.
type failSource struct{}

func (failSource) Connect(context.Context, uint64) (Session, error) {
	return nil, errors.New("connection refused")
}

func TestIngestorRetryBudgetDegrades(t *testing.T) {
	in, err := Start(context.Background(), Config{
		Source:      failSource{},
		RetryBudget: 3,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Wait(); !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("Wait = %v, want ErrRetryBudget", err)
	}
	if h := in.Health(); h.Status != "degraded" || h.State != StateDown {
		t.Fatalf("health after giving up = %+v, want degraded/down", h)
	}
	// Degraded, not dead: stats and health still answer.
	if st := in.Stats(); st.Disconnects < 3 {
		t.Fatalf("Disconnects = %d, want >= RetryBudget", st.Disconnects)
	}
}

// gatedSource delays every Recv until the gate channel closes —
// a connected feed gone silent.
type gatedSource struct {
	inner Source
	gate  chan struct{}
}

func (g *gatedSource) Connect(ctx context.Context, after uint64) (Session, error) {
	sess, err := g.inner.Connect(ctx, after)
	if err != nil {
		return nil, err
	}
	return &gatedSession{inner: sess, gate: g.gate}, nil
}

type gatedSession struct {
	inner Session
	gate  chan struct{}
}

func (s *gatedSession) Recv(ctx context.Context) (Update, error) {
	select {
	case <-s.gate:
	case <-ctx.Done():
		return Update{}, ctx.Err()
	}
	return s.inner.Recv(ctx)
}

func (s *gatedSession) Close() error { return s.inner.Close() }

// waitFor polls cond for up to 20s (generous for -race CI runners).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestIngestorHealthStaleThenRecovers(t *testing.T) {
	gate := make(chan struct{})
	src := &gatedSource{
		inner: NewSimSource(newTestSim(t), SimConfig{Days: 1, Loop: true}),
		gate:  gate,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in, err := Start(ctx, Config{
		Source:           src,
		Classify:         core.DefaultOptions(),
		ReadTimeout:      time.Minute, // the silent gate must not look like a stall
		StaleAfter:       30 * time.Millisecond,
		SnapshotEvery:    64,
		SnapshotInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h := in.Health(); h.Status != "healthy" {
		t.Fatalf("initial health = %q, want healthy", h.Status)
	}
	waitFor(t, "stale health on silent feed", func() bool {
		return in.Health().Status == "stale"
	})
	close(gate) // feed comes back
	waitFor(t, "health recovery after feed resumes", func() bool {
		h := in.Health()
		return h.Status == "healthy" && h.LastSeq > 0
	})
	cancel()
	if err := in.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after cancel = %v", err)
	}
}

// TestIngestorCancelMidStream pins the shutdown contract under -race:
// canceling mid-read, mid-backoff, or mid-classify leaves no goroutine
// behind and the counters consistent (exactly-once up to the last
// applied sequence number).
func TestIngestorCancelMidStream(t *testing.T) {
	before := runtime.NumGoroutine()

	t.Run("mid-read", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		in, err := Start(ctx, Config{
			Source:           NewSimSource(newTestSim(t), SimConfig{Days: 1, Loop: true}),
			Classify:         core.DefaultOptions(),
			SnapshotEvery:    1024,
			SnapshotInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "some updates applied", func() bool { return in.Stats().Updates > 100 })
		cancel()
		if err := in.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v, want context.Canceled", err)
		}
		st := in.Stats()
		if st.Updates != st.LastSeq {
			t.Fatalf("inconsistent after cancel: %d updates but last seq %d", st.Updates, st.LastSeq)
		}
	})

	t.Run("mid-backoff", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		in, err := Start(ctx, Config{
			Source:      failSource{},
			RetryBudget: -1,
			BackoffBase: time.Hour, // cancel must interrupt the sleep
			BackoffMax:  time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond) // let it reach the backoff sleep
		cancel()
		done := make(chan error, 1)
		go func() { done <- in.Wait() }()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Wait = %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancel did not interrupt the backoff sleep")
		}
	})

	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

func TestIngestorRollingWindowEvicts(t *testing.T) {
	perDay := len(drain(t, NewSimSource(newTestSim(t), SimConfig{Days: 1}), 0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in, err := Start(ctx, Config{
		Source:   NewSimSource(newTestSim(t), SimConfig{Days: 1, Loop: true}),
		Classify: core.DefaultOptions(),
		Window: WindowConfig{
			Span:    36 * time.Hour, // 1.5 looped days
			Buckets: 3,
		},
		SnapshotEvery:    4096,
		SnapshotInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "three days of updates", func() bool {
		return in.Stats().Updates >= uint64(3*perDay)
	})
	cancel()
	if err := in.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v", err)
	}
	st := in.Stats()
	if st.Window.Evicted == 0 {
		t.Fatalf("rolling window never evicted over 3 looped days: %+v", st.Window)
	}
	if st.Window.Updates >= int(st.Updates) {
		t.Fatalf("window holds %d of %d applied updates; eviction is not bounding it",
			st.Window.Updates, st.Updates)
	}
}

func TestIngestorOnUpdateTap(t *testing.T) {
	want := drain(t, NewSimSource(newTestSim(t), SimConfig{Days: 1}), 0, 0)

	var mu sync.Mutex
	var got []Update
	in, err := Start(context.Background(), Config{
		Source:           NewSimSource(newTestSim(t), SimConfig{Days: 1}),
		Classify:         core.DefaultOptions(),
		SnapshotInterval: -1,
		OnUpdate: func(u Update) {
			mu.Lock()
			got = append(got, u)
			mu.Unlock()
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !sameUpdates(got, want) {
		t.Fatalf("OnUpdate saw %d updates, feed carried %d (or order/content diverged)", len(got), len(want))
	}
}

func TestIngestorOnUpdateTapExactlyOnceUnderFaults(t *testing.T) {
	want := drain(t, NewSimSource(newTestSim(t), SimConfig{Days: 1}), 0, 0)

	var mu sync.Mutex
	var got []Update
	in, err := Start(context.Background(), Config{
		Source: NewFaultSource(NewSimSource(newTestSim(t), SimConfig{Days: 1}), FaultConfig{
			Seed: 42, Rate: 0.05, StallFor: time.Millisecond,
		}),
		Classify:         core.DefaultOptions(),
		SnapshotInterval: -1,
		ReadTimeout:      200 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		RetryBudget:      -1,
		OnUpdate: func(u Update) {
			mu.Lock()
			got = append(got, u)
			mu.Unlock()
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// Duplicates, reorders and reconnects must be invisible to the tap:
	// every update exactly once, in sequence order.
	if !sameUpdates(got, want) {
		t.Fatalf("OnUpdate under faults saw %d updates, want %d in exact order", len(got), len(want))
	}
}

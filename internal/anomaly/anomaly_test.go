package anomaly

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/dict"
	"bgpintent/internal/stream"
)

// fakeSem is a minimal InferenceSource for unit tests: a category map.
type fakeSem struct {
	core.NoLargeInferences
	cats map[bgp.Community]dict.Category
}

func (f *fakeSem) Verdict(c bgp.Community) core.Verdict {
	return core.Verdict{Comm: c, Observed: true, Category: f.cats[c]}
}
func (f *fakeSem) Category(c bgp.Community) dict.Category { return f.cats[c] }
func (f *fakeSem) Observed() int                          { return len(f.cats) }
func (f *fakeSem) Counts() (int, int)                     { return 0, 0 }
func (f *fakeSem) ExcludedCount() int                     { return 0 }
func (f *fakeSem) ClusterCount() int                      { return 0 }
func (f *fakeSem) ClusterSummaryAt(int) core.ClusterSummary {
	panic("not used")
}
func (f *fakeSem) EachLabeled(fn func(bgp.Community, dict.Category) bool) {
	for c, cat := range f.cats {
		if !fn(c, cat) {
			return
		}
	}
}
func (f *fakeSem) Options() core.Options { return core.Options{} }

// epoch is aligned to the bucket grid so each synthetic bucket in
// feedBucket maps onto exactly one engine bucket.
var epoch = time.Unix(1_600_000_000, 0).UTC().Truncate(time.Hour)

// feedBucket sends n updates carrying comms over the given path, spread
// within bucket b (span 10m).
func feedBucket(e *Engine, b int, n int, path []uint32, comms ...bgp.Community) {
	span := 10 * time.Minute
	for i := 0; i < n; i++ {
		e.Process(stream.Update{
			Seq:   1, // unused by the engine
			Time:  epoch.Add(time.Duration(b)*span + time.Duration(i)*span/time.Duration(n+1)),
			VP:    path[0],
			Path:  path,
			Comms: comms,
		})
	}
}

func testEngine(t *testing.T, th Thresholds) *Engine {
	t.Helper()
	return NewEngine(Options{
		BucketSpan: 10 * time.Minute,
		History:    16,
		Thresholds: th,
		Logf:       t.Logf,
	})
}

func findKinds(rep Report) map[string]int {
	out := make(map[string]int)
	for _, f := range rep.Findings {
		out[f.Kind]++
	}
	return out
}

func TestSpikeOnsetAndWithdrawal(t *testing.T) {
	action := bgp.NewCommunity(100, 666)
	e := testEngine(t, Thresholds{})
	e.SetSemantics(&fakeSem{cats: map[bgp.Community]dict.Category{action: dict.CatAction}})

	path := []uint32{10, 20, 30}
	for b := 0; b < 10; b++ {
		feedBucket(e, b, 5, path, action)
	}
	feedBucket(e, 10, 200, path, action) // burst
	for b := 11; b < 14; b++ {
		feedBucket(e, b, 5, path, action)
	}
	e.CloseUpTo(epoch.Add(14 * 10 * time.Minute))

	rep := e.Query(Query{})
	kinds := findKinds(rep)
	if kinds["spike-onset"] != 1 || kinds["spike-withdrawal"] != 1 {
		t.Fatalf("got kinds %v, want one spike-onset and one spike-withdrawal", kinds)
	}
	if len(rep.Findings) != 2 {
		t.Fatalf("extra findings: %+v", rep.Findings)
	}
	onset := rep.Findings[0]
	if onset.Kind != "spike-onset" || onset.Community != action || onset.Category != dict.CatAction {
		t.Errorf("onset finding wrong: %+v", onset)
	}
	if onset.Value != 200 || onset.Baseline != 5 {
		t.Errorf("onset value/baseline = %v/%v, want 200/5", onset.Value, onset.Baseline)
	}
	if onset.Bucket != epoch.Add(10*10*time.Minute) {
		t.Errorf("onset bucket %v, want bucket 10", onset.Bucket)
	}
}

func TestSpikeIgnoresNonActionCommunities(t *testing.T) {
	info := bgp.NewCommunity(100, 1)
	unknown := bgp.NewCommunity(100, 2)
	e := testEngine(t, Thresholds{})
	e.SetSemantics(&fakeSem{cats: map[bgp.Community]dict.Category{info: dict.CatInformation}})

	path := []uint32{10, 20, 30}
	for b := 0; b < 10; b++ {
		feedBucket(e, b, 5, path, info, unknown)
	}
	feedBucket(e, 10, 200, path, info, unknown)
	e.CloseUpTo(epoch.Add(12 * 10 * time.Minute))

	if rep := e.Query(Query{}); len(rep.Findings) != 0 {
		t.Fatalf("non-action burst produced findings: %+v", rep.Findings)
	}
}

// TestChurnOnFlappingSeries flaps an action community and expects a
// churn finding with the peaks kept out of the baseline ring — at the
// default thresholds, and at lower spike thresholds whose peaks sit
// under the default burst level max(med+6·MAD, 3·med, 50), which shows
// the burst bits and the baseline freeze follow Thresholds.
func TestChurnOnFlappingSeries(t *testing.T) {
	for _, tc := range []struct {
		name string
		th   Thresholds
		peak int
	}{
		{"default", Thresholds{}, 200},
		{"custom", Thresholds{SpikeK: 3, SpikeRatio: 1.5, SpikeMin: 20}, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			te := bgp.NewCommunity(200, 20)
			e := testEngine(t, tc.th)
			e.SetSemantics(&fakeSem{cats: map[bgp.Community]dict.Category{te: dict.CatAction}})

			path := []uint32{10, 20, 30}
			b := 0
			for ; b < 8; b++ { // calm baseline
				feedBucket(e, b, 3, path, te)
			}
			for cycle := 0; cycle < 4; cycle++ { // 4 on/off cycles
				feedBucket(e, b, tc.peak, path, te)
				b++
				feedBucket(e, b, 3, path, te)
				b++
			}
			e.CloseUpTo(epoch.Add(time.Duration(b+1) * 10 * time.Minute))

			rep := e.Query(Query{Detector: "churn"})
			if len(rep.Findings) == 0 {
				t.Fatalf("flapping series produced no churn finding")
			}
			f := rep.Findings[0]
			if f.Community != te || f.Category != dict.CatAction || f.Score < 5 {
				t.Errorf("churn finding wrong: %+v", f)
			}
			for _, v := range e.series[te].history(nil) {
				if v > 3 {
					t.Fatalf("peak %v entered the baseline ring", v)
				}
			}
		})
	}
}

func TestDisappearanceAndRecovery(t *testing.T) {
	infoC := bgp.NewCommunity(5000, 300)
	e := testEngine(t, Thresholds{})
	e.SetSemantics(&fakeSem{cats: map[bgp.Community]dict.Category{infoC: dict.CatInformation}})

	// AS 5000 reliably tags; AS 70000 (4-byte) is on every path and can
	// never tag (α is 16-bit) — it must stay silent despite a 100% miss
	// rate, proving the full-ASN-space handling has no truncation bias.
	path := []uint32{10, 70000, 5000, 30}
	b := 0
	for ; b < 20; b++ {
		feedBucket(e, b, 30, path, infoC)
	}
	for ; b < 23; b++ { // strip: tags gone on routes through 5000
		feedBucket(e, b, 30, path)
	}
	for ; b < 27; b++ { // remediation
		feedBucket(e, b, 30, path, infoC)
	}
	e.CloseUpTo(epoch.Add(time.Duration(b+1) * 10 * time.Minute))

	rep := e.Query(Query{Detector: "disappearance"})
	kinds := findKinds(rep)
	if kinds["info-disappearance"] != 1 || kinds["info-recovery"] != 1 {
		t.Fatalf("got kinds %v, want one disappearance and one recovery", kinds)
	}
	for _, f := range rep.Findings {
		if f.ASN != 5000 {
			t.Errorf("finding names AS%d, want AS5000 only: %+v", f.ASN, f)
		}
	}
}

func TestGenerationSwapRelabelsWithoutRestart(t *testing.T) {
	c := bgp.NewCommunity(300, 666)
	e := testEngine(t, Thresholds{})
	e.SetSemantics(&fakeSem{cats: map[bgp.Community]dict.Category{c: dict.CatInformation}})

	path := []uint32{10, 20, 30}
	for b := 0; b < 10; b++ {
		feedBucket(e, b, 5, path, c)
	}
	feedBucket(e, 10, 200, path, c) // burst while labeled information
	for b := 11; b < 14; b++ {
		feedBucket(e, b, 5, path, c)
	}
	if rep := e.Query(Query{Detector: "spike"}); len(rep.Findings) != 0 {
		t.Fatalf("information-labeled burst fired: %+v", rep.Findings)
	}

	// A new classification generation flips the community to action; the
	// running detectors must pick it up with no restart.
	e.SetSemantics(&fakeSem{cats: map[bgp.Community]dict.Category{c: dict.CatAction}})
	feedBucket(e, 14, 200, path, c)
	e.CloseUpTo(epoch.Add(16 * 10 * time.Minute))

	rep := e.Query(Query{Detector: "spike"})
	if len(rep.Findings) == 0 || rep.Findings[0].Kind != "spike-onset" {
		t.Fatalf("post-swap burst: got %+v, want a spike-onset", rep.Findings)
	}
	f := rep.Findings[0]
	if f.Category != dict.CatAction || f.Generation != 2 {
		t.Errorf("finding category/generation = %v/%d, want action/2", f.Category, f.Generation)
	}
	if h := e.Health(); h.Generation != 2 {
		t.Errorf("health generation %d, want 2", h.Generation)
	}
}

func TestQueryFilters(t *testing.T) {
	action := bgp.NewCommunity(100, 666)
	e := testEngine(t, Thresholds{})
	e.SetSemantics(&fakeSem{cats: map[bgp.Community]dict.Category{action: dict.CatAction}})
	path := []uint32{10, 20}
	for b := 0; b < 10; b++ {
		feedBucket(e, b, 5, path, action)
	}
	feedBucket(e, 10, 200, path, action)
	feedBucket(e, 11, 5, path, action)
	feedBucket(e, 12, 200, path, action)
	e.CloseUpTo(epoch.Add(14 * 10 * time.Minute))

	all := e.Query(Query{})
	if len(all.Findings) < 3 {
		t.Fatalf("want >= 3 findings, got %+v", all.Findings)
	}
	if lim := e.Query(Query{Limit: 1}); len(lim.Findings) != 1 ||
		lim.Findings[0].ID != all.Findings[len(all.Findings)-1].ID {
		t.Errorf("Limit 1 did not return the newest finding")
	}
	if det := e.Query(Query{Detector: "disappearance"}); len(det.Findings) != 0 {
		t.Errorf("detector filter leaked: %+v", det.Findings)
	}
	// Window: only findings within 2 buckets of the last closed bucket.
	win := e.Query(Query{Window: 2 * 10 * time.Minute})
	for _, f := range win.Findings {
		if f.Bucket.Before(all.LastBucket.Add(-2 * 10 * time.Minute)) {
			t.Errorf("windowed query returned old finding: %+v", f)
		}
	}
	if all.Stamp == 0 || all.Generation != 1 {
		t.Errorf("report stamp/generation = %d/%d", all.Stamp, all.Generation)
	}
}

func TestEngineCountsWithoutSemantics(t *testing.T) {
	c := bgp.NewCommunity(100, 666)
	e := testEngine(t, Thresholds{})
	path := []uint32{10, 20}
	for b := 0; b < 8; b++ {
		feedBucket(e, b, 5, path, c)
	}
	feedBucket(e, 8, 500, path, c)
	e.CloseUpTo(epoch.Add(10 * 10 * time.Minute))
	if rep := e.Query(Query{}); len(rep.Findings) != 0 {
		t.Fatalf("findings before any semantics: %+v", rep.Findings)
	}
	h := e.Health()
	if h.Updates == 0 || h.Buckets == 0 || h.Generation != 0 {
		t.Errorf("health without semantics: %+v", h)
	}
	if h.Lag <= 0 {
		t.Errorf("lag not reported after bucket closes: %v", h.Lag)
	}
	if got := strings.Join(h.Detectors, ","); got != "spike,churn,disappearance" {
		t.Errorf("health detectors %q, want spike,churn,disappearance", got)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestWatcherLifecycleNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	e := testEngine(t, Thresholds{})
	w := StartWatcher(ctx, e, 16)
	for i := 0; i < 100; i++ {
		w.Offer(stream.Update{Time: epoch.Add(time.Duration(i) * time.Minute), Path: []uint32{1, 2}})
	}
	waitFor(t, "watcher to drain offers", func() bool { return w.Health().Updates > 0 })

	cancel()
	select {
	case <-w.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("watcher did not stop after cancel")
	}
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})

	// Offers after shutdown are dropped, not deadlocked.
	for i := 0; i < 20; i++ {
		w.Offer(stream.Update{Time: epoch})
	}
	if d := w.Health().Dropped; d == 0 {
		t.Errorf("post-shutdown offers were not counted as dropped")
	}
}

func TestWatcherProcessesAllBuffered(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := testEngine(t, Thresholds{})
	w := StartWatcher(ctx, e, 1024)
	const n = 500
	for i := 0; i < n; i++ {
		w.Offer(stream.Update{Time: epoch.Add(time.Duration(i) * time.Second), Path: []uint32{1, 2}})
	}
	waitFor(t, "all updates processed", func() bool {
		h := w.Health()
		return h.Updates+h.Dropped >= n
	})
	if h := w.Health(); h.Dropped != 0 {
		t.Errorf("dropped %d updates with a roomy buffer", h.Dropped)
	}
}

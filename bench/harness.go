package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// outcome is what one pass of a workload reports: operations attempted
// and failed (a failed check is a failed operation), the metrics named
// in BENCHMARK.json, and the same numbers under the names a user of
// that workload would use (ns_per_tuple, serve_qps, ...).
type outcome struct {
	attempted, failed int64
	metrics           metrics
	named             metrics
	problems          []string // what failed, for the log
}

func newOutcome() *outcome { return &outcome{metrics: metrics{}, named: metrics{}} }

// fail counts n failed operations and keeps the first few reasons.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// env is what a workload gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration // measured window of the untraced pass
	sc      scale
	out     string    // where trace files go
	dir     string    // scratch directory under out, removed when the run ends
	rec     *recorder // nil on the untraced pass
}

// workload is one of the five benchmark workloads. setup builds the
// inputs from the seed and brings the system under test up; it may be
// called again after teardown. measure is the untraced pass (end-to-end
// metrics), trace the traced one (per-layer metrics). teardown stops
// everything setup started and returns once it has ended.
type workload interface {
	name() string
	setup(ctx context.Context, e *env) error
	measure(ctx context.Context, e *env) (*outcome, error)
	trace(ctx context.Context, e *env) (*outcome, error)
	teardown() error
}

func workloads() []workload {
	return []workload{
		&batchWorkload{dup: false},
		&batchWorkload{dup: true},
		&serveWorkload{annotate: false},
		&serveWorkload{annotate: true},
		&liveWorkload{},
	}
}

// setupRuns is how many times a run sets up, so setup_s is a median and
// not one draw.
const setupRuns = 3

// runWorkload sets the workload up setupRuns times (tearing the earlier
// ones down), runs one pass on the last set-up, tears it down and
// checks that nothing was left running.
func runWorkload(ctx context.Context, wl workload, e *env, traced bool) (*outcome, error) {
	baseline := runtime.NumGoroutine()
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)

	runs := setupRuns
	if traced {
		runs = 1 // the traced pass does not report setup_s
	}
	var setups []float64
	for i := 0; i < runs; i++ {
		if i > 0 {
			if err := wl.teardown(); err != nil {
				return nil, fmt.Errorf("%s: teardown: %w", wl.name(), err)
			}
		}
		start := time.Now()
		if err := wl.setup(ctx, e); err != nil {
			wl.teardown() //nolint:errcheck // the set-up error is the one to report
			return nil, fmt.Errorf("%s: setup: %w", wl.name(), err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var out *outcome
	var err error
	if traced {
		e.rec = newRecorder(wl.name())
		out, err = wl.trace(ctx, e)
	} else {
		e.rec = nil
		out, err = wl.measure(ctx, e)
	}
	if terr := wl.teardown(); err == nil && terr != nil {
		err = fmt.Errorf("teardown: %w", terr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name(), err)
	}
	if traced {
		path, err := e.rec.write(e.out)
		if err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", wl.name(), err)
		}
		fmt.Printf("trace: %d spans -> %s\n", len(e.rec.snapshot()), path)
	} else {
		out.metrics.set("setup_s", median(setups), "s")
	}
	if left := goroutinesAbove(baseline, 3*time.Second); left > 0 {
		out.fail(int64(left), "%d goroutines still running after teardown", left)
	}
	return out, nil
}

// goroutinesAbove waits up to patience for the goroutine count to fall
// back to baseline and returns how many are still above it.
func goroutinesAbove(baseline int, patience time.Duration) int {
	deadline := time.Now().Add(patience)
	for {
		n := runtime.NumGoroutine() - baseline
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// heapAfterGC is the live heap once garbage is collected; the second
// collection empties the sync.Pool victim caches the first one filled.
func heapAfterGC() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

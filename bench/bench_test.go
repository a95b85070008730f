package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsMatchContract runs all five workloads, both passes, at
// the unit-test scale with second-long windows, and checks what they
// emit against BENCHMARK.json: same workloads, same metric names and
// units, nothing failed, nothing left running.
func TestWorkloadsMatchContract(t *testing.T) {
	spec, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]contractMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside 0..0.25", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}

	wls := workloads()
	if len(wls) != len(spec.Workloads) {
		t.Fatalf("%d workloads implemented, %d in BENCHMARK.json", len(wls), len(spec.Workloads))
	}
	out := t.TempDir()
	for i, wl := range wls {
		if wl.name() != spec.Workloads[i].Name || !name.MatchString(wl.name()) {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, wl.name(), spec.Workloads[i].Name)
		}
		if why := spec.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why is not one short line", wl.name())
		}
		for _, traced := range []bool{false, true} {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			e := &env{seed: 1, seconds: time.Second, sc: tinyScale(), out: out, dir: filepath.Join(out, "work")}
			o, err := runWorkload(ctx, wl, e, traced)
			cancel()
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", wl.name(), traced, err)
			}
			if o.failed != 0 || o.attempted < 1 {
				t.Errorf("%s (traced=%v): %d attempted, %d failed: %v", wl.name(), traced, o.attempted, o.failed, o.problems)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(o.metrics) != len(want) {
				t.Errorf("%s (traced=%v): %d metrics emitted, BENCHMARK.json names %d", wl.name(), traced, len(o.metrics), len(want))
			}
			for _, m := range want {
				got, ok := o.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced=%v): metric %s not emitted", wl.name(), traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", wl.name(), m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is %v", wl.name(), m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", wl.name(), m.Name, got.Value)
				}
			}
			if left := goroutinesAbove(baseline, 3*time.Second); left != 0 {
				t.Errorf("%s (traced=%v): %d goroutines left running", wl.name(), traced, left)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(out, "trace-"+wl.name()+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", wl.name(), err)
				}
			}
			if _, err := os.Stat(e.dir); !os.IsNotExist(err) {
				t.Errorf("%s: scratch directory %s not removed", wl.name(), e.dir)
			}
		}
	}
}

func TestServerStopClosesPort(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w, err := buildWorld(1, tinyScale(), true)
	if err != nil {
		t.Fatal(err)
	}
	li, err := makeLayerInputs(ctx, &env{dir: dir}, w)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	s, err := startServer(ctx, li.snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.stop(); err != nil { // stop dials the port and fails if it still answers
		t.Fatal(err)
	}
	if err := s.stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	if left := goroutinesAbove(baseline, 3*time.Second); left != 0 {
		t.Errorf("%d goroutines left after stop", left)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.125, 15}, {0.99, 49.6},
	} {
		if got := percentile(sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestZipfPickerIsSkewedAndDeterministic(t *testing.T) {
	const n, draws = 1024, 100_000
	a, b := newZipfPicker(7, 1.1, n), newZipfPicker(7, 1.1, n)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := a.next()
		if k != b.next() {
			t.Fatal("same seed drew different keys")
		}
		if k < 0 || k >= n {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	top := 0
	for _, c := range counts[:64] {
		top += c
	}
	if counts[0] <= counts[1] || counts[1] <= counts[16] || top < draws/2 {
		t.Errorf("not skewed toward the front: first %d, second %d, top-64 share %d of %d", counts[0], counts[1], top, draws)
	}
	if got := newZipfPicker(1, 1.1, 1).next(); got != 0 {
		t.Errorf("single-key picker drew %d", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "b", StartNs: 30, EndNs: 60, Parent: 0},  // overlaps a: 30..40 counts once
		{Name: "c", StartNs: 90, EndNs: 120, Parent: 0}, // clipped to the parent
		{Name: "a1", StartNs: 15, EndNs: 25, Parent: 1},
	}
	want := []time.Duration{40, 20, 30, 30, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	if got := explainedFraction(spans, 0); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("explained fraction = %v, want 0.6", got)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	id := r.start("x", 0, -1)
	r.end(id, "n", int64(1))
	if d, err := r.timed("y", 0, id, func() error { time.Sleep(time.Millisecond); return nil }); err != nil || d < time.Millisecond {
		t.Errorf("timed on a nil recorder: %v, %v", d, err)
	}
	if r.add("z", 0, -1, time.Now(), time.Second) != -1 || r.snapshot() != nil {
		t.Error("nil recorder recorded something")
	}
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"lat","unit":"us","better":"lower","bound":0.1},
		{"name":"rate","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(file string, lat, rate float64) string {
		r := report{Workloads: map[string]workloadReport{"w": {EndToEnd: metrics{"lat": {lat, "us"}, "rate": {rate, "1/s"}}}}}
		path := filepath.Join(dir, file)
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 100, 1000)
	var buf bytes.Buffer
	if err := compareReports(&buf, spec, []string{a, write("same.json", 105, 950)}); err != nil {
		t.Errorf("within bounds, but: %v\n%s", err, buf.String())
	}
	if err := compareReports(&buf, spec, []string{a, write("slow.json", 120, 1000)}); err == nil {
		t.Error("20% slower latency passed a 10% bound")
	}
	if err := compareReports(&buf, spec, []string{a, write("low.json", 100, 800)}); err == nil {
		t.Error("20% lower rate passed a 10% bound")
	}
	if err := compareReports(&buf, spec, []string{a, write("better.json", 50, 2000)}); err != nil {
		t.Errorf("an improvement failed: %v", err)
	}
}

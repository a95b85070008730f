package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer's exported function. Parent is the index of the
// span that caused it (-1 for a root); spans of one iteration share
// Iter. Counts carries the work done at the same boundary.
type span struct {
	Name     string           `json:"name"`
	Workload string           `json:"workload"`
	Iter     int              `json:"iter"`
	StartNs  int64            `json:"start_ns"`
	EndNs    int64            `json:"end_ns"`
	Parent   int              `json:"parent"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

func (s *span) duration() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced and traced passes share one code
// path and differ only in whether a recorder is attached.
type recorder struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// start opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) start(name string, iter, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Workload: r.workload, Iter: iter, StartNs: now, EndNs: now, Parent: parent})
	return len(r.spans) - 1
}

// countMap turns alternating name, value pairs into a span's counts.
func countMap(pairs []any) map[string]int64 {
	if len(pairs) < 2 {
		return nil
	}
	m := make(map[string]int64, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		m[pairs[i].(string)] = pairs[i+1].(int64)
	}
	return m
}

// end closes a span opened by start, attaching counts given as
// alternating name, value pairs.
func (r *recorder) end(id int, counts ...any) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].EndNs = now
	r.spans[id].Counts = countMap(counts)
}

// add records an already-measured interval, for boundaries that are
// timed in aggregate (one span per layer, not one per call).
func (r *recorder) add(name string, iter, parent int, start time.Time, d time.Duration, counts ...any) int {
	if r == nil {
		return -1
	}
	s := span{Name: name, Workload: r.workload, Iter: iter, Parent: parent, Counts: countMap(counts)}
	s.StartNs = start.Sub(r.t0).Nanoseconds()
	s.EndNs = s.StartNs + d.Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// timed runs fn inside a span and returns how long it took; it times fn
// even on a nil recorder.
func (r *recorder) timed(name string, iter, parent int, fn func() error, counts ...any) (time.Duration, error) {
	id := r.start(name, iter, parent)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	r.end(id, counts...)
	return d, err
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as one JSON document under dir.
func (r *recorder) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+r.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{r.workload, r.snapshot()}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi int64 }
	children := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], iv{s.StartNs, s.EndNs})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := int64(0), s.StartNs
		for _, c := range ivs {
			lo, hi := max(c.lo, reach), min(c.hi, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// explainedFraction is the share of a root span's duration that its
// children account for: 1 - self/duration.
func explainedFraction(spans []span, root int) float64 {
	d := spans[root].duration()
	if d <= 0 {
		return 0
	}
	return 1 - float64(selfTimes(spans)[root])/float64(d)
}

package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a minimal Prometheus-style metric registry: named
// counter/gauge families, optionally labeled, with text exposition in
// the Prometheus 0.0.4 format. Zero dependencies; updates are atomic
// float64 operations, so the hot path (one Add per HTTP request) never
// takes the registry lock.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// family is one metric family: a name, help, kind and its label series.
type family struct {
	name, help, kind string
	labels           []string

	mu     sync.Mutex
	order  []string // series keys in first-use order
	series map[string]*Metric

	fn    func() float64            // GaugeFunc families compute at scrape time
	fnVec func() map[string]float64 // GaugeFuncVec: label value -> sample
}

// Metric is one series of a family: an atomic float64 the holder
// updates lock-free.
type Metric struct {
	labelStr string // pre-rendered `{k="v",...}` or ""
	bits     atomic.Uint64
}

// Add increments the value by d (counters use d > 0).
func (m *Metric) Add(d float64) {
	for {
		old := m.bits.Load()
		if m.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Set stores the value (gauges).
func (m *Metric) Set(v float64) { m.bits.Store(math.Float64bits(v)) }

// Max raises the value to v if larger (gauges tracking a maximum).
func (m *Metric) Max(v float64) {
	for {
		old := m.bits.Load()
		if math.Float64frombits(old) >= v || m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the current value.
func (m *Metric) Value() float64 { return math.Float64frombits(m.bits.Load()) }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// validName matches the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register creates or fetches a family, panicking on misuse — metric
// registration happens at construction time, so a bad name or a
// kind/label mismatch is a programming error, not a runtime condition.
func (r *Registry) register(name, help, kind string, labels []string) *family {
	if !validName(name) {
		panic("obs: invalid metric name " + name)
	}
	for _, l := range labels {
		if !validName(l) {
			panic("obs: invalid label name " + l + " on " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.byName[name]; f != nil {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic("obs: conflicting re-registration of " + name)
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, series: make(map[string]*Metric)}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// with fetches or creates the series for one label-value tuple.
func (f *family) with(values ...string) *Metric {
	if len(values) != len(f.labels) {
		panic("obs: wrong label count for " + f.name)
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if m := f.series[key]; m != nil {
		return m
	}
	m := &Metric{labelStr: renderLabels(f.labels, values)}
	f.series[key] = m
	f.order = append(f.order, key)
	return m
}

// renderLabels renders `{k="v",...}` with Prometheus escaping.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		v := values[i]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Metric {
	return r.register(name, help, "counter", nil).with()
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Metric {
	return r.register(name, help, "gauge", nil).with()
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil)
	f.fn = fn
}

// GaugeFuncVec registers a single-label gauge family whose full series
// set is computed at scrape time: fn returns label value -> sample.
// For sources that already aggregate per key (e.g. findings per
// detector) and would otherwise need one registered series per key
// known in advance.
func (r *Registry) GaugeFuncVec(name, help, label string, fn func() map[string]float64) {
	f := r.register(name, help, "gauge", []string{label})
	f.fnVec = fn
}

// Vec is a labeled metric family handle.
type Vec struct{ f *family }

// With returns the series for the given label values, creating it on
// first use.
func (v Vec) With(values ...string) *Metric { return v.f.with(values...) }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) Vec {
	return Vec{r.register(name, help, "counter", labels)}
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) Vec {
	return Vec{r.register(name, help, "gauge", labels)}
}

// ContentType is the exposition format's Content-Type header value.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every family in the text exposition format:
// families in name order, series in label order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		if f.fn != nil {
			if _, err := fmt.Fprintf(w, "%s %s\n", f.name, formatValue(f.fn())); err != nil {
				return err
			}
			continue
		}
		if f.fnVec != nil {
			samples := f.fnVec()
			vals := make([]string, 0, len(samples))
			for v := range samples {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			for _, v := range vals {
				ls := renderLabels(f.labels, []string{v})
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, ls, formatValue(samples[v])); err != nil {
					return err
				}
			}
			continue
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		series := make([]*Metric, len(keys))
		for i, k := range keys {
			series[i] = f.series[k]
		}
		f.mu.Unlock()
		sort.Slice(series, func(i, j int) bool { return series[i].labelStr < series[j].labelStr })
		for _, m := range series {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, m.labelStr, formatValue(m.Value())); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatValue renders a sample value the way Prometheus expects:
// integers without an exponent, everything else in %g.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

package serve

import (
	"sort"
	"time"

	"bgpintent/internal/obs"
)

// endpointMetrics are one endpoint's series handles into the registry;
// updates are atomic, so the hot path never takes a lock.
type endpointMetrics struct {
	requests *obs.Metric
	errors   *obs.Metric
	durTotal *obs.Metric // seconds
	durMax   *obs.Metric // seconds
}

func (m *endpointMetrics) observe(d time.Duration, failed bool) {
	m.requests.Add(1)
	if failed {
		m.errors.Add(1)
	}
	s := d.Seconds()
	m.durTotal.Add(s)
	m.durMax.Max(s)
}

// EndpointStats is the exported view of one endpoint's counters.
type EndpointStats struct {
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	AvgMicros float64 `json:"avg_us"`
	MaxMicros float64 `json:"max_us"`
}

// Metrics aggregates the server's operational counters on an
// obs.Registry, so one set of atomic counters backs both the
// Prometheus exposition at /metrics and the JSON view at /v1/metrics.
type Metrics struct {
	start     time.Time
	reg       *obs.Registry
	endpoints map[string]*endpointMetrics // keys fixed at construction

	reloads      *obs.Metric
	reloadErrors *obs.Metric

	snapGeneration   *obs.Metric
	snapBuildSeconds *obs.Metric
	snapTuples       *obs.Metric
	snapPaths        *obs.Metric
	snapCommunities  *obs.Metric
	snapClusters     *obs.Metric
	snapMmap         *obs.Metric
}

func newMetrics(endpoints []string) *Metrics {
	reg := obs.NewRegistry()
	requests := reg.CounterVec("intentd_http_requests_total",
		"HTTP requests served, by endpoint.", "endpoint")
	errors := reg.CounterVec("intentd_http_request_errors_total",
		"HTTP responses with status >= 400, by endpoint.", "endpoint")
	durTotal := reg.CounterVec("intentd_http_request_duration_seconds_total",
		"Summed request handling time in seconds, by endpoint.", "endpoint")
	durMax := reg.GaugeVec("intentd_http_request_max_duration_seconds",
		"Slowest request handling time in seconds, by endpoint.", "endpoint")

	m := &Metrics{
		start:     time.Now(),
		reg:       reg,
		endpoints: make(map[string]*endpointMetrics, len(endpoints)),
		reloads: reg.Counter("intentd_reloads_total",
			"Successful snapshot reloads since start (the initial build excluded)."),
		reloadErrors: reg.Counter("intentd_reload_errors_total",
			"Failed snapshot reloads since start."),
		snapGeneration: reg.Gauge("intentd_snapshot_generation",
			"Generation number of the currently-served snapshot."),
		snapBuildSeconds: reg.Gauge("intentd_snapshot_build_seconds",
			"Build duration of the currently-served snapshot, in seconds."),
		snapTuples: reg.Gauge("intentd_snapshot_tuples",
			"Corpus tuple count behind the currently-served snapshot."),
		snapPaths: reg.Gauge("intentd_snapshot_paths",
			"Corpus unique-AS-path count behind the currently-served snapshot."),
		snapCommunities: reg.Gauge("intentd_snapshot_communities",
			"Distinct communities observed in the currently-served snapshot's corpus."),
		snapClusters: reg.Gauge("intentd_snapshot_clusters",
			"Inferred clusters in the currently-served snapshot."),
		snapMmap: reg.Gauge("intentd_snapshot_mmap",
			"1 while the served snapshot is a zero-copy mmap view, 0 when heap-resident."),
	}
	reg.GaugeFunc("intentd_uptime_seconds",
		"Seconds since the server started.", func() float64 {
			return time.Since(m.start).Seconds()
		})
	for _, e := range endpoints {
		m.endpoints[e] = &endpointMetrics{
			requests: requests.With(e),
			errors:   errors.With(e),
			durTotal: durTotal.With(e),
			durMax:   durMax.With(e),
		}
	}
	return m
}

// endpoint returns the counters for a name registered at construction.
func (m *Metrics) endpoint(name string) *endpointMetrics {
	return m.endpoints[name]
}

// setSnapshot publishes a freshly-installed snapshot's gauges.
func (m *Metrics) setSnapshot(snap *Snapshot) {
	m.snapGeneration.Set(float64(snap.Gen))
	m.snapBuildSeconds.Set(snap.BuildDuration.Seconds())
	m.snapTuples.Set(float64(snap.Info.Tuples))
	m.snapPaths.Set(float64(snap.Info.Paths))
	m.snapCommunities.Set(float64(snap.Info.Communities))
	m.snapClusters.Set(float64(snap.clusters))
	if snap.Mode == "mmap" {
		m.snapMmap.Set(1)
	} else {
		m.snapMmap.Set(0)
	}
}

// MetricsSnapshot is the scrape-time view served at /v1/metrics — a
// JSON rendering of the same registry /metrics exposes.
type MetricsSnapshot struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Generation    uint64                   `json:"generation"`
	Reloads       int64                    `json:"reloads"`
	ReloadErrors  int64                    `json:"reload_errors"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
}

// snapshot assembles a point-in-time copy of every counter.
func (m *Metrics) snapshot(gen uint64) MetricsSnapshot {
	out := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Generation:    gen,
		Reloads:       int64(m.reloads.Value()),
		ReloadErrors:  int64(m.reloadErrors.Value()),
		Endpoints:     make(map[string]EndpointStats, len(m.endpoints)),
	}
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		em := m.endpoints[name]
		st := EndpointStats{
			Requests:  int64(em.requests.Value()),
			Errors:    int64(em.errors.Value()),
			MaxMicros: em.durMax.Value() * 1e6,
		}
		if st.Requests > 0 {
			st.AvgMicros = em.durTotal.Value() / float64(st.Requests) * 1e6
		}
		out.Endpoints[name] = st
	}
	return out
}

package serve

import (
	"net/http"
	"time"

	"bgpintent"
)

// HealthSource reports live-feed health — a *bgpintent.Live is one —
// for GET /v1/health and the intentd_feed_* gauges. The serving layer
// never interprets it beyond display: a stale or degraded feed still
// serves the last good snapshot. A server without one is in batch mode
// and always reports healthy.
type HealthSource interface {
	Health() bgpintent.LiveHealth
}

// SetFeed attaches a live-feed health source: /v1/health switches from
// batch to live reporting and the feed gauges appear at /metrics.
// Call at most once, before serving traffic.
func (s *Server) SetFeed(hs HealthSource) {
	s.feed = hs
	s.metrics.registerFeed(hs.Health)
}

// registerFeed exports the live-feed gauges; scrapes read through fn.
func (m *Metrics) registerFeed(fn func() bgpintent.LiveHealth) {
	m.reg.GaugeFunc("intentd_feed_healthy",
		"1 while the live feed is healthy, 0 when stale or degraded.", func() float64 {
			if fn().Status == "healthy" {
				return 1
			}
			return 0
		})
	m.reg.GaugeFunc("intentd_feed_connected",
		"1 while a live-feed session is established and reading.", func() float64 {
			if fn().State == "live" {
				return 1
			}
			return 0
		})
	m.reg.GaugeFunc("intentd_feed_staleness_seconds",
		"Age of the last applied feed update, in seconds.", func() float64 {
			return fn().Staleness.Seconds()
		})
	m.reg.GaugeFunc("intentd_feed_last_seq",
		"Sequence number of the last applied feed update.", func() float64 {
			return float64(fn().LastSeq)
		})
	m.reg.GaugeFunc("intentd_feed_updates_total",
		"Feed updates applied since start.", func() float64 {
			return float64(fn().Updates)
		})
	m.reg.GaugeFunc("intentd_feed_reconnects_total",
		"Feed reconnects since start.", func() float64 {
			return float64(fn().Reconnects)
		})
	m.reg.GaugeFunc("intentd_feed_snapshots_total",
		"Snapshots installed from the feed since start.", func() float64 {
			return float64(fn().Snapshots)
		})
}

// feedJSON renders the feed's health in /v1/health.
type feedJSON struct {
	State            string  `json:"state"`
	LastSeq          uint64  `json:"last_seq"`
	LastUpdate       string  `json:"last_update"`
	StalenessSeconds float64 `json:"staleness_seconds"`
	Updates          uint64  `json:"updates"`
	Reconnects       uint64  `json:"reconnects"`
	Snapshots        uint64  `json:"snapshots"`
}

// snapshotProvenanceJSON says where the served snapshot came from and
// how it is held, rendered in /v1/health.
type snapshotProvenanceJSON struct {
	// Source is "local" (built in this process: classifier, snapshot
	// file, live feed) or "replica-url" (polled from an origin).
	Source string `json:"source"`
	// Mode is "mmap" (zero-copy mapped snapshot file) or "heap".
	Mode       string `json:"mode"`
	Generation uint64 `json:"generation"`

	// Replica-only poll provenance.
	URL                   string  `json:"url,omitempty"`
	LastPollAgeSeconds    float64 `json:"last_poll_age_seconds,omitempty"`
	LastSuccessAgeSeconds float64 `json:"last_success_age_seconds,omitempty"`
	Polls                 uint64  `json:"polls,omitempty"`
	PollErrors            uint64  `json:"poll_errors,omitempty"`
	Swaps                 uint64  `json:"swaps,omitempty"`
	LastError             string  `json:"last_error,omitempty"`
}

// healthResponse is the GET /v1/health body. The endpoint always
// answers 200: liveness belongs to /healthz, and a degraded service
// deliberately keeps serving — status reports data freshness, not
// willingness.
type healthResponse struct {
	Status     string                  `json:"status"`
	Mode       string                  `json:"mode"` // "batch", "live" or "replica"
	Generation uint64                  `json:"generation"`
	BuiltAt    string                  `json:"snapshot_built_at"`
	Snapshot   *snapshotProvenanceJSON `json:"snapshot"`
	Feed       *feedJSON               `json:"feed,omitempty"`
	Anomalies  *anomalyHealthJSON      `json:"anomalies,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	resp := healthResponse{
		Status:     "healthy",
		Mode:       "batch",
		Generation: snap.Gen,
		BuiltAt:    snap.BuiltAt.UTC().Format(time.RFC3339),
		Snapshot: &snapshotProvenanceJSON{
			Source:     "local",
			Mode:       snap.Mode,
			Generation: snap.Gen,
		},
	}
	if s.replica != nil {
		rh := s.replica.Health()
		resp.Status = rh.Status
		resp.Mode = "replica"
		resp.Snapshot.Source = "replica-url"
		resp.Snapshot.URL = rh.URL
		if !rh.LastPoll.IsZero() {
			resp.Snapshot.LastPollAgeSeconds = time.Since(rh.LastPoll).Seconds()
		}
		if !rh.LastSuccess.IsZero() {
			resp.Snapshot.LastSuccessAgeSeconds = time.Since(rh.LastSuccess).Seconds()
		}
		resp.Snapshot.Polls = rh.Polls
		resp.Snapshot.PollErrors = rh.PollErrors
		resp.Snapshot.Swaps = rh.Swaps
		resp.Snapshot.LastError = rh.LastError
	}
	if s.feed != nil {
		fh := s.feed.Health()
		resp.Status = fh.Status
		resp.Mode = "live"
		resp.Feed = &feedJSON{
			State:            fh.State,
			LastSeq:          fh.LastSeq,
			LastUpdate:       fh.LastUpdate.UTC().Format(time.RFC3339Nano),
			StalenessSeconds: fh.Staleness.Seconds(),
			Updates:          fh.Updates,
			Reconnects:       fh.Reconnects,
			Snapshots:        fh.Snapshots,
		}
	}
	if s.anoms != nil {
		resp.Anomalies = anomalyHealth(s.anoms.Health())
	}
	writeJSON(w, http.StatusOK, resp)
}

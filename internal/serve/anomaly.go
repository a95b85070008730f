package serve

import (
	"net/http"
	"strconv"
	"time"

	"bgpintent/internal/anomaly"
)

// AnomalySource is the serving view of the CommunityWatch engine: the
// live pipeline hands the server its anomaly.Watcher via SetAnomalies
// and the server only ever reads.
type AnomalySource interface {
	Query(q anomaly.Query) anomaly.Report
	Health() anomaly.WatchHealth
}

// SetAnomalies attaches the anomaly engine: GET /v1/anomalies starts
// answering, /v1/health gains the anomalies block, and the
// intentd_anomaly_* gauges appear at /metrics. Call at most once,
// before serving traffic.
func (s *Server) SetAnomalies(src AnomalySource) {
	s.anoms = src
	s.metrics.registerAnomalies(func() anomaly.WatchHealth { return src.Health() })
}

// registerAnomalies exports the detection gauges; scrapes read through
// fn, so they always reflect the engine's live counters.
func (m *Metrics) registerAnomalies(fn func() anomaly.WatchHealth) {
	m.reg.GaugeFunc("intentd_anomaly_findings_total",
		"Anomaly findings made since start (dropped ones included).", func() float64 {
			return float64(fn().Findings)
		})
	m.reg.GaugeFuncVec("intentd_anomaly_detector_findings_total",
		"Anomaly findings made since start, by emitting detector.", "detector",
		func() map[string]float64 {
			h := fn()
			out := make(map[string]float64, len(h.Detectors))
			// Every active detector exposes a series, zero included.
			for _, d := range h.Detectors {
				out[d] = float64(h.ByDetector[d])
			}
			return out
		})
	m.reg.GaugeFunc("intentd_anomaly_updates_total",
		"Stream updates the anomaly engine has processed since start.", func() float64 {
			return float64(fn().Updates)
		})
	m.reg.GaugeFunc("intentd_anomaly_buckets_total",
		"Activity buckets closed (detectors run) since start.", func() float64 {
			return float64(fn().Buckets)
		})
	m.reg.GaugeFunc("intentd_anomaly_dropped_total",
		"Stream updates dropped at the engine hand-off since start.", func() float64 {
			return float64(fn().Dropped)
		})
	m.reg.GaugeFunc("intentd_anomaly_lag_seconds",
		"Wall-clock age of the newest bucket close - the detector lag.", func() float64 {
			return fn().Lag.Seconds()
		})
	m.reg.GaugeFunc("intentd_anomaly_generation",
		"Semantics generation the detectors currently attribute with.", func() float64 {
			return float64(fn().Generation)
		})
}

// FindingJSON is one anomaly finding as rendered in responses.
type FindingJSON struct {
	ID       uint64 `json:"id"`
	Detector string `json:"detector"`
	Kind     string `json:"kind"`
	// Community is the subject community (series findings); ASN the
	// subject AS — the community's α, or the implicated on-path AS of a
	// disappearance finding.
	Community string `json:"community,omitempty"`
	ASN       uint32 `json:"asn"`
	// Category and Generation are the subject's inferred semantics at
	// detection time and the classification generation that assigned it.
	Category   string `json:"category"`
	Generation uint64 `json:"semantics_generation"`

	Bucket      string  `json:"bucket"`
	SpanSeconds float64 `json:"span_seconds"`

	Value    float64 `json:"value"`
	Baseline float64 `json:"baseline"`
	Score    float64 `json:"score"`
	Summary  string  `json:"summary"`
}

func findingJSON(f anomaly.Finding) FindingJSON {
	out := FindingJSON{
		ID:          f.ID,
		Detector:    f.Detector,
		Kind:        f.Kind,
		ASN:         f.ASN,
		Category:    f.Category.String(),
		Generation:  f.Generation,
		Bucket:      f.Bucket.UTC().Format(time.RFC3339),
		SpanSeconds: f.Span.Seconds(),
		Value:       f.Value,
		Baseline:    f.Baseline,
		Score:       f.Score,
		Summary:     f.Summary,
	}
	if f.HasCommunity {
		out.Community = f.Community.String()
	}
	return out
}

// anomaliesResponse is the GET /v1/anomalies body.
type anomaliesResponse struct {
	// Generation is the served snapshot generation;
	// SemanticsGeneration the classification generation the detectors
	// attribute with (they trail the snapshot briefly after a swap).
	Generation          uint64 `json:"generation"`
	SemanticsGeneration uint64 `json:"semantics_generation"`
	// Stamp is the engine change counter the body was rendered at.
	Stamp      uint64        `json:"stamp"`
	LastBucket string        `json:"last_bucket,omitempty"`
	Buckets    uint64        `json:"buckets"`
	Total      uint64        `json:"total_findings"`
	Findings   []FindingJSON `json:"findings"`
}

// handleAnomalies answers GET /v1/anomalies?window=1h&since=RFC3339&
// detector=spike&limit=100. All parameters are optional; zero values
// mean unconstrained.
func (s *Server) handleAnomalies(w http.ResponseWriter, r *http.Request) {
	if s.anoms == nil {
		writeError(w, http.StatusNotFound, "anomaly detection not enabled (start intentd with -live)")
		return
	}
	var q anomaly.Query
	qp := r.URL.Query()
	if v := qp.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "bad window %q: want a positive Go duration like 90m", v)
			return
		}
		q.Window = d
	}
	if v := qp.Get("since"); v != "" {
		ts, err := time.Parse(time.RFC3339, v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad since %q: want RFC3339", v)
			return
		}
		q.Since = ts
	}
	q.Detector = qp.Get("detector")
	if v := qp.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q: want a non-negative integer", v)
			return
		}
		q.Limit = n
	}

	rep := s.anoms.Query(q)
	resp := anomaliesResponse{
		Generation:          s.Snapshot().Gen,
		SemanticsGeneration: rep.Generation,
		Stamp:               rep.Stamp,
		Buckets:             rep.Buckets,
		Total:               rep.Total,
		Findings:            make([]FindingJSON, 0, len(rep.Findings)),
	}
	if !rep.LastBucket.IsZero() {
		resp.LastBucket = rep.LastBucket.UTC().Format(time.RFC3339)
	}
	for _, f := range rep.Findings {
		resp.Findings = append(resp.Findings, findingJSON(f))
	}
	writeJSON(w, http.StatusOK, resp)
}

// anomalyHealthJSON is the anomalies block of /v1/health: detection
// provenance — what runs, which semantics generation it attributes
// with, and how far behind the detectors are.
type anomalyHealthJSON struct {
	Detectors  []string `json:"detectors"`
	Generation uint64   `json:"semantics_generation"`
	Updates    uint64   `json:"updates"`
	Buckets    uint64   `json:"buckets"`
	Findings   uint64   `json:"findings"`
	Dropped    uint64   `json:"dropped"`
	LastBucket string   `json:"last_bucket,omitempty"`
	// LagSeconds is the wall-clock age of the newest bucket close — how
	// stale detection is, regardless of feed-time compression.
	LagSeconds float64 `json:"lag_seconds"`
}

func anomalyHealth(h anomaly.WatchHealth) *anomalyHealthJSON {
	out := &anomalyHealthJSON{
		Detectors:  h.Detectors,
		Generation: h.Generation,
		Updates:    h.Updates,
		Buckets:    h.Buckets,
		Findings:   h.Findings,
		Dropped:    h.Dropped,
		LagSeconds: h.Lag.Seconds(),
	}
	if !h.LastBucket.IsZero() {
		out.LastBucket = h.LastBucket.UTC().Format(time.RFC3339)
	}
	return out
}

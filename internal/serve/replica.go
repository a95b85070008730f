// Replica mode: this instance serves a snapshot it polls from an
// origin (another intentd's /v1/snapshot, or any HTTP endpoint that
// serves the file) instead of building one itself. Polls are gated by
// ETag when the origin provides one and by content hash otherwise, so
// an unchanged snapshot costs a 304 (or a hash compare) and no swap.
// A fetched generation is written to the cache directory, mmap-ed with
// OpenSnapshotFile, deep-verified, and atomically installed; the
// previous generation keeps serving every in-flight request that
// already loaded it and is unmapped only after the garbage collector
// proves no reference remains — the same drain discipline as reloads.
// When the origin dies the replica degrades gracefully: it keeps
// serving the last good mapping and reports staleness in /v1/health.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"bgpintent"
)

// ReplicaConfig configures snapshot polling.
type ReplicaConfig struct {
	// URL is the snapshot endpoint, e.g. "http://origin:8642/v1/snapshot".
	URL string
	// Interval is the poll period; 0 means DefaultPollInterval.
	Interval time.Duration
	// CacheDir is where fetched snapshot files land (the mmap backing
	// store); "" means os.TempDir().
	CacheDir string
	// StaleAfter is how long without a successful poll before
	// /v1/health reports "stale"; 0 means 3×Interval (at least a
	// minute).
	StaleAfter time.Duration
	// Client overrides the HTTP client; nil means a 30s-timeout client.
	Client *http.Client
}

// DefaultPollInterval is the replica poll period when unset.
const DefaultPollInterval = 15 * time.Second

// Replica polls a snapshot URL and swaps fetched generations into its
// server. Health counters are safe for concurrent readers.
type Replica struct {
	srv *Server
	cfg ReplicaConfig

	// Poll-loop state; mu also serializes explicit Poll calls.
	mu       sync.Mutex
	etag     string
	lastSum  string
	prevPath string

	lastPollNano    atomic.Int64
	lastSuccessNano atomic.Int64
	polls           atomic.Uint64
	pollErrors      atomic.Uint64
	swaps           atomic.Uint64
	lastErr         atomic.Pointer[string]
}

// NewReplica wires a poller to srv and registers its provenance in
// /v1/health and /metrics. Call before serving traffic, then Run.
func NewReplica(srv *Server, cfg ReplicaConfig) *Replica {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultPollInterval
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = max(3*cfg.Interval, time.Minute)
	}
	if cfg.CacheDir == "" {
		cfg.CacheDir = os.TempDir()
	} else {
		// The fetched snapshot is the mmap backing store, so the cache
		// dir must exist before the first poll writes into it.
		_ = os.MkdirAll(cfg.CacheDir, 0o755)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	r := &Replica{srv: srv, cfg: cfg}
	srv.setReplica(r)
	return r
}

// setReplica attaches replica provenance to health and metrics.
func (s *Server) setReplica(r *Replica) {
	s.replica = r
	s.metrics.registerReplica(r.Health)
}

// Run polls until ctx is canceled. The first poll fires immediately.
// Poll failures never stop the loop — the replica keeps serving its
// last good snapshot and reports the error in /v1/health.
func (r *Replica) Run(ctx context.Context) error {
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		if _, err := r.Poll(ctx); err != nil && ctx.Err() != nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
		}
	}
}

// Poll fetches the snapshot URL once and installs the result if it
// changed. Returns whether a new generation was swapped in.
func (r *Replica) Poll(ctx context.Context) (swapped bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.polls.Add(1)
	r.lastPollNano.Store(time.Now().UnixNano())
	swapped, err = r.fetch(ctx)
	if err != nil {
		r.pollErrors.Add(1)
		msg := err.Error()
		r.lastErr.Store(&msg)
		r.srv.logf("replica poll %s failed (still serving last good snapshot): %v", r.cfg.URL, err)
		return false, err
	}
	r.lastErr.Store(nil)
	r.lastSuccessNano.Store(time.Now().UnixNano())
	return swapped, nil
}

func (r *Replica) fetch(ctx context.Context) (bool, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.URL, nil)
	if err != nil {
		return false, err
	}
	if r.etag != "" {
		req.Header.Set("If-None-Match", r.etag)
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return false, nil
	case http.StatusOK:
	default:
		return false, fmt.Errorf("origin returned %s", resp.Status)
	}

	f, err := os.CreateTemp(r.cfg.CacheDir, "intentd-replica-*.snap")
	if err != nil {
		return false, err
	}
	tmp := f.Name()
	h := sha256.New()
	_, err = io.Copy(f, io.TeeReader(resp.Body, h))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return false, fmt.Errorf("download snapshot: %w", err)
	}
	sum := hex.EncodeToString(h.Sum(nil))
	if sum == r.lastSum {
		// Same bytes under a changed (or absent) ETag: generation gate.
		os.Remove(tmp)
		r.etag = resp.Header.Get("ETag")
		return false, nil
	}

	res, info, err := bgpintent.OpenSnapshotFile(tmp)
	if err != nil {
		os.Remove(tmp)
		return false, fmt.Errorf("open fetched snapshot: %w", err)
	}
	// The open validates only header and table; these bytes crossed a
	// network, so hash every section once before serving from them.
	if err := res.Verify(); err != nil {
		res.Close()
		os.Remove(tmp)
		return false, fmt.Errorf("verify fetched snapshot: %w", err)
	}
	snap := r.srv.Install(res, info, "replica-url:"+r.cfg.URL, time.Since(start))
	r.swaps.Add(1)
	r.etag = resp.Header.Get("ETag")
	r.lastSum = sum
	if r.prevPath != "" {
		// The previous generation may still be mapped by in-flight
		// requests; unlinking is safe — the pages live until munmap.
		os.Remove(r.prevPath)
	}
	r.prevPath = tmp
	r.srv.logf("replica installed %v from %s (%s)", snap, r.cfg.URL, time.Since(start).Round(time.Millisecond))
	return true, nil
}

// ReplicaHealth is a point-in-time view of the poller, rendered in
// /v1/health and exported as gauges.
type ReplicaHealth struct {
	// Status is "healthy" (recent successful poll), "stale" (no success
	// within StaleAfter) or "degraded" (never fetched a snapshot).
	Status string
	URL    string
	// LastPoll/LastSuccess are zero until the first attempt/success.
	LastPoll    time.Time
	LastSuccess time.Time
	Polls       uint64
	PollErrors  uint64
	Swaps       uint64
	LastError   string
}

// Health reports the poller's current state.
func (r *Replica) Health() ReplicaHealth {
	h := ReplicaHealth{
		URL:        r.cfg.URL,
		Polls:      r.polls.Load(),
		PollErrors: r.pollErrors.Load(),
		Swaps:      r.swaps.Load(),
	}
	if n := r.lastPollNano.Load(); n != 0 {
		h.LastPoll = time.Unix(0, n)
	}
	if n := r.lastSuccessNano.Load(); n != 0 {
		h.LastSuccess = time.Unix(0, n)
	}
	if msg := r.lastErr.Load(); msg != nil {
		h.LastError = *msg
	}
	switch {
	case h.Swaps == 0:
		h.Status = "degraded"
	case h.LastSuccess.IsZero() || time.Since(h.LastSuccess) > r.cfg.StaleAfter:
		h.Status = "stale"
	default:
		h.Status = "healthy"
	}
	return h
}

// registerReplica exports the poller gauges; scrapes read through fn.
func (m *Metrics) registerReplica(fn func() ReplicaHealth) {
	m.reg.GaugeFunc("intentd_replica_healthy",
		"1 while the replica has a fresh snapshot from its origin.", func() float64 {
			if fn().Status == "healthy" {
				return 1
			}
			return 0
		})
	m.reg.GaugeFunc("intentd_replica_last_poll_age_seconds",
		"Seconds since the last poll attempt (-1 before the first).", func() float64 {
			h := fn()
			if h.LastPoll.IsZero() {
				return -1
			}
			return time.Since(h.LastPoll).Seconds()
		})
	m.reg.GaugeFunc("intentd_replica_last_success_age_seconds",
		"Seconds since the last successful poll (-1 before the first).", func() float64 {
			h := fn()
			if h.LastSuccess.IsZero() {
				return -1
			}
			return time.Since(h.LastSuccess).Seconds()
		})
	m.reg.GaugeFunc("intentd_replica_polls_total",
		"Snapshot polls attempted since start.", func() float64 {
			return float64(fn().Polls)
		})
	m.reg.GaugeFunc("intentd_replica_poll_errors_total",
		"Snapshot polls that failed since start.", func() float64 {
			return float64(fn().PollErrors)
		})
	m.reg.GaugeFunc("intentd_replica_swaps_total",
		"Snapshot generations swapped in since start.", func() float64 {
			return float64(fn().Swaps)
		})
}

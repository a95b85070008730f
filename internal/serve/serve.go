package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bgpintent"
	"bgpintent/internal/bgp"
	"bgpintent/internal/obs"
)

// Builder produces a fresh classification result; the server calls it
// once at startup and again on every reload (SIGHUP or
// POST /v1/admin/reload). It runs outside the request read path — a
// slow build delays only the swap, never a query. The returned source
// string describes provenance for /v1/stats.
type Builder func(ctx context.Context) (res *bgpintent.Result, info bgpintent.SnapshotInfo, source string, err error)

// maxAnnotateBody bounds the POST /v1/annotate request body.
const maxAnnotateBody = 4 << 20

// maxAnnotateItems bounds how many communities one annotate call may
// resolve, counting tuple members.
const maxAnnotateItems = 65536

// endpointNames are the instrumented endpoint keys in /v1/metrics and
// the endpoint label values at /metrics.
var endpointNames = []string{"community", "annotate", "as", "stats", "metrics", "prometheus", "reload", "health", "snapshot", "anomalies"}

// Server is the intentd HTTP core: an atomic current snapshot, a
// builder to replace it, and the instrumented mux.
type Server struct {
	snap    atomic.Pointer[Snapshot]
	gen     atomic.Uint64
	builder Builder
	metrics *Metrics
	logf    func(format string, args ...any)
	mux     *http.ServeMux

	// feed, when set, switches /v1/health to live-feed reporting; set
	// once via SetFeed before serving.
	feed HealthSource

	// anoms, when set, enables GET /v1/anomalies and the anomaly health
	// block; set once via SetAnomalies before serving.
	anoms AnomalySource

	// replica, when set, adds poll provenance to /v1/health and
	// /metrics; set once via SetReplica before serving.
	replica *Replica

	// snapshotFile, when non-empty, is published at GET /v1/snapshot so
	// replicas can poll this instance directly; set once via
	// SetSnapshotFile before serving.
	snapshotFile string

	// reloadMu serializes builds: concurrent reload requests queue
	// rather than racing to install snapshots out of order. Readers
	// never touch it.
	reloadMu sync.Mutex

	// reloadDisabled, when non-nil, rejects Reload with its reason —
	// live mode owns snapshot installation and a builder-driven reload
	// would clobber the streamed state.
	reloadDisabled atomic.Pointer[string]
}

// ErrReloadDisabled is wrapped into Reload's error after DisableReload;
// the HTTP layer maps it to 409 Conflict.
var ErrReloadDisabled = errors.New("reload disabled")

// DisableReload makes every future Reload (HTTP or SIGHUP) fail with
// ErrReloadDisabled and the given reason, without touching the served
// snapshot. Used in live mode, where the feed Ingestor owns snapshot
// installation via Install.
func (s *Server) DisableReload(reason string) {
	s.reloadDisabled.Store(&reason)
}

// New constructs a server and installs its first snapshot by running
// the builder. logf receives operational log lines; nil means
// log.Printf.
func New(ctx context.Context, builder Builder, logf func(string, ...any)) (*Server, error) {
	if logf == nil {
		logf = log.Printf
	}
	s := &Server{
		builder: builder,
		metrics: newMetrics(endpointNames),
		logf:    logf,
	}
	if _, err := s.Reload(ctx); err != nil {
		return nil, err
	}
	// The reload counter should not count the initial build the
	// constructor already turned into an error.
	s.metrics.reloads.Set(0)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/community/{comm}", s.instrument("community", s.handleCommunity))
	s.mux.HandleFunc("POST /v1/annotate", s.instrument("annotate", s.handleAnnotate))
	s.mux.HandleFunc("GET /v1/as/{asn}", s.instrument("as", s.handleAS))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("GET /v1/metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /metrics", s.instrument("prometheus", s.handlePrometheus))
	s.mux.HandleFunc("POST /v1/admin/reload", s.instrument("reload", s.handleReload))
	s.mux.HandleFunc("GET /v1/health", s.instrument("health", s.handleHealth))
	s.mux.HandleFunc("GET /v1/snapshot", s.instrument("snapshot", s.handleSnapshotFile))
	s.mux.HandleFunc("GET /v1/anomalies", s.instrument("anomalies", s.handleAnomalies))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s, nil
}

// ServeHTTP serves the API mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Snapshot returns the current snapshot; the result stays valid (and
// internally consistent) for as long as the caller holds it, even
// across reloads.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Reload runs the builder and atomically installs the result as the
// new current snapshot. Queries observe either the old or the new
// snapshot in full — never a mix. On error the old snapshot stays
// installed and keeps serving.
func (s *Server) Reload(ctx context.Context) (*Snapshot, error) {
	if reason := s.reloadDisabled.Load(); reason != nil {
		return nil, fmt.Errorf("%w: %s", ErrReloadDisabled, *reason)
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()

	start := time.Now()
	res, info, source, err := s.builder(ctx)
	if err != nil {
		s.metrics.reloadErrors.Add(1)
		s.logf("reload failed (still serving %v): %v", s.snap.Load(), err)
		return nil, err
	}
	snap := NewSnapshot(s.gen.Add(1), res, info, source, time.Since(start))
	s.snap.Store(snap)
	s.metrics.reloads.Add(1)
	s.metrics.setSnapshot(snap)
	s.logf("installed snapshot %v in %v", snap, snap.BuildDuration.Round(time.Millisecond))
	return snap, nil
}

// Install atomically swaps in a snapshot built outside the builder —
// the live-mode path, where the stream Ingestor produces results and
// the builder never runs again. Queries observe either the old or the
// new snapshot in full, exactly as with Reload.
func (s *Server) Install(res *bgpintent.Result, info bgpintent.SnapshotInfo, source string, buildDuration time.Duration) *Snapshot {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	snap := NewSnapshot(s.gen.Add(1), res, info, source, buildDuration)
	s.snap.Store(snap)
	s.metrics.setSnapshot(snap)
	return snap
}

// instrument wraps a handler with the per-endpoint counters.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	em := s.metrics.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := countingWriterPool.Get().(*countingWriter)
		cw.ResponseWriter, cw.status = w, 0
		h(cw, r)
		em.observe(time.Since(start), cw.status >= 400)
		cw.ResponseWriter = nil
		countingWriterPool.Put(cw)
	}
}

// countingWriter records the response status for the error counters.
type countingWriter struct {
	http.ResponseWriter
	status int
}

var countingWriterPool = sync.Pool{
	New: func() any { return new(countingWriter) },
}

func (c *countingWriter) WriteHeader(status int) {
	c.status = status
	c.ResponseWriter.WriteHeader(status)
}

// Unwrap lets http.ResponseController reach the connection's Flush and
// deadline methods through the wrapper.
func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// ReadFrom passes io.Copy through to the connection's own ReadFrom, so
// http.ServeContent on GET /v1/snapshot still reaches sendfile.
func (c *countingWriter) ReadFrom(r io.Reader) (int64, error) {
	if rf, ok := c.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(r)
	}
	return io.Copy(c.ResponseWriter, r)
}

// writeJSON renders v with encoding/json and sends it: the reply path
// of every endpoint outside the verdict response writer (encode.go).
func writeJSON(w http.ResponseWriter, status int, v any) {
	sendRendered(w, status, func(b []byte) ([]byte, error) { return encodeJSONBody(b, v) })
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// ClusterJSON is a cluster as rendered in responses. The numeric
// fields are wide enough for large-community clusters; classic
// clusters render identically to the historical uint16 shape. Fn is
// only present on large clusters.
type ClusterJSON struct {
	ASN         uint32  `json:"asn"`
	Lo          uint32  `json:"lo"`
	Hi          uint32  `json:"hi"`
	Category    string  `json:"category"`
	Size        int     `json:"size"`
	OnPath      int     `json:"on_path"`
	OffPath     int     `json:"off_path"`
	PureOnPath  bool    `json:"pure_on_path"`
	PureOffPath bool    `json:"pure_off_path"`
	Ratio       float64 `json:"ratio"`
	Fn          *uint32 `json:"fn,omitempty"`
}

// clusterJSON renders a cluster, which it only reads: a large one's Fn
// gets storage of its own, so a verdict's cluster can stay on the
// caller's stack.
func clusterJSON(cl *bgpintent.Cluster) ClusterJSON {
	out := ClusterJSON{
		ASN: cl.ASN, Lo: cl.Lo, Hi: cl.Hi, Category: cl.Category.String(),
		Size: cl.Size, OnPath: cl.OnPath, OffPath: cl.OffPath,
		PureOnPath: cl.PureOnPath, PureOffPath: cl.PureOffPath, Ratio: cl.Ratio,
	}
	if cl.Kind == bgpintent.KindLarge {
		fn := cl.Fn
		out.Fn = &fn
	}
	return out
}

// Annotation is one community verdict as rendered in responses.
type Annotation struct {
	// Community renders as "α:β" or "α:fn:value".
	Community bgpintent.CommunityKey `json:"community"`
	// Kind is "classic" for α:β communities, "large" for RFC 8092
	// α:fn:value ones.
	Kind     string       `json:"kind"`
	Observed bool         `json:"observed"`
	Category string       `json:"category"`
	OnPath   int          `json:"on_path"`
	OffPath  int          `json:"off_path"`
	Reason   string       `json:"exclude_reason,omitempty"`
	Cluster  *ClusterJSON `json:"cluster,omitempty"`
	// OnThisPath reports whether the community's α appears in the AS
	// path supplied with a tuple annotation; null for bare communities.
	OnThisPath *bool `json:"on_this_path,omitempty"`
}

// onThisPath are the two values Annotation.OnThisPath points at.
var onThisPath = [2]bool{false, true}

// annotateKey answers one verdict for a community of either kind. The
// deciding cluster, if any, is rendered into *cl, which the Annotation
// then points at: the caller owns that storage, so a verdict costs no
// allocation here.
func annotateKey(snap *Snapshot, k bgpintent.CommunityKey, cl *ClusterJSON) Annotation {
	l := snap.LookupKey(k)
	a := Annotation{
		Community: l.Key,
		Kind:      l.Key.Kind().String(),
		Observed:  l.Observed,
		Category:  l.Category.String(),
		OnPath:    l.OnPath,
		OffPath:   l.OffPath,
		Reason:    string(l.Reason),
	}
	if l.HasCluster {
		*cl = clusterJSON(&l.Cluster)
		a.Cluster = cl
	}
	return a
}

// communityResponse is the GET /v1/community/{comm} body.
type communityResponse struct {
	Annotation
	Generation uint64 `json:"generation"`
}

func (s *Server) handleCommunity(w http.ResponseWriter, r *http.Request) {
	k, err := bgpintent.ParseCommunityKey(r.PathValue("comm"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad community: %v", err)
		return
	}
	// One snapshot load; everything below answers from it, so the
	// response is internally consistent even mid-reload.
	snap := s.Snapshot()
	sendRendered(w, http.StatusOK, func(b []byte) ([]byte, error) {
		var cl ClusterJSON
		return appendCommunityResponse(b, &communityResponse{
			Annotation: annotateKey(snap, k, &cl),
			Generation: snap.Gen,
		})
	})
}

// AnnotateTuple is one (AS path, communities) input of POST
// /v1/annotate, in looking-glass notation.
type AnnotateTuple struct {
	// Path is the AS path, e.g. "701 2914 3356"; optional. When given,
	// each annotation also reports whether its α is on this path.
	Path string `json:"path,omitempty"`
	// Communities is the attached community set, e.g. "2914:3075 2914:420".
	Communities string `json:"communities"`
}

// annotateRequest is the POST /v1/annotate body.
type annotateRequest struct {
	// Communities are bare communities to annotate.
	Communities []string `json:"communities,omitempty"`
	// Tuples are full route observations to annotate member by member.
	Tuples []AnnotateTuple `json:"tuples,omitempty"`
}

// annotateTupleResponse annotates one input tuple.
type annotateTupleResponse struct {
	Path        string       `json:"path,omitempty"`
	Annotations []Annotation `json:"annotations"`
}

// annotateResponse is the POST /v1/annotate response body.
type annotateResponse struct {
	Generation  uint64                  `json:"generation"`
	Annotations []Annotation            `json:"annotations,omitempty"`
	Tuples      []annotateTupleResponse `json:"tuples,omitempty"`
}

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	var req annotateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAnnotateBody)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Communities) == 0 && len(req.Tuples) == 0 {
		writeError(w, http.StatusBadRequest, "empty request: give communities and/or tuples")
		return
	}

	snap := s.Snapshot()
	sc := getScratch()
	defer sc.release()
	// annotate appends one verdict to the slabs; budget refuses the
	// request once it asks for more than maxAnnotateItems of them.
	annotate := func(k bgpintent.CommunityKey, on *bool) {
		sc.clusters = append(sc.clusters, ClusterJSON{})
		a := annotateKey(snap, k, &sc.clusters[len(sc.clusters)-1])
		a.OnThisPath = on
		sc.anns = append(sc.anns, a)
	}
	items := 0
	budget := func(n int) bool {
		items += n
		if items > maxAnnotateItems {
			writeError(w, http.StatusRequestEntityTooLarge, "more than %d communities in one request", maxAnnotateItems)
			return false
		}
		return true
	}

	for i, cs := range req.Communities {
		k, err := bgpintent.ParseCommunityKey(cs)
		if err != nil {
			writeError(w, http.StatusBadRequest, "communities[%d]: %v", i, err)
			return
		}
		if !budget(1) {
			return
		}
		annotate(k, nil)
	}
	resp := annotateResponse{Generation: snap.Gen, Annotations: sc.anns}

	for i, tup := range req.Tuples {
		var err error
		sc.comms, sc.lcomms, err = bgp.AppendCommunities(sc.comms[:0], sc.lcomms[:0], tup.Communities)
		if err != nil {
			writeError(w, http.StatusBadRequest, "tuples[%d].communities: %v", i, err)
			return
		}
		if !budget(len(sc.comms) + len(sc.lcomms)) {
			return
		}
		var path bgp.ASPath
		havePath := tup.Path != ""
		if havePath {
			if path, err = bgp.ParseASPath(tup.Path); err != nil {
				writeError(w, http.StatusBadRequest, "tuples[%d].path: %v", i, err)
				return
			}
		}
		onPath := func(asn uint32) *bool {
			if !havePath {
				return nil
			}
			if path.Contains(asn) {
				return &onThisPath[1]
			}
			return &onThisPath[0]
		}
		first := len(sc.anns)
		for _, c := range sc.comms {
			annotate(bgpintent.ClassicKey(c.ASN(), c.Value()), onPath(uint32(c.ASN())))
		}
		for _, lc := range sc.lcomms {
			annotate(bgpintent.LargeKey(lc.GlobalAdmin, lc.LocalData1, lc.LocalData2), onPath(lc.GlobalAdmin))
		}
		tr := annotateTupleResponse{Path: tup.Path}
		if len(sc.anns) > first { // a tuple without communities answers null, not []
			tr.Annotations = sc.anns[first:]
		}
		sc.tuples = append(sc.tuples, tr)
	}
	resp.Tuples = sc.tuples

	var err error
	if sc.out, err = appendAnnotateResponse(sc.out[:0], &resp); err != nil {
		writeError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	sendJSON(w, http.StatusOK, sc.out)
}

// asResponse is the GET /v1/as/{asn} body.
type asResponse struct {
	ASN        uint16        `json:"asn"`
	Clusters   []ClusterJSON `json:"clusters"`
	Generation uint64        `json:"generation"`
}

func (s *Server) handleAS(w http.ResponseWriter, r *http.Request) {
	asn64, err := strconv.ParseUint(r.PathValue("asn"), 10, 16)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad asn: %v", err)
		return
	}
	snap := s.Snapshot()
	sendRendered(w, http.StatusOK, func(b []byte) ([]byte, error) {
		cls := snap.ClustersFor(uint16(asn64))
		resp := asResponse{ASN: uint16(asn64), Generation: snap.Gen, Clusters: make([]ClusterJSON, 0, len(cls))}
		for i := range cls {
			resp.Clusters = append(resp.Clusters, clusterJSON(&cls[i]))
		}
		return appendASResponse(b, &resp)
	})
}

// statsResponse is the GET /v1/stats body.
type statsResponse struct {
	Generation    uint64  `json:"generation"`
	Source        string  `json:"source"`
	BuiltAt       string  `json:"built_at"`
	BuildSeconds  float64 `json:"build_seconds"`
	CorpusCreated string  `json:"corpus_created"`

	Tuples           int `json:"tuples"`
	Paths            int `json:"paths"`
	VantagePoints    int `json:"vantage_points"`
	Communities      int `json:"communities"`
	LargeCommunities int `json:"large_communities"`

	Action      int `json:"action"`
	Information int `json:"information"`
	Excluded    int `json:"excluded"`
	Clusters    int `json:"clusters"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsFor(s.Snapshot()))
}

func (s *Server) statsFor(snap *Snapshot) statsResponse {
	return statsResponse{
		Generation:       snap.Gen,
		Source:           snap.Source,
		BuiltAt:          snap.BuiltAt.UTC().Format(time.RFC3339),
		BuildSeconds:     snap.BuildDuration.Seconds(),
		CorpusCreated:    snap.Info.Created.UTC().Format(time.RFC3339),
		Tuples:           snap.Info.Tuples,
		Paths:            snap.Info.Paths,
		VantagePoints:    snap.Info.VantagePoints,
		Communities:      snap.Info.Communities,
		LargeCommunities: snap.Info.LargeCommunities,
		Action:           snap.action,
		Information:      snap.information,
		Excluded:         snap.excluded,
		Clusters:         snap.clusters,
	}
}

// SetSnapshotFile publishes the snapshot file at GET /v1/snapshot, so
// replica instances can poll this one directly (one writer, N mmap
// replicas sharing the page cache). Call at most once, before serving.
func (s *Server) SetSnapshotFile(path string) { s.snapshotFile = path }

// handleSnapshotFile streams the published snapshot file with an ETag
// derived from (mtime, size), so replica polls short-circuit to 304
// until the file is replaced.
func (s *Server) handleSnapshotFile(w http.ResponseWriter, r *http.Request) {
	if s.snapshotFile == "" {
		writeError(w, http.StatusNotFound, "no snapshot file published (start with -snapshot, or point replicas at the origin)")
		return
	}
	f, err := os.Open(s.snapshotFile)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "open snapshot: %v", err)
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "stat snapshot: %v", err)
		return
	}
	w.Header().Set("ETag", fmt.Sprintf(`"%x-%x"`, st.ModTime().UnixNano(), st.Size()))
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, "", st.ModTime(), f)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.snapshot(s.Snapshot().Gen))
}

// handlePrometheus serves the registry in the Prometheus text
// exposition format — the scrape target backing GET /metrics.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	s.metrics.reg.WritePrometheus(w) //nolint:errcheck // the connection is gone; nothing to do
}

// reloadResponse is the POST /v1/admin/reload body.
type reloadResponse struct {
	Generation   uint64  `json:"generation"`
	Source       string  `json:"source"`
	BuildSeconds float64 `json:"build_seconds"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	snap, err := s.Reload(r.Context())
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrReloadDisabled) {
			status = http.StatusConflict
		}
		writeError(w, status, "reload failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, reloadResponse{
		Generation:   snap.Gen,
		Source:       snap.Source,
		BuildSeconds: snap.BuildDuration.Seconds(),
	})
}

// ServeConfig configures ListenAndServe.
type ServeConfig struct {
	// Addr is the listen address, e.g. ":8642" or "127.0.0.1:0".
	Addr string
	// DrainTimeout bounds connection draining at shutdown; 0 means
	// DefaultDrainTimeout.
	DrainTimeout time.Duration
	// OnListen, if set, receives the bound address before serving
	// starts (useful with port 0).
	OnListen func(addr net.Addr)

	// ReadHeaderTimeout, ReadTimeout and IdleTimeout harden the listener
	// against slow-loris clients and idle-connection pileups. 0 means
	// the package default; negative disables that timeout.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	IdleTimeout       time.Duration
}

// DefaultDrainTimeout is how long a shutting-down server waits for
// in-flight requests before closing their connections.
const DefaultDrainTimeout = 10 * time.Second

// Default HTTP hardening timeouts: generous for the API's small
// request bodies, strict enough that a stalled client cannot pin a
// connection (and its goroutine) indefinitely.
const (
	DefaultReadHeaderTimeout = 10 * time.Second
	DefaultReadTimeout       = 30 * time.Second
	DefaultIdleTimeout       = 2 * time.Minute
)

// timeoutOrDefault resolves the 0-default / negative-disabled
// convention of ServeConfig timeouts.
func timeoutOrDefault(v, def time.Duration) time.Duration {
	switch {
	case v < 0:
		return 0
	case v == 0:
		return def
	default:
		return v
	}
}

// ListenAndServe runs the HTTP server until ctx is canceled, then
// shuts down gracefully: the listener closes immediately, in-flight
// requests get up to DrainTimeout to complete, and only then are
// connections torn down. Returns nil on a clean drained shutdown.
func (s *Server) ListenAndServe(ctx context.Context, cfg ServeConfig) error {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	if cfg.OnListen != nil {
		cfg.OnListen(ln.Addr())
	}
	drain := cfg.DrainTimeout
	if drain <= 0 {
		drain = DefaultDrainTimeout
	}

	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: timeoutOrDefault(cfg.ReadHeaderTimeout, DefaultReadHeaderTimeout),
		ReadTimeout:       timeoutOrDefault(cfg.ReadTimeout, DefaultReadTimeout),
		IdleTimeout:       timeoutOrDefault(cfg.IdleTimeout, DefaultIdleTimeout),
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	s.logf("shutting down, draining for up to %v", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		return fmt.Errorf("drain timeout exceeded: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	s.logf("shutdown complete")
	return nil
}

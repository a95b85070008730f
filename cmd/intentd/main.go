// Command intentd serves BGP community-intent inferences over HTTP: a
// long-running query daemon over the paper's classifier, so downstream
// systems (location filters, anomaly detectors, looking glasses) can
// ask "what is 2914:3075?" without re-running the pipeline.
//
// It loads a precomputed snapshot (intentinfer -format snapshot;
// memory-mapped for O(1) cold start), raw MRT archives
// (classified on startup), a polled snapshot URL (-replica, for
// horizontally scaled fleets), or — with -live — consumes a simulated
// streaming feed through the fault-tolerant Ingestor, and serves:
//
//	GET  /v1/community/{asn}:{value}  one community's verdict + evidence
//	POST /v1/annotate                 batch: communities or (path, communities) tuples
//	GET  /v1/as/{asn}                 all inferred clusters of one α
//	GET  /v1/stats                    corpus + inference counters
//	GET  /v1/metrics                  the operational counters as JSON
//	GET  /metrics                     the same counters in Prometheus text format
//	POST /v1/admin/reload             rebuild + atomically swap the snapshot
//	GET  /v1/anomalies                CommunityWatch findings (live mode; ?window= ?since= ?detector= ?limit=)
//	GET  /v1/health                   feed/replica health: healthy | stale | degraded (always 200)
//	GET  /v1/snapshot                 the published snapshot file (ETag-gated; -snapshot mode)
//	GET  /healthz                     liveness
//
// Reads are lock-free against an immutable snapshot; SIGHUP or the
// admin endpoint rebuilds in the background and swaps with zero
// downtime. In live mode the feed Ingestor owns snapshot installation
// (reload is disabled with a structured 409), survives disconnects,
// stalls and corrupt frames by resuming from its last applied sequence
// number, and on feed death degrades to serving the last good snapshot
// while /v1/health reports stale/degraded. Live mode also runs
// CommunityWatch (-anomaly, on by default): streaming detectors over
// the feed — community activity spikes, strip/leak disappearances,
// flap churn — attributed with the inferred semantics of each
// generation and served at /v1/anomalies; -events scripts ground-truth
// anomalies into the simulated feed. SIGTERM/SIGINT drain
// connections gracefully within -drain-timeout. -debug-addr exposes
// net/http/pprof on a separate listener.
//
// Usage:
//
//	intentd -snapshot out.snap [-addr :8642]
//	intentd -rib 'corpus/*.rib.mrt' -updates 'corpus/*.updates.mrt' \
//	        -as2org corpus/as2org.txt [-gap 140] [-ratio 160]
//	intentd -live [-live-small] [-fault-rate 0.1] [-window 48h] \
//	        [-events 'spike:3356:666@25h+2h#400'] [-anomaly-bucket 30m]
//	intentd -replica -snapshot-url http://origin:8642/v1/snapshot \
//	        [-poll-interval 15s] [-snapshot-cache /var/cache/intentd]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"bgpintent"
	"bgpintent/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("intentd: ")
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// config is the parsed command line.
type config struct {
	addr         string
	debugAddr    string
	snapshot     string
	ribGlob      string
	updGlob      string
	as2org       string
	gap          int
	ratio        float64
	par          int
	strict       bool
	maxErr       float64
	drainTimeout time.Duration

	// HTTP listener hardening (0 = package default, negative = disabled).
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	idleTimeout       time.Duration

	// replica mode
	replica       bool
	snapshotURL   string
	pollInterval  time.Duration
	snapshotCache string

	// live-feed mode
	live          bool
	liveSmall     bool
	liveSeed      int64
	liveDays      int
	liveLoop      bool
	liveInterval  time.Duration
	faultRate     float64
	faultSeed     int64
	faultStall    time.Duration
	windowSpan    time.Duration
	windowBuckets int
	events        string
	anomaly       bool
	anomalyBucket time.Duration
	anomalyHist   int
	staleAfter    time.Duration
	feedReadTO    time.Duration
	retryBudget   int
	snapEvery     int
	snapInterval  time.Duration
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("intentd", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.addr, "addr", ":8642", "HTTP listen address")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "optional pprof listen address (e.g. 127.0.0.1:6060)")
	fs.StringVar(&cfg.snapshot, "snapshot", "", "cold-start from this intentinfer -format snapshot file")
	fs.StringVar(&cfg.ribGlob, "rib", "", "glob of TABLE_DUMP_V2 RIB files")
	fs.StringVar(&cfg.updGlob, "updates", "", "glob of BGP4MP updates files")
	fs.StringVar(&cfg.as2org, "as2org", "", "as2org file (asn|org lines)")
	fs.IntVar(&cfg.gap, "gap", 140, "minimum gap between community clusters")
	fs.Float64Var(&cfg.ratio, "ratio", 160, "on-path:off-path ratio threshold")
	fs.IntVar(&cfg.par, "parallelism", 0, "ingest/classifier workers (0 = one per CPU)")
	fs.BoolVar(&cfg.strict, "strict", false, "fail on the first malformed MRT record")
	fs.Float64Var(&cfg.maxErr, "max-error-rate", bgpintent.DefaultMaxErrorRate,
		"abort a load when a file's corruption rate exceeds this fraction")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", serve.DefaultDrainTimeout,
		"how long to wait for in-flight requests at shutdown")
	fs.DurationVar(&cfg.readHeaderTimeout, "read-header-timeout", serve.DefaultReadHeaderTimeout,
		"HTTP header read deadline (slow-loris guard; negative disables)")
	fs.DurationVar(&cfg.readTimeout, "read-timeout", serve.DefaultReadTimeout,
		"HTTP full-request read deadline (negative disables)")
	fs.DurationVar(&cfg.idleTimeout, "idle-timeout", serve.DefaultIdleTimeout,
		"HTTP keep-alive idle deadline (negative disables)")

	fs.BoolVar(&cfg.replica, "replica", false, "poll a snapshot URL instead of building locally (requires -snapshot-url)")
	fs.StringVar(&cfg.snapshotURL, "snapshot-url", "", "snapshot endpoint to poll in replica mode (e.g. http://origin:8642/v1/snapshot)")
	fs.DurationVar(&cfg.pollInterval, "poll-interval", serve.DefaultPollInterval, "replica snapshot poll period")
	fs.StringVar(&cfg.snapshotCache, "snapshot-cache", "", "directory for fetched replica snapshots (default: system temp dir)")

	fs.BoolVar(&cfg.live, "live", false, "consume the simulated streaming feed instead of a static corpus")
	fs.BoolVar(&cfg.liveSmall, "live-small", false, "use the test-sized synthetic Internet for the live feed")
	fs.Int64Var(&cfg.liveSeed, "live-seed", 1, "deterministic seed of the live feed")
	fs.IntVar(&cfg.liveDays, "live-days", 2, "distinct simulated days the live feed covers")
	fs.BoolVar(&cfg.liveLoop, "live-loop", true, "replay the simulated days forever (endless feed)")
	fs.DurationVar(&cfg.liveInterval, "live-interval", time.Millisecond, "wall-clock pacing between feed updates (0 = full speed)")
	fs.Float64Var(&cfg.faultRate, "fault-rate", 0, "per-delivery fault injection probability in [0,1] (0 disables)")
	fs.Int64Var(&cfg.faultSeed, "fault-seed", 0, "deterministic seed of the fault injector")
	fs.DurationVar(&cfg.faultStall, "fault-stall", 0, "injected stall length (0 = injector default)")
	fs.StringVar(&cfg.events, "events", "", `scripted anomalies for the live feed, e.g. "spike:3356:666@25h+2h#400;strip:2914@30h+3h"`)
	fs.BoolVar(&cfg.anomaly, "anomaly", true, "run CommunityWatch streaming anomaly detection on the live feed")
	fs.DurationVar(&cfg.anomalyBucket, "anomaly-bucket", 0, "anomaly detection bucket width in feed time (0 = default 30m)")
	fs.IntVar(&cfg.anomalyHist, "anomaly-buckets", 0, "baseline buckets kept per community series (0 = default 32)")
	fs.DurationVar(&cfg.windowSpan, "window", 0, "rolling window span in feed time (0 = keep everything)")
	fs.IntVar(&cfg.windowBuckets, "window-buckets", 0, "rolling window eviction granularity (0 = default)")
	fs.DurationVar(&cfg.staleAfter, "stale-after", 0, "feed staleness budget for /v1/health (0 = default 2m)")
	fs.DurationVar(&cfg.feedReadTO, "feed-read-timeout", 0, "feed read deadline before a stall reconnect (0 = default 30s)")
	fs.IntVar(&cfg.retryBudget, "retry-budget", 0, "consecutive failed feed cycles before degrading (0 = default, negative = never)")
	fs.IntVar(&cfg.snapEvery, "snapshot-every", 0, "feed updates per published snapshot (0 = default, negative = disabled)")
	fs.DurationVar(&cfg.snapInterval, "snapshot-interval", 0, "wall time per published snapshot (0 = default, negative = disabled)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case cfg.replica:
		if cfg.live || cfg.snapshot != "" || cfg.ribGlob != "" || cfg.updGlob != "" {
			return nil, fmt.Errorf("-replica and -live/-snapshot/-rib/-updates are mutually exclusive")
		}
		if cfg.snapshotURL == "" {
			return nil, fmt.Errorf("-replica requires -snapshot-url")
		}
		if cfg.pollInterval <= 0 {
			return nil, fmt.Errorf("-poll-interval must be positive")
		}
	case cfg.live:
		if cfg.snapshot != "" || cfg.ribGlob != "" || cfg.updGlob != "" {
			return nil, fmt.Errorf("-live and -snapshot/-rib/-updates are mutually exclusive")
		}
		if cfg.faultRate < 0 || cfg.faultRate > 1 {
			return nil, fmt.Errorf("-fault-rate %g outside [0,1]", cfg.faultRate)
		}
	default:
		if cfg.snapshotURL != "" {
			return nil, fmt.Errorf("-snapshot-url requires -replica")
		}
		if cfg.faultRate != 0 {
			return nil, fmt.Errorf("-fault-rate requires -live")
		}
		if cfg.events != "" {
			return nil, fmt.Errorf("-events requires -live")
		}
		if cfg.snapshot == "" && cfg.ribGlob == "" && cfg.updGlob == "" {
			return nil, fmt.Errorf("no data source: use -snapshot, -rib/-updates, -replica, or -live")
		}
		if cfg.snapshot != "" && (cfg.ribGlob != "" || cfg.updGlob != "") {
			return nil, fmt.Errorf("-snapshot and -rib/-updates are mutually exclusive")
		}
	}
	if err := (bgpintent.Params{MinGap: cfg.gap, RatioThreshold: cfg.ratio}).Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// builder returns the serve.Builder for the configured data source;
// every reload re-reads the snapshot file or re-globs and re-ingests
// the MRT archives, so a reload picks up replaced files.
func builder(cfg *config) serve.Builder {
	if cfg.snapshot != "" {
		return func(context.Context) (*bgpintent.Result, bgpintent.SnapshotInfo, string, error) {
			// Memory-mapped and served zero-copy; only header and section
			// table are checked, so every reload stays O(1).
			res, info, err := bgpintent.OpenSnapshotFile(cfg.snapshot)
			if err != nil {
				return nil, bgpintent.SnapshotInfo{}, "", err
			}
			return res, info, "snapshot:" + filepath.Base(cfg.snapshot), nil
		}
	}
	return func(ctx context.Context) (*bgpintent.Result, bgpintent.SnapshotInfo, string, error) {
		ribs, err := expand(cfg.ribGlob)
		if err != nil {
			return nil, bgpintent.SnapshotInfo{}, "", err
		}
		updates, err := expand(cfg.updGlob)
		if err != nil {
			return nil, bgpintent.SnapshotInfo{}, "", err
		}
		if len(ribs)+len(updates) == 0 {
			return nil, bgpintent.SnapshotInfo{}, "", fmt.Errorf("globs matched no files")
		}
		// The builder honors its context: a daemon shutting down mid-
		// reload abandons the build instead of finishing it into the void.
		c, stats, err := bgpintent.LoadMRT(ctx,
			bgpintent.Sources{RIBs: ribs, Updates: updates, OrgPath: cfg.as2org},
			bgpintent.LoadOptions{Strict: cfg.strict, MaxErrorRate: cfg.maxErr, Parallelism: cfg.par})
		if err != nil {
			return nil, bgpintent.SnapshotInfo{}, "", err
		}
		log.Printf("ingest: %s", stats.Summary())
		log.Printf("corpus: %s", c.Footprint())
		res, err := c.ClassifyContext(ctx,
			bgpintent.Params{MinGap: cfg.gap, RatioThreshold: cfg.ratio, Parallelism: cfg.par})
		if err != nil {
			return nil, bgpintent.SnapshotInfo{}, "", err
		}
		source := fmt.Sprintf("mrt:%d files", len(ribs)+len(updates))
		return res, c.SnapshotInfo(source), source, nil
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}

	start := time.Now()
	b := builder(cfg)
	if cfg.live {
		// Live mode starts serving immediately from an empty placeholder;
		// the feed Ingestor installs real snapshots as they are classified.
		b = func(context.Context) (*bgpintent.Result, bgpintent.SnapshotInfo, string, error) {
			res, info := bgpintent.EmptyResult()
			return res, info, "live:awaiting-feed", nil
		}
	}
	if cfg.replica {
		// Replica mode likewise serves a placeholder until the first
		// successful poll installs a fetched snapshot.
		b = func(context.Context) (*bgpintent.Result, bgpintent.SnapshotInfo, string, error) {
			res, info := bgpintent.EmptyResult()
			return res, info, "replica:awaiting-poll", nil
		}
	}
	srv, err := serve.New(ctx, b, log.Printf)
	if err != nil {
		return err
	}
	if cfg.snapshot != "" {
		// Publish the file this instance serves from, so replicas can
		// point -snapshot-url at this origin.
		srv.SetSnapshotFile(cfg.snapshot)
	}
	if cfg.live {
		if err := startLive(ctx, cfg, srv); err != nil {
			return err
		}
	}
	if cfg.replica {
		srv.DisableReload("replica mode: snapshots are installed from the polled origin")
		rep := serve.NewReplica(srv, serve.ReplicaConfig{
			URL:      cfg.snapshotURL,
			Interval: cfg.pollInterval,
			CacheDir: cfg.snapshotCache,
		})
		// One synchronous poll so a reachable origin is served from the
		// very first request; failure only degrades (the poller retries).
		if _, err := rep.Poll(ctx); err != nil {
			log.Printf("initial poll failed, serving placeholder until the origin answers: %v", err)
		}
		go rep.Run(ctx) //nolint:errcheck // Run only returns on ctx cancel
	}
	snap := srv.Snapshot()
	fmt.Fprintf(stdout, "ready: %v (startup %v)\n", snap, time.Since(start).Round(time.Millisecond))

	// SIGHUP: rebuild and swap with zero downtime.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if _, err := srv.Reload(context.Background()); err != nil {
				log.Printf("SIGHUP reload failed: %v", err)
			}
		}
	}()

	if cfg.debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", cfg.debugAddr)
			if err := http.ListenAndServe(cfg.debugAddr, dbg); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	return srv.ListenAndServe(ctx, serve.ServeConfig{
		Addr:              cfg.addr,
		DrainTimeout:      cfg.drainTimeout,
		ReadHeaderTimeout: cfg.readHeaderTimeout,
		ReadTimeout:       cfg.readTimeout,
		IdleTimeout:       cfg.idleTimeout,
		OnListen: func(a net.Addr) {
			fmt.Fprintf(stdout, "listening on %s\n", a)
		},
	})
}

// startLive attaches the streaming feed to the server: snapshots from
// the Ingestor swap in through the zero-downtime install path, reload
// is disabled (the feed owns the snapshot), and /v1/health plus the
// feed gauges report staleness. A dying feed only degrades the
// service — the daemon keeps serving the last good snapshot.
func startLive(ctx context.Context, cfg *config, srv *serve.Server) error {
	srv.DisableReload("live mode: snapshots are installed from the feed")
	live, err := bgpintent.StartLive(ctx, bgpintent.LiveOptions{
		Seed:     cfg.liveSeed,
		Days:     cfg.liveDays,
		Small:    cfg.liveSmall,
		Loop:     cfg.liveLoop,
		Interval: cfg.liveInterval,

		Events:         cfg.events,
		Anomaly:        cfg.anomaly,
		AnomalyBucket:  cfg.anomalyBucket,
		AnomalyHistory: cfg.anomalyHist,

		FaultRate:  cfg.faultRate,
		FaultSeed:  cfg.faultSeed,
		FaultStall: cfg.faultStall,

		Params: bgpintent.Params{MinGap: cfg.gap, RatioThreshold: cfg.ratio, Parallelism: cfg.par},

		WindowSpan:    cfg.windowSpan,
		WindowBuckets: cfg.windowBuckets,

		ReadTimeout: cfg.feedReadTO,
		StaleAfter:  cfg.staleAfter,
		RetryBudget: cfg.retryBudget,

		SnapshotEvery:    cfg.snapEvery,
		SnapshotInterval: cfg.snapInterval,

		OnSnapshot: func(res *bgpintent.Result, info bgpintent.SnapshotInfo, lastSeq uint64) {
			snap := srv.Install(res, info, fmt.Sprintf("live:seq=%d", lastSeq), 0)
			log.Printf("installed snapshot gen %d (feed seq %d, %d tuples)",
				snap.Gen, lastSeq, info.Tuples)
		},
		Logf: log.Printf,
	})
	if err != nil {
		return err
	}
	srv.SetFeed(live)
	if w := live.Anomalies(); w != nil {
		// GET /v1/anomalies, the health anomalies block and the
		// intentd_anomaly_* gauges all read from this watcher.
		srv.SetAnomalies(w)
	}
	go func() {
		switch err := live.Wait(); {
		case err == nil:
			log.Printf("live feed ended; serving the final snapshot")
		case ctx.Err() != nil:
			// Shutdown; the HTTP drain path logs its own exit.
		default:
			log.Printf("live feed abandoned (%v); serving the last good snapshot", err)
		}
	}()
	return nil
}

func expand(glob string) ([]string, error) {
	if glob == "" {
		return nil, nil
	}
	files, err := filepath.Glob(glob)
	if err != nil {
		return nil, fmt.Errorf("bad glob %q: %v", glob, err)
	}
	return files, nil
}

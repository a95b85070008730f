package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"bgpintent"
	"bgpintent/internal/serve"
)

// verdict is what a reply must say about one community.
type verdict struct {
	Community string `json:"community"`
	Kind      string `json:"kind"`
	Observed  bool   `json:"observed"`
	Category  string `json:"category"`
}

func verdictOf(res *bgpintent.Result, k bgpintent.CommunityKey) verdict {
	l := res.LookupKey(k)
	return verdict{Community: k.String(), Kind: k.Kind().String(), Observed: l.Observed, Category: l.Category.String()}
}

// request is one pre-built HTTP request of a traffic mix and the
// verdicts its reply must carry (none for /v1/stats).
type request struct {
	method string
	path   string
	body   []byte
	want   []verdict
}

// annotateComms is how many communities one annotate request carries.
const annotateComms = 16

// hotRequests is the serve-hot mix: GET /v1/community/{key} over n
// labelled classic communities drawn from res, with /v1/stats at rank
// 16. Callers pick ranks zipf-skewed, so the front of the slice is hot.
func hotRequests(res *bgpintent.Result, rng *rand.Rand, n int) ([]request, error) {
	labelled := res.Labeled()
	if len(labelled) == 0 {
		return nil, errors.New("snapshot has no labelled classic communities")
	}
	rng.Shuffle(len(labelled), func(i, j int) { labelled[i], labelled[j] = labelled[j], labelled[i] })
	if len(labelled) > n {
		labelled = labelled[:n]
	}
	reqs := make([]request, 0, len(labelled)+1)
	for i, lc := range labelled {
		if i == 16 {
			reqs = append(reqs, request{method: http.MethodGet, path: "/v1/stats"})
		}
		k := lc.Community.Key()
		reqs = append(reqs, request{
			method: http.MethodGet,
			path:   "/v1/community/" + k.String(),
			want:   []verdict{verdictOf(res, k)},
		})
	}
	return reqs, nil
}

// annotateRequests is the serve-annotate mix: n POST /v1/annotate
// bodies, each one tuple with an AS path and annotateComms communities
// drawn uniformly: 80% observed classic, 10% observed large, 10%
// unobserved classic. Nothing about a POST is cacheable, so every
// community costs a lookup on the served snapshot and a JSON encode.
func annotateRequests(res *bgpintent.Result, rng *rand.Rand, n int) ([]request, error) {
	classic, large := res.Labeled(), res.LabeledLarge()
	if len(classic) == 0 {
		return nil, errors.New("snapshot has no labelled classic communities")
	}
	reqs := make([]request, n)
	for i := range reqs {
		var comms []string
		var want []verdict
		add := func(k bgpintent.CommunityKey) {
			comms = append(comms, k.String())
			want = append(want, verdictOf(res, k))
		}
		nLarge := 0
		for j := 0; j < annotateComms; j++ {
			switch r := rng.Intn(10); {
			case r == 0 && len(large) > 0:
				nLarge++ // the handler answers larges after classics
			case r == 1:
				k := bgpintent.ClassicKey(uint16(1+rng.Intn(60000)), uint16(rng.Intn(1<<16)))
				for res.LookupKey(k).Observed {
					k = bgpintent.ClassicKey(uint16(1+rng.Intn(60000)), uint16(rng.Intn(1<<16)))
				}
				add(k)
			default:
				add(classic[rng.Intn(len(classic))].Community.Key())
			}
		}
		for ; nLarge > 0; nLarge-- {
			add(large[rng.Intn(len(large))].Key)
		}
		path := make([]string, 3+rng.Intn(4))
		for j := range path {
			path[j] = fmt.Sprint(1 + rng.Intn(64000))
		}
		body, err := json.Marshal(map[string]any{"tuples": []serve.AnnotateTuple{{
			Path:        strings.Join(path, " "),
			Communities: strings.Join(comms, " "),
		}}})
		if err != nil {
			return nil, err
		}
		reqs[i] = request{method: http.MethodPost, path: "/v1/annotate", body: body, want: want}
	}
	return reqs, nil
}

// checkReply verifies a 2xx reply body against the request's verdicts.
func checkReply(rq *request, body []byte) error {
	if len(rq.want) == 0 {
		return nil
	}
	var got []verdict
	if rq.method == http.MethodGet {
		var v verdict
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		got = []verdict{v}
	} else {
		var resp struct {
			Tuples []struct {
				Annotations []verdict `json:"annotations"`
			} `json:"tuples"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Tuples) != 1 {
			return fmt.Errorf("%d tuples in reply, want 1", len(resp.Tuples))
		}
		got = resp.Tuples[0].Annotations
	}
	if len(got) != len(rq.want) {
		return fmt.Errorf("%d verdicts in reply, want %d", len(got), len(rq.want))
	}
	for i := range got {
		if got[i] != rq.want[i] {
			return fmt.Errorf("verdict %d is %+v, want %+v", i, got[i], rq.want[i])
		}
	}
	return nil
}

// server is an intentd core serving one snapshot file on loopback,
// inside the benchmark process.
type server struct {
	srv    *serve.Server
	res    *bgpintent.Result
	addr   string
	cancel context.CancelFunc
	done   chan error
	closed bool
}

// openServer maps the snapshot and builds the serve.Server over it, as
// intentd -snapshot does, without listening yet.
func openServer(ctx context.Context, snapPath string) (*server, error) {
	s := &server{}
	builder := func(context.Context) (*bgpintent.Result, bgpintent.SnapshotInfo, string, error) {
		res, info, err := bgpintent.OpenSnapshotFile(snapPath)
		if err != nil {
			return nil, info, "", err
		}
		s.res = res
		return res, info, "snapshot:" + snapPath, nil
	}
	var err error
	s.srv, err = serve.New(ctx, builder, func(string, ...any) {})
	if err != nil {
		return nil, err
	}
	if !s.res.Mmapped() {
		s.res.Close()
		return nil, errors.New("snapshot was not memory-mapped")
	}
	return s, nil
}

// startServer opens the snapshot and serves it on 127.0.0.1:0 through
// Server.ListenAndServe, returning once the listener is bound.
func startServer(ctx context.Context, snapPath string) (*server, error) {
	s, err := openServer(ctx, snapPath)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	s.done = make(chan error, 1)
	bound := make(chan string, 1)
	go func() {
		s.done <- s.srv.ListenAndServe(sctx, serve.ServeConfig{
			Addr:         "127.0.0.1:0",
			DrainTimeout: 5 * time.Second,
			OnListen:     func(a net.Addr) { bound <- a.String() },
		})
	}()
	select {
	case s.addr = <-bound:
		return s, nil
	case err := <-s.done:
		cancel()
		s.res.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
}

// stop shuts the listener down, waits for the serving goroutine, unmaps
// the snapshot and confirms the port no longer accepts connections.
// Stopping twice is harmless.
func (s *server) stop() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.cancel != nil {
		s.cancel()
		err = <-s.done
		if c, derr := net.DialTimeout("tcp", s.addr, time.Second); derr == nil {
			c.Close()
			err = errors.Join(err, fmt.Errorf("port %s still accepts connections after shutdown", s.addr))
		}
	}
	return errors.Join(err, s.res.Close())
}

// loadSlices is how many equal slices a load window is cut into. A
// slice another tenant of the host slowed down is one sample among
// loadSlices, not a share of one average.
const loadSlices = 20

// loadStats summarises one closed-loop load phase: over the whole
// window, and per slice of it.
type loadStats struct {
	requests, failed int64
	elapsed          time.Duration
	latencies        []float64 // ns, sorted
	sliceNsPerReq    []float64 // wall ns per completed request, one per slice
	sliceP50         []float64 // median latency in ns, one per slice
	problems         []string
}

func (l *loadStats) qps() float64 { return float64(l.requests) / l.elapsed.Seconds() }

// completion is one finished request: when it ended (ns after the
// measured window opened) and how long it took.
type completion struct{ at, lat int64 }

// sampleEvery is how often a reply body is kept and checked in full;
// every reply's status is checked.
const sampleEvery = 64

// spanEvery is how often the traced pass records a request span.
const spanEvery = 16

// clients is the closed-loop client count: callers that each wait for
// their reply, one keep-alive connection apiece.
func clients() int { return min(runtime.NumCPU(), 4) }

// drive runs a closed loop against base: each client draws its next
// request zipf-skewed (or uniformly when uniform is set) from reqs,
// sends it on its own connection and waits for the reply. Requests
// completed during warm are driven but not counted.
func drive(ctx context.Context, base string, reqs []request, uniform bool, seed int64, warm, window time.Duration, rec *recorder) (*loadStats, error) {
	type clientResult struct {
		done     []completion
		noReply  int64 // requests the transport failed; they have no latency
		failed   int64
		problems []string
		err      error
	}
	n := clients()
	results := make([]clientResult, n)
	failed := func(r *clientResult, rq *request, why any) {
		r.failed++
		if len(r.problems) < 4 {
			r.problems = append(r.problems, fmt.Sprintf("%s %s: %v", rq.method, rq.path, why))
		}
	}
	start := time.Now()
	measureFrom, stopAt := start.Add(warm), start.Add(warm+window)
	root := rec.start("load", 0, -1)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
			pick := newZipfPicker(seed+int64(c), 1.1, len(reqs))
			var buf bytes.Buffer
			for i := 0; ; i++ {
				var rq *request
				if uniform {
					rq = &reqs[pick.rng.Intn(len(reqs))]
				} else {
					rq = &reqs[pick.next()]
				}
				hreq, err := http.NewRequestWithContext(ctx, rq.method, base+rq.path, bytes.NewReader(rq.body))
				if err != nil {
					r.err = err
					return
				}
				if rq.body != nil {
					hreq.Header.Set("Content-Type", "application/json")
				}
				t0 := time.Now()
				if !t0.Before(stopAt) {
					return
				}
				resp, err := client.Do(hreq)
				if err != nil {
					if ctx.Err() != nil {
						r.err = ctx.Err()
						return
					}
					r.noReply++
					failed(r, rq, err)
					continue
				}
				buf.Reset()
				_, err = io.Copy(&buf, resp.Body)
				resp.Body.Close()
				d := time.Since(t0)
				if t0.Before(measureFrom) {
					continue
				}
				r.done = append(r.done, completion{t0.Add(d).Sub(measureFrom).Nanoseconds(), d.Nanoseconds()})
				if i%spanEvery == 0 {
					rec.add(rq.method+" "+rq.path, c, root, t0, d)
				}
				switch {
				case err != nil:
					failed(r, rq, err)
				case resp.StatusCode < 200 || resp.StatusCode > 299:
					failed(r, rq, fmt.Sprintf("status %d", resp.StatusCode))
				case i%sampleEvery == 0:
					if err := checkReply(rq, buf.Bytes()); err != nil {
						failed(r, rq, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	out := &loadStats{elapsed: time.Since(measureFrom)}
	slice := window.Nanoseconds() / loadSlices
	perSlice := make([][]float64, loadSlices)
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, r.err
		}
		out.requests += int64(len(r.done)) + r.noReply
		out.failed += r.failed
		for _, d := range r.done {
			out.latencies = append(out.latencies, float64(d.lat))
			if k := d.at / slice; k < loadSlices { // the last requests end just past the window
				perSlice[k] = append(perSlice[k], float64(d.lat))
			}
		}
		if len(out.problems) < 4 {
			out.problems = append(out.problems, r.problems...)
		}
	}
	rec.end(root, "requests", out.requests, "failed", out.failed)
	if out.requests == 0 {
		return nil, errors.New("load phase completed no request")
	}
	sort.Float64s(out.latencies)
	for _, lats := range perSlice {
		if len(lats) == 0 {
			continue
		}
		sort.Float64s(lats)
		out.sliceNsPerReq = append(out.sliceNsPerReq, float64(slice)/float64(len(lats)))
		out.sliceP50 = append(out.sliceP50, percentile(lats, 0.5))
	}
	sort.Float64s(out.sliceNsPerReq)
	sort.Float64s(out.sliceP50)
	return out, nil
}

// serveWorkload drives the query daemon over loopback HTTP. serve-hot
// asks for a small, skewed key set that the response cache absorbs;
// serve-annotate posts tuples, which the cache never sees.
type serveWorkload struct {
	annotate bool

	w         *world
	in        inputs
	snapPath  string
	snapBytes int64
	tuples    int
	reqs      []request
	heapBase  float64
	srv       *server
}

func (s *serveWorkload) name() string {
	if s.annotate {
		return "serve-annotate"
	}
	return "serve-hot"
}

// setup takes the seed all the way to a listening daemon: synthetic
// day, MRT files, batch pipeline, flat snapshot on disk, mmap, listen.
func (s *serveWorkload) setup(ctx context.Context, e *env) error {
	w, err := buildWorld(e.seed, e.sc, true)
	if err != nil {
		return err
	}
	s.w = w
	if s.in, err = w.writeInputs(filepath.Join(e.dir, "in"), 0); err != nil {
		return err
	}
	p, err := runPipeline(ctx, s.in, filepath.Join(e.dir, "snap"), 0, nil, nil, 0, -1)
	if err != nil {
		return err
	}
	s.snapPath, s.tuples = p.snapPath, p.tuples
	fi, err := os.Stat(p.snapPath)
	if err != nil {
		return err
	}
	s.snapBytes = fi.Size()
	rng := rand.New(rand.NewSource(e.seed))
	if s.annotate {
		s.reqs, err = annotateRequests(p.result, rng, bodies)
	} else {
		s.reqs, err = hotRequests(p.result, rng, hotKeys)
	}
	if err != nil {
		return err
	}
	// The daemon's memory is what the process holds beyond the request
	// mix and the simulator the layer probes read.
	w.day, p = nil, nil
	s.heapBase = heapAfterGC()
	s.srv, err = startServer(ctx, s.snapPath)
	return err
}

func (s *serveWorkload) teardown() error {
	var err error
	if s.srv != nil {
		err = s.srv.stop()
	}
	*s = serveWorkload{annotate: s.annotate}
	return err
}

// unitsPerRequest is the work unit behind ns_per_unit: one request on
// serve-hot, one annotated community on serve-annotate.
func (s *serveWorkload) unitsPerRequest() float64 {
	if s.annotate {
		return annotateComms
	}
	return 1
}

func (s *serveWorkload) load(ctx context.Context, e *env, o *outcome, warm, window time.Duration, rec *recorder) (*loadStats, error) {
	l, err := drive(ctx, "http://"+s.srv.addr, s.reqs, s.annotate, e.seed, warm, window, rec)
	if err != nil {
		return nil, err
	}
	o.attempted += l.requests
	if l.failed > 0 {
		o.fail(l.failed, "%d of %d requests failed: %s", l.failed, l.requests, strings.Join(l.problems, "; "))
	}
	return l, nil
}

func (s *serveWorkload) measure(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	l, err := s.load(ctx, e, o, warmup, e.seconds, nil)
	if err != nil {
		return nil, err
	}
	p50, p99 := percentile(l.latencies, 0.5)/1e3, percentile(l.latencies, 0.99)/1e3
	nsPerUnit := percentile(l.sliceNsPerReq, fastQuartile) / s.unitsPerRequest()
	opUs := percentile(l.sliceP50, fastQuartile) / 1e3
	l.latencies = nil
	// The daemon holds its Go heap and the snapshot file's mapped bytes.
	heap := (heapAfterGC() - s.heapBase + float64(s.snapBytes)) / float64(s.tuples)

	o.metrics.set("ns_per_unit", nsPerUnit, "ns")
	o.metrics.set("op_us", opUs, "us")
	o.metrics.set("heap_bytes_per_tuple", heap, "B")

	o.named.set("serve_qps", l.qps(), "1/s")
	o.named.set("serve_p50_us", p50, "us")
	o.named.set("serve_p99_us", p99, "us")
	if s.annotate {
		o.named.set("ns_per_annotation", 1e9/(l.qps()*annotateComms), "ns")
	}
	o.named.set("requests", float64(l.requests), "count")
	o.named.set("clients", float64(clients()), "count")
	return o, nil
}

func (s *serveWorkload) trace(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	window := e.seconds / 3
	untraced, err := s.load(ctx, e, o, warmup, window, nil)
	if err != nil {
		return nil, err
	}
	traced, err := s.load(ctx, e, o, 0, window, e.rec)
	if err != nil {
		return nil, err
	}
	o.metrics.set("trace.overhead_pct", overheadPct(1/untraced.qps(), 1/traced.qps()), "%")
	li := layerInputs{in: s.in, sim: s.w.sim, snapPath: s.snapPath}
	if err := probeLayers(ctx, e, li, o); err != nil {
		return nil, err
	}
	// The cache figure that matters here is the measured daemon's own.
	ratio, err := cacheHitRatio(ctx, s.srv.addr)
	if err != nil {
		return nil, err
	}
	if s.annotate && ratio != 0 {
		o.fail(1, "annotate traffic touched the response cache (hit ratio %g)", ratio)
	}
	o.metrics.set("serve.cache_hit_ratio", ratio, "ratio")
	return o, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"bgpintent"
	"bgpintent/internal/anomaly"
	"bgpintent/internal/asrel"
	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/dict"
	"bgpintent/internal/ingest"
	"bgpintent/internal/mrt"
	"bgpintent/internal/obs"
	"bgpintent/internal/simulate"
	"bgpintent/internal/stream"
)

// layerInputs is what the layer probes read: the workload's MRT and
// as2org files, a flat snapshot written from them, and the simulator
// whose feed the streaming layers consume.
type layerInputs struct {
	in       inputs
	sim      *simulate.Simulator
	snapPath string
}

// makeLayerInputs writes w's day 0 as RIB files and runs the pipeline
// once for the snapshot, for workloads that do not have them already.
func makeLayerInputs(ctx context.Context, e *env, w *world) (layerInputs, error) {
	in, err := w.writeInputs(filepath.Join(e.dir, "layers-in"), 0)
	if err != nil {
		return layerInputs{}, err
	}
	p, err := runPipeline(ctx, in, filepath.Join(e.dir, "layers-snap"), 0, nil, nil, 0, -1)
	if err != nil {
		return layerInputs{}, err
	}
	return layerInputs{in: in, sim: w.sim, snapPath: p.snapPath}, nil
}

// Sinks keep probe results alive so the calls are not optimised away;
// they are typed so that storing a result costs no allocation.
var (
	sinkVerdict core.Verdict
	sinkLookup  bgpintent.KeyLookup
)

// probeLayers times every layer's exported functions from outside, on
// the inputs in li, and adds the per-layer metrics to o. Each layer is
// called directly, at one worker unless stated, so its time is its own.
// The probes run on every workload's traced pass: a layer the workload
// never enters reads the same as on every other workload, which is the
// "flat" prediction checked.
func probeLayers(ctx context.Context, e *env, li layerInputs, o *outcome) error {
	root := e.rec.start("layers", 0, -1)
	defer e.rec.end(root)
	probes := []func(context.Context, *env, layerInputs, int, *outcome) error{
		probeMRT, probeIngest, probeStore, probeSequential, probeFacade,
		probeSnapshot, probeHandlers, probeStream,
	}
	for _, probe := range probes {
		if err := probe(ctx, e, li, root, o); err != nil {
			return err
		}
	}
	return nil
}

// perOp is a duration per operation in ns, 0 when nothing was done.
func perOp(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// probeMRT frames every input file with Reader.NextBatch, then decodes
// it with the scanners; decode time is the scan minus the framing.
func probeMRT(ctx context.Context, e *env, li layerInputs, parent int, o *outcome) error {
	var frame, scan time.Duration
	var records, views, size int64
	for _, f := range li.in.files() {
		d, err := e.rec.timed("mrt.Reader.NextBatch", 0, parent, func() error {
			rc, err := ingest.Open(f.Path)
			if err != nil {
				return err
			}
			defer rc.Close()
			st := &mrt.Stats{}
			so := mrt.ScanOptions{Lenient: true, Stats: st}
			rd := so.Reader(rc)
			var batch mrt.FrameBatch
			for {
				if _, err := rd.NextBatch(&batch, 512, 1<<20, nil); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
			}
			records += int64(st.Records)
			size += st.BytesRead
			return nil
		})
		if err != nil {
			return fmt.Errorf("framing %s: %w", f.Path, err)
		}
		frame += d
		d, err = e.rec.timed("mrt.Scanner.Next", 0, parent, func() error {
			rc, err := ingest.Open(f.Path)
			if err != nil {
				return err
			}
			defer rc.Close()
			so := mrt.ScanOptions{Lenient: true, Stats: &mrt.Stats{}}
			var next func() error
			if f.Updates {
				sc := mrt.NewUpdateScannerOptions(rc, so)
				next = func() error { _, err := sc.Next(); return err }
			} else {
				sc := mrt.NewTableDumpScannerOptions(rc, so)
				next = func() error { _, err := sc.Next(); return err }
			}
			for {
				if err := next(); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
				views++
			}
		})
		if err != nil {
			return fmt.Errorf("decoding %s: %w", f.Path, err)
		}
		scan += d
	}
	o.metrics.set("mrt.frame_ns_per_record", perOp(frame, records), "ns")
	o.metrics.set("mrt.decode_ns_per_record", perOp(scan-frame, records), "ns")
	o.metrics.set("mrt.records", float64(records), "count")
	o.metrics.set("mrt.bytes", float64(size), "B")
	return nil
}

// probeIngest scans the files through ScanParallelContext with
// callbacks that only count, at one worker and at one per CPU.
func probeIngest(ctx context.Context, e *env, li layerInputs, parent int, o *outcome) error {
	scan := func(workers int) (time.Duration, int64, error) {
		var views atomic.Int64 // callbacks run on every worker
		d, err := e.rec.timed(fmt.Sprintf("ingest.ScanParallelContext(workers=%d)", workers), 0, parent, func() error {
			return ingest.ScanParallelContext(ctx, li.in.files(), ingest.Options{}, workers, &ingest.Stats{},
				func(*mrt.RIBView) error { views.Add(1); return nil },
				func(*mrt.UpdateView) error { views.Add(1); return nil })
		})
		return d, views.Load(), err
	}
	d1, views, err := scan(1)
	if err != nil {
		return err
	}
	dn, _, err := scan(0)
	if err != nil {
		return err
	}
	o.metrics.set("ingest.scan_s", dn.Seconds(), "s")
	o.metrics.set("ingest.scan_ns_per_view", perOp(d1, views), "ns")
	o.metrics.set("ingest.scan_speedup", d1.Seconds()/dn.Seconds(), "x")
	return nil
}

// view is one decoded route copied out of the scanner's reused buffers.
type view struct {
	vp     uint32
	path   bgp.ASPath
	comms  bgp.Communities
	larges bgp.LargeCommunities
}

// probeStore feeds pre-decoded RIB views into a fresh sharded store
// twice: the first pass inserts (the RIBs hold few duplicates), the
// second pass hits an existing tuple every time.
func probeStore(ctx context.Context, e *env, li layerInputs, parent int, o *outcome) error {
	var views []view
	ribs := inputs{ribs: li.in.ribs}
	err := ingest.ScanParallelContext(ctx, ribs.files(), ingest.Options{}, 1, &ingest.Stats{},
		func(v *mrt.RIBView) error {
			a := &v.Entry.Attrs
			views = append(views, view{v.Peer.ASN, a.ASPath.Clone(), a.Communities.Clone(), a.LargeCommunities.Clone()})
			return nil
		}, nil)
	if err != nil {
		return err
	}
	n := int64(len(views))
	base := heapAfterGC()
	sts := core.NewShardedTupleStore(64)
	pass := func(name string) (time.Duration, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, _ := e.rec.timed(name, 0, parent, func() error {
			for i := range views {
				v := &views[i]
				sts.AddViewASPathLarge(v.vp, v.path, v.comms, v.larges)
			}
			return nil
		}, "views", n)
		runtime.ReadMemStats(&after)
		return d, after.Mallocs - before.Mallocs
	}
	insert, _ := pass("core.ShardedTupleStore.AddViewASPathLarge(insert)")
	dup, dupAllocs := pass("core.ShardedTupleStore.AddViewASPathLarge(dup)")
	store := sts.Stitch(0)
	sts = nil
	heap := heapAfterGC() - base
	o.metrics.set("core.store_add_insert_ns", perOp(insert, n), "ns")
	o.metrics.set("core.store_add_dup_ns", perOp(dup, n), "ns")
	o.metrics.set("core.store_add_dup_allocs", float64(dupAllocs)/float64(max(n, 1)), "1/view")
	o.metrics.set("core.store_bytes_per_tuple", heap/float64(max(store.Len(), 1)), "B")
	runtime.KeepAlive(store)
	return nil
}

// probeSequential is one batch iteration taken apart: every layer the
// facade calls, called directly at one worker under one root span, so
// the layers' times add up to the iteration's wall.
func probeSequential(ctx context.Context, e *env, li layerInputs, parent int, o *outcome) error {
	rec := e.rec
	root := rec.start("sequential-iteration", 0, parent)

	sts := core.NewShardedTupleStore(64)
	var views int64
	var addTime time.Duration
	add := func(vp uint32, a *bgp.PathAttributes) {
		t0 := time.Now()
		sts.AddViewASPathLarge(vp, a.ASPath, a.Communities, a.LargeCommunities)
		addTime += time.Since(t0)
		views++
	}
	scanStart := time.Now()
	err := ingest.ScanParallelContext(ctx, li.in.files(), ingest.Options{}, 1, &ingest.Stats{},
		func(v *mrt.RIBView) error { add(v.Peer.ASN, &v.Entry.Attrs); return nil },
		func(v *mrt.UpdateView) error {
			if len(v.Update.NLRI) > 0 { // pure withdrawals carry no tuple
				add(v.PeerAS, &v.Update.Attrs)
			}
			return nil
		})
	if err != nil {
		return err
	}
	scanID := rec.add("ingest.ScanParallelContext", 0, root, scanStart, time.Since(scanStart), "views", views)
	rec.add("core.ShardedTupleStore.AddViewASPathLarge", 0, scanID, scanStart, addTime, "views", views)

	var store *core.TupleStore
	stitch, _ := rec.timed("core.ShardedTupleStore.Stitch", 0, root, func() error { store = sts.Stitch(1); return nil })

	// Reading the as2org file and annotating paths is glue between the
	// layers: it stays in the root span's self time.
	f, err := os.Open(li.in.orgPath)
	if err != nil {
		return err
	}
	orgs, err := asrel.ReadOrgMap(f)
	f.Close()
	if err != nil {
		return err
	}
	store.AnnotateOrgs(orgs)

	opts := core.DefaultOptions()
	opts.Workers, opts.Orgs = 1, orgs
	var obsSet *core.ObservationSet
	observe, _ := rec.timed("core.Observe", 0, root, func() error { obsSet = core.Observe(store, opts); return nil })
	var inf *core.Inferences
	cluster, _ := rec.timed("core.ClassifyObserved", 0, root, func() error { inf = core.ClassifyObserved(obsSet, opts); return nil })
	snap := filepath.Join(e.dir, "sequential-snapshot.bin")
	write, err := rec.timed("core.WriteSnapshotFlat", 0, root, func() error {
		meta := core.SnapshotMeta{CreatedUnix: mrtEpoch, Source: "bgpbench", Tuples: store.Len(), Paths: store.PathCount()}
		return writeFile(snap, func(w io.Writer) error { return core.WriteSnapshotFlat(w, inf, meta) })
	})
	if err != nil {
		return err
	}
	rec.end(root, "views", views, "tuples", int64(store.Len()))
	fi, err := os.Stat(snap)
	if err != nil {
		return err
	}

	o.metrics.set("core.dup_ratio", 1-float64(store.Len())/float64(max(views, 1)), "ratio")
	o.metrics.set("core.stitch_ms", ms(stitch), "ms")
	o.metrics.set("core.observe_ms", ms(observe), "ms")
	o.metrics.set("core.cluster_ratio_ms", ms(cluster), "ms")
	o.metrics.set("core.snapshot_write_ms", ms(write), "ms")
	o.metrics.set("core.snapshot_bytes", float64(fi.Size()), "B")
	o.metrics.set("trace.explained_fraction", explainedFraction(rec.snapshot(), root), "ratio")
	return nil
}

// probeFacade runs the batch pipeline through the facade at Parallelism
// 0, its calls timed apart, then once more with an obs.Collector
// attached: what being observed costs.
func probeFacade(ctx context.Context, e *env, li layerInputs, parent int, o *outcome) error {
	const n = 3
	var load, classify, write, tsv, wall []float64
	run := func(i int, observer bgpintent.Observer) (*pipelineRun, error) {
		runtime.GC()
		id := e.rec.start("facade-iteration", i, parent)
		defer e.rec.end(id)
		return runPipeline(ctx, li.in, filepath.Join(e.dir, "facade"), 0, observer, e.rec, i, id)
	}
	for i := 0; i < n; i++ {
		p, err := run(i, nil)
		if err != nil {
			return err
		}
		load = append(load, p.load.Seconds())
		classify = append(classify, p.classify.Seconds())
		write = append(write, p.write.Seconds())
		tsv = append(tsv, ms(p.tsv))
		wall = append(wall, p.wall().Seconds())
	}
	observed, err := run(n, &obs.Collector{})
	if err != nil {
		return err
	}
	o.metrics.set("bgpintent.load_s", median(load), "s")
	o.metrics.set("bgpintent.classify_s", median(classify), "s")
	o.metrics.set("bgpintent.write_s", median(write), "s")
	o.metrics.set("bgpintent.write_tsv_ms", median(tsv), "ms")
	o.metrics.set("obs.observed_overhead_pct", overheadPct(median(wall), observed.wall().Seconds()), "%")
	return nil
}

// probeSnapshot opens the flat snapshot and answers verdicts from the
// mapping, from the materialised heap form and through the facade.
func probeSnapshot(ctx context.Context, e *env, li layerInputs, parent int, o *outcome) error {
	opens := 200
	var openUs []float64
	for i := 0; i < opens; i++ {
		t0 := time.Now()
		m, err := core.OpenSnapshotMmap(li.snapPath)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		openUs = append(openUs, float64(d.Nanoseconds())/1e3)
		if err := m.Close(); err != nil {
			return err
		}
	}
	o.metrics.set("core.mmap_open_us", median(openUs), "us")

	m, err := core.OpenSnapshotMmap(li.snapPath)
	if err != nil {
		return err
	}
	defer m.Close()
	var keys []bgp.Community
	m.EachLabeled(func(c bgp.Community, _ dict.Category) bool {
		keys = append(keys, c)
		return len(keys) < 4096
	})
	if len(keys) == 0 {
		return errors.New("snapshot has no labelled communities")
	}
	rand.New(rand.NewSource(e.seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	const lookups = 400_000
	loop := func(name string, fn func(c bgp.Community)) float64 {
		d, _ := e.rec.timed(name, 0, parent, func() error {
			for i := 0; i < lookups; i++ {
				fn(keys[i%len(keys)])
			}
			return nil
		}, "lookups", int64(lookups))
		return perOp(d, lookups)
	}
	o.metrics.set("core.verdict_mapped_ns", loop("core.Mapped.Verdict", func(c bgp.Community) { sinkVerdict = m.Verdict(c) }), "ns")
	inf := m.Materialize()
	o.metrics.set("core.verdict_heap_ns", loop("core.Inferences.Verdict", func(c bgp.Community) { sinkVerdict = inf.Verdict(c) }), "ns")

	res, _, err := bgpintent.OpenSnapshotFile(li.snapPath)
	if err != nil {
		return err
	}
	defer res.Close()
	o.metrics.set("bgpintent.lookupkey_ns", loop("bgpintent.Result.LookupKey", func(c bgp.Community) {
		sinkLookup = res.LookupKey(bgpintent.ClassicKey(c.ASN(), c.Value()))
	}), "ns")
	return nil
}

// discardWriter is the ResponseWriter of the in-process handler probes.
type discardWriter struct {
	header http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }

// handle serves one pre-built request in-process and reports failure.
func handle(h http.Handler, w *discardWriter, rq *request, hreq *http.Request) error {
	if rq.body != nil {
		hreq.Body = io.NopCloser(bytes.NewReader(rq.body))
	}
	w.status = http.StatusOK
	h.ServeHTTP(w, hreq)
	if w.status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", rq.method, rq.path, w.status)
	}
	return nil
}

// probeHandlers calls Server.ServeHTTP in-process for cache misses,
// cache hits and annotate bodies, then the same hot keys over loopback
// from one client: the difference is what net/http and the socket cost.
func probeHandlers(ctx context.Context, e *env, li layerInputs, parent int, o *outcome) error {
	cold := 50
	var coldUs []float64
	for i := 0; i < cold; i++ {
		t0 := time.Now()
		s, err := openServer(ctx, li.snapPath)
		if err != nil {
			return err
		}
		hreq, _ := http.NewRequest(http.MethodGet, "/v1/stats", nil)
		w := &discardWriter{header: http.Header{}}
		s.srv.ServeHTTP(w, hreq)
		coldUs = append(coldUs, float64(time.Since(t0).Nanoseconds())/1e3)
		if err := s.stop(); err != nil {
			return err
		}
		if w.status != http.StatusOK {
			return fmt.Errorf("cold start: /v1/stats answered %d", w.status)
		}
	}
	o.metrics.set("serve.cold_start_us", median(coldUs), "us")

	s, err := startServer(ctx, li.snapPath)
	if err != nil {
		return err
	}
	defer s.stop() //nolint:errcheck // error paths only; the success path checks stop below
	rng := rand.New(rand.NewSource(e.seed))
	hot, err := hotRequests(s.res, rng, 2000) // inside the cache's 4096 entries
	if err != nil {
		return err
	}
	posts, err := annotateRequests(s.res, rng, 256)
	if err != nil {
		return err
	}
	prebuilt := func(reqs []request) []*http.Request {
		out := make([]*http.Request, len(reqs))
		for i := range reqs {
			out[i], _ = http.NewRequest(reqs[i].method, reqs[i].path, nil)
		}
		return out
	}
	hotReqs, postReqs := prebuilt(hot), prebuilt(posts)
	w := &discardWriter{header: http.Header{}}
	serveAll := func(name string, reqs []request, hreqs []*http.Request, rounds int) (time.Duration, int64, error) {
		var calls int64
		d, err := e.rec.timed(name, 0, parent, func() error {
			for r := 0; r < rounds; r++ {
				for i := range reqs {
					if err := handle(s.srv, w, &reqs[i], hreqs[i]); err != nil {
						return err
					}
					calls++
				}
			}
			return nil
		})
		return d, calls, err
	}
	d, calls, err := serveAll("serve.Server.ServeHTTP(miss)", hot, hotReqs, 1)
	if err != nil {
		return err
	}
	o.metrics.set("serve.handler_miss_ns", perOp(d, calls), "ns")
	d, calls, err = serveAll("serve.Server.ServeHTTP(hit)", hot, hotReqs, 50)
	if err != nil {
		return err
	}
	hitNs := perOp(d, calls)
	o.metrics.set("serve.handler_hit_ns", hitNs, "ns")
	d, calls, err = serveAll("serve.Server.ServeHTTP(annotate)", posts, postReqs, 20)
	if err != nil {
		return err
	}
	o.metrics.set("serve.annotate_handler_ns_per_comm", perOp(d, calls*annotateComms), "ns")

	// Loopback: one client, one connection, the same (now cached) keys.
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	get := func(path string) error {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.addr+path, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(hreq)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return err
	}
	var loopNs []float64
	id := e.rec.start("loopback GET (1 client)", 0, parent)
	for r := 0; r < 2; r++ {
		for i := range hot {
			t0 := time.Now()
			if err := get(hot[i].path); err != nil {
				return err
			}
			loopNs = append(loopNs, float64(time.Since(t0).Nanoseconds()))
		}
	}
	e.rec.end(id, "requests", int64(len(loopNs)))
	o.metrics.set("serve.http_overhead_us", (median(loopNs)-hitNs)/1e3, "us")

	ratio, err := cacheHitRatio(ctx, s.addr)
	if err != nil {
		return err
	}
	o.metrics.set("serve.cache_hit_ratio", ratio, "ratio")
	return s.stop()
}

// cacheHitRatio reads the response cache's counters from the daemon's
// /v1/metrics; a cache nothing has looked at reads 0.
func cacheHitRatio(ctx context.Context, addr string) (float64, error) {
	tr := &http.Transport{DisableKeepAlives: true}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/v1/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := (&http.Client{Transport: tr, Timeout: 30 * time.Second}).Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var mtr struct {
		Hits   float64 `json:"cache_hits"`
		Misses float64 `json:"cache_misses"`
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&mtr); err != nil {
		return 0, err
	}
	if mtr.Hits+mtr.Misses == 0 {
		return 0, nil
	}
	return mtr.Hits / (mtr.Hits + mtr.Misses), nil
}

// probeStream replays the first two window spans of the feed by hand,
// the way the Ingestor does: Window.Add per update, TakeDirty plus
// ClassifyDelta once per bucket's worth of updates, then the same updates
// through the anomaly engine. Calls that evict a bucket (window) or
// close one (anomaly) are timed apart from the ordinary ones.
func probeStream(ctx context.Context, e *env, li layerInputs, parent int, o *outcome) error {
	src := stream.NewSimSource(li.sim, stream.SimConfig{Days: 1})
	sess, err := src.Connect(ctx, 0)
	if err != nil {
		return err
	}
	defer sess.Close()
	var ups []stream.Update
	var recv time.Duration
	for {
		t0 := time.Now()
		u, err := sess.Recv(ctx)
		d := time.Since(t0)
		if err == io.EOF || (len(ups) > 0 && u.Time.Sub(ups[0].Time) >= 2*liveSpan) {
			break
		}
		if err != nil {
			return err
		}
		ups = append(ups, u)
		recv += d
	}
	if len(ups) == 0 {
		return errors.New("feed delivered no update")
	}
	o.metrics.set("stream.source_recv_ns", perOp(recv, int64(len(ups))), "ns")

	win := stream.NewWindow(stream.WindowConfig{Span: liveSpan, Buckets: liveBuckets})
	opts := core.DefaultOptions()
	bucket := liveBucket
	every := max(len(ups)/(2*liveBuckets), 1) // the replay spans twice the window
	var prev *core.Inferences
	var add time.Duration
	var adds, dirtyTotal int64
	var evictMs, deltaMs, dirtyN []float64
	cur := ups[0].Time.Truncate(bucket)
	root := e.rec.start("window-replay", 0, parent)
	for i, u := range ups {
		b := u.Time.Truncate(bucket)
		crossing := !b.Equal(cur)
		cur = b
		var before uint64
		if crossing {
			before = win.Stats().Rebuilds
		}
		t0 := time.Now()
		win.Add(u)
		d := time.Since(t0)
		if crossing && win.Stats().Rebuilds > before {
			evictMs = append(evictMs, ms(d))
			e.rec.add("stream.Window.Add(evict)", len(evictMs), root, t0, d)
		} else {
			add += d
			adds++
		}
		if (i+1)%every == 0 || i == len(ups)-1 {
			t0 := time.Now()
			dirty := win.TakeDirty()
			inf, err := core.ClassifyDelta(ctx, win.Store(), opts, prev, dirty)
			d := time.Since(t0)
			if err != nil {
				return err
			}
			prev = inf
			deltaMs = append(deltaMs, ms(d))
			dirtyN = append(dirtyN, float64(len(dirty)))
			dirtyTotal += int64(len(dirty))
			e.rec.add("stream.TakeDirty+core.ClassifyDelta", len(deltaMs), root, t0, d, "dirty_alphas", int64(len(dirty)))
		}
	}
	e.rec.end(root, "updates", int64(len(ups)))
	deltas, dirties := sortedCopy(deltaMs), sortedCopy(dirtyN)
	o.metrics.set("stream.window_add_ns", perOp(add, adds), "ns")
	o.metrics.set("stream.window_evict_ms", mean(evictMs), "ms")
	o.metrics.set("stream.rebuilds", float64(win.Stats().Rebuilds), "count")
	o.metrics.set("stream.delta_ms_p50", percentile(deltas, 0.5), "ms")
	o.metrics.set("stream.delta_ms_p80", percentile(deltas, 0.8), "ms")
	o.metrics.set("stream.dirty_alphas_p50", percentile(dirties, 0.5), "count")
	o.metrics.set("core.classify_delta_ms_per_dirty_alpha", mean(deltaMs)*float64(len(deltaMs))/float64(max(dirtyTotal, 1)), "ms")

	eng := anomaly.NewEngine(anomaly.Options{})
	eng.SetSemantics(prev)
	var process time.Duration
	var processed int64
	var closeMs []float64
	abucket := anomaly.DefaultBucketSpan
	cur = ups[0].Time.Truncate(abucket)
	root = e.rec.start("anomaly-replay", 0, parent)
	for _, u := range ups {
		b := u.Time.Truncate(abucket)
		crossing := !b.Equal(cur)
		cur = b
		t0 := time.Now()
		eng.Process(u)
		d := time.Since(t0)
		if crossing {
			closeMs = append(closeMs, ms(d))
			e.rec.add("anomaly.Engine.Process(close)", len(closeMs), root, t0, d)
		} else {
			process += d
			processed++
		}
	}
	t0 := time.Now()
	eng.CloseUpTo(ups[len(ups)-1].Time.Add(abucket))
	closeMs = append(closeMs, ms(time.Since(t0)))
	e.rec.end(root, "updates", int64(len(ups)))
	o.metrics.set("anomaly.process_ns", perOp(process, processed), "ns")
	o.metrics.set("anomaly.close_ms", mean(closeMs), "ms")
	o.metrics.set("anomaly.offer_drops", 0, "count") // no watcher queue in a replay; live-window reports its own
	return nil
}

package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// batchWorkload is the offline pipeline: MRT files in, flat snapshot
// and TSV on disk, through LoadMRT / ClassifyContext / WriteSnapshotFlat
// at Parallelism 0. batch-rib reads day 0's RIB dumps only, so nearly
// every view inserts a new tuple; batch-dup adds update files that
// re-announce the same routes, so most views hit an existing tuple.
type batchWorkload struct {
	dup bool
	w   *world
	in  inputs
}

func (b *batchWorkload) name() string {
	if b.dup {
		return "batch-dup"
	}
	return "batch-rib"
}

func (b *batchWorkload) setup(ctx context.Context, e *env) error {
	w, err := buildWorld(e.seed, e.sc, true)
	if err != nil {
		return err
	}
	passes := 0
	if b.dup {
		passes = dupPasses
	}
	b.w = w
	b.in, err = w.writeInputs(filepath.Join(e.dir, "in"), passes)
	return err
}

func (b *batchWorkload) teardown() error {
	b.w, b.in = nil, inputs{}
	return nil
}

// minBatchIterations keeps a quartile meaningful when one iteration is
// a large share of the measured window.
const minBatchIterations = 5

// iteration runs the pipeline once at Parallelism 0, from a collected
// heap, and checks its output bytes against ref.
func (b *batchWorkload) iteration(ctx context.Context, e *env, o *outcome, ref outputHashes, rec *recorder, i int) (*pipelineRun, error) {
	runtime.GC() // every iteration starts from the same heap
	root := rec.start("iteration", i, -1)
	p, err := runPipeline(ctx, b.in, filepath.Join(e.dir, "out"), 0, nil, rec, i, root)
	if err != nil {
		return nil, err
	}
	rec.end(root, "tuples", int64(p.tuples), "records", int64(p.stats.Records))
	return p, checkOutputs(o, p, ref)
}

// iterations runs n iterations and returns their walls in seconds and
// the last run.
func (b *batchWorkload) iterations(ctx context.Context, e *env, o *outcome, ref outputHashes, rec *recorder, n int) ([]float64, *pipelineRun, error) {
	var walls []float64
	var last *pipelineRun
	for i := 0; i < n; i++ {
		last = nil
		p, err := b.iteration(ctx, e, o, ref, rec, i)
		if err != nil {
			return nil, nil, err
		}
		walls = append(walls, p.wall().Seconds())
		last = p
	}
	return walls, last, nil
}

// checkOutputs counts one pipeline run and fails it when its snapshot
// or TSV bytes differ from the reference.
func checkOutputs(o *outcome, p *pipelineRun, ref outputHashes) error {
	o.attempted++
	h, err := p.hashes()
	if err != nil {
		return err
	}
	if h != ref {
		o.fail(1, "pipeline output differs from the Parallelism 1 reference (snapshot equal: %v, tsv equal: %v)", h.snap == ref.snap, h.tsv == ref.tsv)
	}
	if !p.stats.Clean() {
		o.fail(1, "load was not clean: %s", p.stats.Summary())
	}
	return nil
}

// reference runs the pipeline sequentially; its output bytes are what
// every measured iteration must reproduce.
func (b *batchWorkload) reference(ctx context.Context, e *env, o *outcome) (outputHashes, error) {
	p, err := runPipeline(ctx, b.in, filepath.Join(e.dir, "ref"), 1, nil, nil, 0, -1)
	if err != nil {
		return outputHashes{}, fmt.Errorf("reference run: %w", err)
	}
	o.attempted++
	if p.tuples == 0 {
		o.fail(1, "reference run loaded no tuples")
	}
	return p.hashes()
}

func (b *batchWorkload) measure(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	ref, err := b.reference(ctx, e, o)
	if err != nil {
		return nil, err
	}

	// One warm-up iteration fills the page cache and the allocator; its
	// corpus and result are what the heap figure holds alive.
	base := heapAfterGC()
	warm, err := b.iteration(ctx, e, o, ref, nil, 0)
	if err != nil {
		return nil, err
	}
	heap := heapAfterGC() - base
	tuples := float64(warm.tuples)
	runtime.KeepAlive(warm)
	warm = nil

	var walls, loads, classifies, writes []float64
	for start := time.Now(); len(walls) < minBatchIterations || time.Since(start) < e.seconds; {
		p, err := b.iteration(ctx, e, o, ref, nil, len(walls))
		if err != nil {
			return nil, err
		}
		walls = append(walls, p.wall().Seconds())
		loads = append(loads, p.load.Seconds())
		classifies = append(classifies, p.classify.Seconds())
		writes = append(writes, (p.write + p.tsv).Seconds())
	}
	sorted := sortedCopy(walls)
	fast, p50 := percentile(sorted, fastQuartile), percentile(sorted, 0.5)

	o.metrics.set("ns_per_unit", fast*1e9/tuples, "ns")
	o.metrics.set("op_us", fast*1e6, "us")
	o.metrics.set("heap_bytes_per_tuple", heap/tuples, "B")

	o.named.set("batch_wall_s", p50, "s")
	o.named.set("batch_wall_p25_s", fast, "s")
	o.named.set("batch_wall_p75_s", percentile(sorted, 0.75), "s")
	o.named.set("load_s", median(loads), "s")
	o.named.set("classify_s", median(classifies), "s")
	o.named.set("write_s", median(writes), "s")
	o.named.set("ns_per_tuple", p50*1e9/tuples, "ns")
	o.named.set("heap_bytes_per_tuple", heap/tuples, "B")
	o.named.set("iterations", float64(len(walls)), "count")
	o.named.set("tuples", tuples, "count")
	return o, nil
}

func (b *batchWorkload) trace(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	ref, err := b.reference(ctx, e, o)
	if err != nil {
		return nil, err
	}
	const n = 3
	if _, err := b.iteration(ctx, e, o, ref, nil, 0); err != nil { // warm-up
		return nil, err
	}
	untraced, _, err := b.iterations(ctx, e, o, ref, nil, n)
	if err != nil {
		return nil, err
	}
	traced, last, err := b.iterations(ctx, e, o, ref, e.rec, n)
	if err != nil {
		return nil, err
	}
	o.metrics.set("trace.overhead_pct", overheadPct(median(untraced), median(traced)), "%")
	li := layerInputs{in: b.in, sim: b.w.sim, snapPath: last.snapPath}
	return o, probeLayers(ctx, e, li, o)
}

// overheadPct is how much worse, in percent, the traced pass read than
// the untraced one, for a cost (time per operation).
func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return (traced - untraced) / untraced * 100
}

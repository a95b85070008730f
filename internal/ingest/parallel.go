// Parallel ingestion: one worker per input file, bounded by a
// configurable pool, with deterministic statistics and error reporting.
package ingest

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"bgpintent/internal/mrt"
)

// InputFile names one MRT archive and its format.
type InputFile struct {
	Path string
	// Updates marks a BGP4MP updates file; false means a TABLE_DUMP_V2
	// RIB.
	Updates bool
}

// ScanParallelContext ingests the given files concurrently, at most
// workers files in flight (workers <= 0 means GOMAXPROCS; 1 scans them
// one after another in input order). With more workers than files each
// file is instead split across the workers by the frame/decode pipeline
// (see framesplit.go). ribFn and updFn receive the decoded views and MAY
// BE CALLED CONCURRENTLY from multiple goroutines — the callee must be
// safe for concurrent use (e.g. feed a core.ShardedTupleStore).
//
// Statistics are assembled into stats in input-file order once all
// workers finish, so an N-worker load reports the same Stats as a
// sequential one. On failure the error of the earliest failed file (in
// input order, among those processed before the abort) is returned, and
// stats covers the files up to and including it; files queued behind a
// failure are not started.
//
// A canceled ctx stops workers from starting new files, aborts
// in-flight scans between records, and returns ctx.Err() once every
// worker has been joined — no goroutine outlives the call. If a file
// failed on its own before the cancellation, that error wins.
func ScanParallelContext(ctx context.Context, files []InputFile, opts Options, workers int, stats *Stats,
	ribFn func(*mrt.RIBView) error, updFn func(*mrt.UpdateView) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	done := ctx.Done()
	if workers > len(files) {
		// File-level parallelism cannot use the machine: split each file
		// across the workers instead, one file at a time in input order
		// — the workers already cover the cores, and in-order files keep
		// statistics assembly and earliest-error semantics for free.
		for _, f := range files {
			if chClosed(done) {
				return ctx.Err()
			}
			if err := scanFileSplit(ctx, f, opts, workers, stats, ribFn, updFn); err != nil {
				return err
			}
		}
		return nil
	}

	type fileResult struct {
		stats Stats
		err   error
		done  bool
	}
	results := make([]fileResult, len(files))
	var failed atomic.Bool
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed.Load() || chClosed(done) {
					continue
				}
				var st Stats
				err := scanFile(ctx, files[i], opts, &st, ribFn, updFn)
				results[i] = fileResult{stats: st, err: err, done: true}
				if err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range files {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for i := range results {
		r := &results[i]
		if !r.done {
			continue
		}
		if stats != nil {
			stats.Files = append(stats.Files, r.stats.Files...)
			stats.Total.Merge(&r.stats.Total)
		}
		if r.err != nil {
			return r.err
		}
	}
	return ctx.Err()
}

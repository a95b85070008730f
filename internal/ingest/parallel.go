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

// Sink is what one scanning goroutine feeds the views it decodes into.
// RIB and Update are only ever called from that goroutine, one view at a
// time; Done, when set, runs on it once after its last view, whether the
// scan ended cleanly or not.
type Sink struct {
	RIB    func(*mrt.RIBView) error
	Update func(*mrt.UpdateView) error
	Done   func()
}

// ScanParallelContext is Scan with one pair of callbacks shared by every
// goroutine: ribFn and updFn MAY BE CALLED CONCURRENTLY and must be safe
// for concurrent use.
func ScanParallelContext(ctx context.Context, files []InputFile, opts Options, workers int, stats *Stats,
	ribFn func(*mrt.RIBView) error, updFn func(*mrt.UpdateView) error) error {
	sink := Sink{RIB: ribFn, Update: updFn}
	return Scan(ctx, files, opts, workers, stats, func() Sink { return sink })
}

// Scan ingests the given files concurrently, at most workers files in
// flight (workers <= 0 means GOMAXPROCS; 1 scans them one after another
// in input order). With more workers than files each file is instead
// split across the workers by the frame/decode pipeline (see
// framesplit.go). Every goroutine that delivers views — a file worker, a
// split file's decode worker, the sequential rescan of a split that fell
// back — calls newSink once and feeds its views to that sink alone, so a
// sink needs no locking of its own; newSink itself may be called from
// several goroutines at once. Every sink's Done has run when Scan
// returns.
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
func Scan(ctx context.Context, files []InputFile, opts Options, workers int, stats *Stats, newSink func() Sink) error {
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
			if err := scanFileSplit(ctx, f, opts, workers, stats, newSink); err != nil {
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
			sink := newSink()
			defer sink.done()
			for i := range jobs {
				if failed.Load() || chClosed(done) {
					continue
				}
				var st Stats
				err := scanFile(ctx, files[i], opts, &st, sink)
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

func (s Sink) done() {
	if s.Done != nil {
		s.Done()
	}
}

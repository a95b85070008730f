// Frame/decode split: one file scanned by one framing goroutine feeding
// decode workers, so a single large MRT file spreads across cores
// instead of pinning one. Activated by Scan when there are more workers
// than files.
//
// The framer runs the same fault-tolerant mrt.Reader the sequential scan
// uses and copies record bodies into reusable FrameBatches; the workers
// decode batches concurrently through the same decoders
// (mrt.RIBDecoder, mrt.UpdateDecoder), each feeding the views into a
// sink of its own. Statistics stay exactly equal to a sequential scan:
// the framer owns every framing counter (records, resyncs, truncation,
// bytes) by construction, and the decode counters the workers'
// decoders accumulate per batch are order-independent sums. A worker's
// terminal error stops the counts where the sequential scan stops them,
// at the record that failed (see batchResult). Two cases are genuinely
// order-dependent — lenient recovery from a record that framed but
// failed to decode, where the sequential scan rejects the record's bytes
// back into the stream and rescans inside them, and, under an error
// budget, an entry the decoder drops, after which the sequential scan
// checks the budget at that point of the stream — and they trigger a
// full-file fallback instead: the split attempt's statistics and
// telemetry are discarded and the file is rescanned sequentially.
// Re-feeding views already delivered is safe because feeding the store
// is idempotent (tuple dedup, sorted-set VP insertion,
// large-community set), so the fallback keeps both the corpus and the
// final LoadStats byte-for-byte identical to a sequential load.
package ingest

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"bgpintent/internal/mrt"
	"bgpintent/internal/obs"
)

// Frame batches hand off at most this many records / body bytes; two
// batches per worker circulate through the free list, so the framer
// read-ahead is bounded (double buffering) and backpressure is the free
// list running empty.
const (
	frameBatchRecords = 512
	frameBatchBytes   = 1 << 20
)

// frameJob is one batch handed from the framer to a decode worker,
// with the peer table in force when its records were framed (nil for
// updates files) and the slot its outcome is reported through.
type frameJob struct {
	batch *mrt.FrameBatch
	table *mrt.PeerIndexTable
	res   *batchResult
}

// batchResult is one batch's decode outcome. The framer allocates it
// and appends it to an ordered list before dispatch; the worker is the
// only writer afterwards, and the join's wg.Wait publishes the writes.
type batchResult struct {
	stats mrt.Stats
	err   error
	// framed is what the framer had counted when it framed the record
	// that failed, err's: its records and bytes, and the tables it
	// decoded. The framer fills in the counts before the batch, the
	// worker the failing record's share.
	framed mrt.Stats
}

// splitState is the shared control state of one split-file scan.
type splitState struct {
	failed   atomic.Bool // a worker hit a terminal error; stop dispatching
	fallback atomic.Bool // lenient decode failure or, budgeted, a dropped entry; rescan sequentially
	// budgeted falls back on an entry the decoder drops: the scan is
	// lenient and held to an error budget.
	budgeted bool
	done     <-chan struct{}
}

func (st *splitState) aborted() bool {
	return st.failed.Load() || chClosed(st.done)
}

// decodeBatches is one worker's loop over a file's frame jobs: it
// decodes each record through dec, the same decoder the sequential scan
// uses, into the job's result slot and feeds the views to fn. For RIB
// files table points at dec's peer table, which each job stamps with
// the table in force when its records were framed; it is nil for
// updates files. All reusable decode state is worker-local.
func decodeBatches[V any](jobs <-chan frameJob, free chan<- *mrt.FrameBatch, st *splitState, dec mrt.Decoder[V], table **mrt.PeerIndexTable, fn func(*V) error) {
	var rec mrt.Record
	for job := range jobs {
		if table != nil {
			*table = job.table
		}
		stats := &job.res.stats
		for i, n := 0, job.batch.Len(); i < n && !st.aborted(); i++ {
			job.batch.Rec(i, &rec)
			skip, err := dec.Decode(&rec, stats)
			for err == nil && skip == "" {
				var v *V
				switch v, err = dec.Next(stats); {
				case v != nil:
					err = fn(v)
				case err == nil && st.budgeted:
					skip = "dropped entry"
				}
			}
			switch {
			case skip != "":
				// The sequential scan would Reject the record's bytes and
				// rescan inside them, or check the budget after the entry
				// it dropped; both are inherently stream-ordered, so redo
				// the whole file sequentially.
				st.fallback.Store(true)
			case err == io.EOF:
				continue
			default:
				job.res.err = err
				job.res.framed.Records += i + 1
				job.res.framed.BytesRead = rec.End()
			}
			st.failed.Store(true)
		}
		free <- job.batch
	}
}

// scanFileSplit scans one file with a framer goroutine plus workers
// decode goroutines. Statistics, telemetry and error semantics match
// the sequential scanFile (see the comment at the top of this file for
// the fallback that guarantees it).
func scanFileSplit(ctx context.Context, f InputFile, opts Options, workers int, stats *Stats, newSink func() Sink) error {
	rc, err := openTimed(f.Path, opts.Tracer)
	if err != nil {
		return err
	}
	defer rc.Close()

	s := beginScan(f.Path, opts)
	tr := opts.Tracer
	r := s.reader(rc)
	st := &splitState{budgeted: s.limit >= 0, done: ctx.Done()}

	nBatches := 2 * workers
	free := make(chan *mrt.FrameBatch, nBatches)
	for i := 0; i < nBatches; i++ {
		free <- &mrt.FrameBatch{}
	}
	jobs := make(chan frameJob)

	// RIB files interleave PEER_INDEX_TABLE records with the RIB records
	// that reference them, so table records are a framing barrier: the
	// framer decodes them in stream order, through a RIB decoder of its
	// own, and stamps each batch with the table in force when it was
	// framed.
	tables := &mrt.RIBDecoder{Lenient: !opts.Strict}
	barrier := mrt.IsPeerIndexTable
	run := func(sink Sink) {
		dec := &mrt.RIBDecoder{Lenient: !opts.Strict}
		decodeBatches(jobs, free, st, dec, &dec.Table, sink.RIB)
	}
	if f.Updates {
		barrier = nil
		run = func(sink Sink) {
			decodeBatches(jobs, free, st, &mrt.UpdateDecoder{Lenient: !opts.Strict}, nil, sink.Update)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			sink := newSink()
			defer sink.done()
			run(sink)
		}()
	}

	var (
		ordered  []*batchResult
		framerFn error // framer-side terminal error (budget, reader, strict table)
	)
	for !st.aborted() {
		batch := <-free
		framed := mrt.Stats{Records: s.fs.Records, Decoded: s.fs.Decoded}
		var frameStart time.Time
		if tr.Active() {
			frameStart = time.Now()
		}
		brec, err := r.NextBatch(batch, frameBatchRecords, frameBatchBytes, barrier)
		if tr.Active() {
			tr.AddStageTime(obs.StageFrame, time.Since(frameStart), int64(batch.Len()))
		}
		s.tick()
		if err != nil {
			free <- batch
			if err != io.EOF {
				framerFn = err
			}
			break
		}
		if batch.Len() > 0 {
			res := &batchResult{framed: framed}
			ordered = append(ordered, res)
			jobs <- frameJob{batch: batch, table: tables.Table, res: res}
		} else {
			free <- batch
		}
		if brec != nil {
			// Barrier record: a peer index table, governing every record
			// after it. The batch just dispatched was framed before it.
			if skip, err := tables.Decode(brec, &s.fs); skip != "" {
				st.fallback.Store(true)
				break
			} else if err != nil {
				framerFn = err
				break
			}
		}
		// Mid-stream budget check over the framer's counters. A budgeted
		// split has no decode skips to add: the first one falls back to
		// the sequential scan, where the budget applies per record and
		// per dropped entry.
		if err := s.overBudget(budgetMinSample); err != nil {
			framerFn = err
			break
		}
	}
	close(jobs)
	wg.Wait()

	if chClosed(st.done) {
		return s.end(stats, ctx.Err())
	}
	if st.fallback.Load() {
		// Discard the split attempt entirely — statistics, decode span,
		// the records it counted — and rescan sequentially; idempotent
		// callbacks make the re-feed invisible (see the file comment).
		tr.AddRecords(-int64(s.counted))
		sink := newSink()
		defer sink.done()
		return scanFile(ctx, f, opts, stats, sink)
	}
	// Merge batch outcomes in frame order: the earliest batch error wins,
	// with the stats of everything before it, matching the point a
	// sequential scan would have stopped at. The framer read ahead of the
	// failing record, so its records, bytes and tables count as far as
	// that record and no further (framing recoveries past it, lenient
	// only, still count).
	werr, upto := framerFn, len(ordered)
	for k, res := range ordered {
		if res.err != nil {
			werr, upto = res.err, k+1
			s.fs.Records, s.fs.BytesRead, s.fs.Decoded = res.framed.Records, res.framed.BytesRead, res.framed.Decoded
			s.tick()
			break
		}
	}
	for _, res := range ordered[:upto] {
		s.fs.Merge(&res.stats)
	}
	if werr != nil {
		werr = fileErr(f.Path, werr)
	}
	return s.end(stats, werr)
}

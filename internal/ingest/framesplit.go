// Frame/decode split: one file scanned by one framing goroutine feeding
// decode workers, so a single large MRT file spreads across cores
// instead of pinning one. Activated by Scan when there are more workers
// than files.
//
// The framer runs the same fault-tolerant mrt.Reader the sequential
// scanners use and copies record bodies into reusable FrameBatches; the
// workers decode batches concurrently, each feeding the views into a
// sink of its own. Statistics stay exactly equal to a
// sequential scan: the framer owns every framing counter (records,
// resyncs, truncation, bytes) by construction, and the decode counters
// the workers accumulate per batch are order-independent sums. The one
// case that is genuinely order-dependent — lenient recovery from a
// record that framed but failed to decode, where the sequential scanner
// rejects the record's bytes back into the stream and rescans inside
// them — triggers a full-file fallback instead: the split attempt's
// statistics and telemetry are discarded and the file is rescanned
// sequentially.
// Re-feeding views already delivered is safe because feeding the store
// is idempotent (tuple dedup, sorted-set VP insertion,
// large-community set), so the fallback keeps both the corpus and the
// final LoadStats byte-for-byte identical to a sequential load.
package ingest

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"bgpintent/internal/bgp"
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
}

// splitState is the shared control state of one split-file scan.
type splitState struct {
	failed   atomic.Bool // a worker hit a terminal error; stop dispatching
	fallback atomic.Bool // lenient decode failure; rescan sequentially
	done     <-chan struct{}
}

func (st *splitState) aborted() bool {
	return st.failed.Load() || chClosed(st.done)
}

// recordDecoder is one worker's per-record decode step for one kind of
// file: it parses rec, notes what it decoded or skipped against stats
// and feeds the views to the kind's callback. A non-empty skip marks err
// as rec failing to parse (skip is the reason a lenient scan notes); any
// other error is terminal as it stands.
type recordDecoder func(rec *mrt.Record, table *mrt.PeerIndexTable, stats *mrt.Stats) (skip string, err error)

// ribDecoder decodes TABLE_DUMP_V2 RIB records against the peer table in
// force when they were framed. Peer index tables never reach workers
// (framing barrier); foreign types and other subtypes are skipped like
// the sequential scanner skips them.
func ribDecoder(strict bool, fn func(*mrt.RIBView) error) recordDecoder {
	var (
		rib  mrt.RIB
		view mrt.RIBView
	)
	return func(rec *mrt.Record, table *mrt.PeerIndexTable, stats *mrt.Stats) (string, error) {
		if rec.Type != mrt.TypeTableDumpV2 ||
			(rec.Subtype != mrt.SubtypeRIBIPv4Unicast && rec.Subtype != mrt.SubtypeRIBIPv6Unicast) {
			stats.NoteUnknown(rec.Type, rec.Subtype)
			return "", nil
		}
		if err := mrt.ParseRIBInto(rec.Subtype, rec.Body, &rib); err != nil {
			return "rib", err
		}
		stats.NoteDecoded()
		for _, e := range rib.Entries {
			if table == nil || int(e.PeerIndex) >= len(table.Peers) {
				if strict {
					return "", fmt.Errorf("mrt: RIB record at offset %d: entry references peer index %d outside table", rec.Offset, e.PeerIndex)
				}
				stats.NoteSkip("peer-index-out-of-range")
				continue
			}
			view = mrt.RIBView{Peer: table.Peers[e.PeerIndex], Prefix: rib.Prefix, Entry: e}
			if err := fn(&view); err != nil {
				return "", err
			}
		}
		return "", nil
	}
}

// updateDecoder decodes BGP4MP records.
func updateDecoder(fn func(*mrt.UpdateView) error) recordDecoder {
	var (
		upd  bgp.UpdateMessage
		view mrt.UpdateView
	)
	return func(rec *mrt.Record, _ *mrt.PeerIndexTable, stats *mrt.Stats) (string, error) {
		ok, err := mrt.DecodeUpdateRecord(rec, &upd, &view, stats)
		if err != nil {
			return "bgp4mp", err
		}
		if !ok {
			return "", nil
		}
		stats.NoteDecoded()
		return "", fn(&view)
	}
}

// decodeBatches is one worker's loop over a file's frame jobs. All
// reusable decode state (the record view here, the rest inside decode)
// is worker-local; per-batch counters land in the job's result slot.
func decodeBatches(jobs <-chan frameJob, free chan<- *mrt.FrameBatch, st *splitState, strict bool, decode recordDecoder) {
	var rec mrt.Record
	for job := range jobs {
		for i, n := 0, job.batch.Len(); i < n && !st.aborted(); i++ {
			job.batch.Rec(i, &rec)
			skip, err := decode(&rec, job.table, &job.res.stats)
			if err == nil {
				continue
			}
			switch {
			case skip == "":
				job.res.err = err
			case strict:
				job.res.err = fmt.Errorf("mrt: record at offset %d: %w", rec.Offset, err)
			default:
				// The sequential scanner would Reject the record's bytes
				// and rescan inside them; that recovery is inherently
				// stream-ordered, so redo the whole file sequentially.
				job.res.stats.NoteSkip(skip)
				st.fallback.Store(true)
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
	fs, tr := &s.fs, opts.Tracer
	so := scanOptions(f.Path, opts, fs)
	r := so.Reader(rc)
	st := &splitState{done: ctx.Done()}

	// RIB files interleave PEER_INDEX_TABLE records with the RIB records
	// that reference them, so table records are a framing barrier: the
	// framer parses them in stream order and stamps each batch with the
	// table in force when it was framed.
	newDecoder := func(sink Sink) recordDecoder { return ribDecoder(opts.Strict, sink.RIB) }
	barrier := func(typ, subtype uint16) bool {
		return typ == mrt.TypeTableDumpV2 && subtype == mrt.SubtypePeerIndexTable
	}
	if f.Updates {
		newDecoder = func(sink Sink) recordDecoder { return updateDecoder(sink.Update) }
		barrier = nil
	}

	nBatches := 2 * workers
	free := make(chan *mrt.FrameBatch, nBatches)
	for i := 0; i < nBatches; i++ {
		free <- &mrt.FrameBatch{}
	}
	jobs := make(chan frameJob)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			sink := newSink()
			defer sink.done()
			decodeBatches(jobs, free, st, opts.Strict, newDecoder(sink))
		}()
	}

	var (
		table    *mrt.PeerIndexTable
		ordered  []*batchResult
		framerFn error // framer-side terminal error (budget, reader, strict table)
	)
	for !st.aborted() {
		batch := <-free
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
			res := &batchResult{}
			ordered = append(ordered, res)
			jobs <- frameJob{batch: batch, table: table, res: res}
		} else {
			free <- batch
		}
		if brec != nil {
			// Barrier record: a peer index table, governing every record
			// after it. The batch just dispatched was framed before it.
			t, perr := mrt.ParsePeerIndexTable(brec.Body)
			if perr != nil {
				if opts.Strict {
					framerFn = fmt.Errorf("mrt: record at offset %d: %w", brec.Offset, perr)
					break
				}
				fs.NoteSkip("peer-index-table")
				st.fallback.Store(true)
				break
			}
			fs.NoteDecoded()
			table = t
		}
		if so.Check != nil {
			// Mid-stream budget check over the framing counters; decode
			// skips are re-checked exactly at finish (and a lenient decode
			// failure falls back to the sequential scan, where the budget
			// applies per record).
			if cerr := so.Check(fs); cerr != nil {
				framerFn = cerr
				break
			}
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
	// sequential scan would have stopped at.
	werr := framerFn
	for _, res := range ordered {
		fs.Merge(&res.stats)
		if res.err != nil {
			werr = res.err
			break
		}
	}
	if werr != nil {
		werr = fileErr(f.Path, werr)
	}
	return s.end(stats, werr)
}

// Package ingest is the fault-tolerant MRT file-loading layer between
// the raw mrt decoder and the corpus facade. It opens archive files
// (decompressing .gz/.bz2 as RouteViews and RIPE RIS ship them), streams
// views out of them in strict or lenient mode, keeps per-file and
// aggregate statistics, and enforces an error budget: a lenient load
// aborts when a file's corruption rate exceeds a threshold, so silent
// garbage cannot masquerade as a clean corpus.
package ingest

import (
	"bufio"
	"compress/bzip2"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"bgpintent/internal/mrt"
	"bgpintent/internal/obs"
)

// DefaultMaxErrorRate is the default error budget: the fraction of
// corrupt records per file above which a lenient load aborts.
const DefaultMaxErrorRate = 0.05

// budgetMinSample is how many record attempts must accumulate before
// the budget is enforced mid-stream; it keeps a single early bad record
// in a huge file from tripping the rate check. The budget is always
// re-checked, without the floor, when the file ends.
const budgetMinSample = 128

// Options control how files are ingested.
type Options struct {
	// Strict fails on the first malformed record, today's legacy
	// behavior. Default is lenient: skip and resynchronize.
	Strict bool
	// MaxErrorRate is the lenient-mode error budget: 0 means
	// DefaultMaxErrorRate, negative disables the budget entirely.
	MaxErrorRate float64
	// Tracer receives per-file open/decode spans and live
	// record/byte/file counters; nil disables ingestion telemetry.
	Tracer *obs.Tracer
}

func (o Options) limit() float64 {
	switch {
	case o.MaxErrorRate == 0:
		return DefaultMaxErrorRate
	case o.MaxErrorRate < 0:
		return -1
	default:
		return o.MaxErrorRate
	}
}

// BudgetError reports a file whose corruption rate exceeded the error
// budget.
type BudgetError struct {
	Path  string
	Rate  float64
	Limit float64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("ingest: %s: corruption rate %.2f%% exceeds error budget %.2f%%",
		e.Path, 100*e.Rate, 100*e.Limit)
}

// FileStats pairs one ingested file with its decode statistics.
type FileStats struct {
	Path string
	mrt.Stats
}

// Stats aggregates ingestion statistics across a corpus load.
type Stats struct {
	Files []FileStats
	Total mrt.Stats
}

func (s *Stats) add(path string, fs *mrt.Stats) {
	if s == nil {
		return
	}
	s.Files = append(s.Files, FileStats{Path: path, Stats: *fs})
	s.Total.Merge(fs)
}

// Clean reports whether every file loaded without corruption events.
func (s *Stats) Clean() bool { return s == nil || s.Total.Clean() }

// Summary renders a one-line human-readable account of the load.
func (s *Stats) Summary() string {
	if s == nil {
		return "no ingestion statistics"
	}
	t := &s.Total
	var b strings.Builder
	fmt.Fprintf(&b, "%d files, %d records (%d decoded, %d unknown-type)",
		len(s.Files), t.Records, t.Decoded, t.UnknownCount())
	if t.Clean() {
		b.WriteString(", no corruption")
	} else {
		fmt.Fprintf(&b, ", %d skipped, %d resyncs, %d truncated tails, %d bytes lost of %d read",
			t.Skipped, t.Resyncs, t.Truncated, t.BytesSkipped, t.BytesRead)
	}
	return b.String()
}

// Open opens an MRT archive file, transparently decompressing .gz and
// .bz2 by extension, as the RouteViews and RIS archives ship them.
func Open(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasSuffix(path, ".gz"):
		zr, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("ingest: %s: %w", path, err)
		}
		return &wrappedCloser{Reader: zr, close: func() error { zr.Close(); return f.Close() }}, nil
	case strings.HasSuffix(path, ".bz2"):
		return &wrappedCloser{Reader: bzip2.NewReader(f), close: f.Close}, nil
	default:
		return f, nil
	}
}

// OpenReader wraps an already-open stream with transparent
// decompression, sniffing the gzip and bzip2 magic bytes instead of a
// file extension — for inputs with no name to go by, such as stdin.
// Streams too short to carry a magic number pass through unchanged.
func OpenReader(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	magic, _ := br.Peek(3)
	switch {
	case len(magic) >= 2 && magic[0] == 0x1f && magic[1] == 0x8b:
		return gzip.NewReader(br)
	case len(magic) >= 3 && magic[0] == 'B' && magic[1] == 'Z' && magic[2] == 'h':
		return bzip2.NewReader(br), nil
	}
	return br, nil
}

// wrappedCloser pairs a decompressing reader with the underlying file's
// closer.
type wrappedCloser struct {
	io.Reader
	close func() error
}

// Close closes the decompressor and the underlying file.
func (w *wrappedCloser) Close() error { return w.close() }

// openTimed is Open plus an obs.StageOpen span when a tracer is
// attached.
func openTimed(path string, tr *obs.Tracer) (io.ReadCloser, error) {
	if !tr.Active() {
		return Open(path)
	}
	start := time.Now()
	rc, err := Open(path)
	tr.EmitSpan(obs.StageOpen, path, start, time.Since(start), nil)
	return rc, err
}

// fileScan is one file's scan in flight: its decode statistics, the
// error budget it is held to, and the telemetry both schedules
// (sequential scan, frame/decode split) report the same way — one
// decode span per file, the live record counter advanced by MRT records
// framed, the byte counter by bytes read.
type fileScan struct {
	name    string
	opts    Options
	limit   float64 // the error budget; negative when none applies
	fs      mrt.Stats
	start   time.Time
	counted int // fs.Records already added to the live record counter
}

func beginScan(name string, opts Options) *fileScan {
	s := &fileScan{name: name, opts: opts, limit: opts.limit()}
	if opts.Strict {
		s.limit = -1
	}
	if tr := opts.Tracer; tr.Active() {
		tr.StageStartOnly(obs.StageDecode, name)
		s.start = time.Now()
	}
	return s
}

// reader frames r with the file's fault tolerance, counting into its
// stats.
func (s *fileScan) reader(r io.Reader) *mrt.Reader {
	so := mrt.ScanOptions{Lenient: !s.opts.Strict, Stats: &s.fs}
	return so.Reader(r)
}

// overBudget returns a BudgetError when the file's corruption rate is
// over the budget, once at least minSample record attempts count.
func (s *fileScan) overBudget(minSample int) error {
	if s.limit < 0 || s.fs.Attempts() < minSample {
		return nil
	}
	if rate := s.fs.ErrorRate(); rate > s.limit {
		return &BudgetError{Path: s.name, Rate: rate, Limit: s.limit}
	}
	return nil
}

// tick advances the live record counter to the records framed so far.
// Only the goroutine that drives the file's mrt.Reader calls it.
func (s *fileScan) tick() {
	if n := s.fs.Records - s.counted; n != 0 {
		s.opts.Tracer.AddRecords(int64(n))
		s.counted = s.fs.Records
	}
}

// end closes the scan: it emits the decode span, records the file's
// stats and, when the scan ran to a clean end of file (err == nil),
// applies the final (no minimum sample) budget check.
func (s *fileScan) end(stats *Stats, err error) error {
	if tr := s.opts.Tracer; tr.Active() {
		tr.EmitSpan(obs.StageDecode, s.name, s.start, time.Since(s.start), func(sp *obs.Span) {
			sp.Records = int64(s.fs.Records)
			sp.Bytes = s.fs.BytesRead
		})
		tr.AddBytes(s.fs.BytesRead)
	}
	stats.add(s.name, &s.fs)
	if err != nil {
		return err
	}
	s.opts.Tracer.FileDone()
	return s.overBudget(0)
}

// fileErr labels a framing or decode error with its file; a BudgetError
// already names it.
func fileErr(name string, err error) error {
	if _, ok := err.(*BudgetError); ok {
		return err
	}
	return fmt.Errorf("ingest: %s: %w", name, err)
}

// scan is the sequential scan of one file of either kind: it frames r's
// records, decodes each through dec, hands a lenient skip's bytes back
// to the reader and feeds the views to fn. ctx is checked between
// records. The error budget is checked once each record is counted and
// again after each entry the decoder drops, so a scan stops at the
// record or entry that breaks it, before the views that follow. name
// labels the stream in errors and statistics.
func scan[V any](ctx context.Context, r io.Reader, name string, opts Options, stats *Stats, dec mrt.Decoder[V], fn func(*V) error) error {
	s := beginScan(name, opts)
	rd := s.reader(r)
	done := ctx.Done()
	for !chClosed(done) {
		rec, err := rd.Next()
		s.tick()
		if err == io.EOF {
			return s.end(stats, s.overBudget(budgetMinSample))
		}
		if err != nil {
			return s.end(stats, fileErr(name, err))
		}
		if skip, err := dec.Decode(rec, &s.fs); skip != "" {
			rd.Reject(rec)
		} else if err != nil {
			return s.end(stats, fileErr(name, err))
		}
		if err := s.overBudget(budgetMinSample); err != nil {
			return s.end(stats, err)
		}
		for {
			v, err := dec.Next(&s.fs)
			if err == io.EOF {
				break
			}
			if err != nil {
				return s.end(stats, fileErr(name, err))
			}
			if v == nil { // an entry dropped
				if err := s.overBudget(budgetMinSample); err != nil {
					return s.end(stats, err)
				}
				continue
			}
			if err := fn(v); err != nil {
				return s.end(stats, err)
			}
		}
	}
	return s.end(stats, ctx.Err())
}

// ScanRIBsFrom streams every RIBView of an already-open TABLE_DUMP_V2
// stream into fn; name labels the stream in errors and statistics.
func ScanRIBsFrom(r io.Reader, name string, opts Options, stats *Stats, fn func(*mrt.RIBView) error) error {
	return scan(context.Background(), r, name, opts, stats, &mrt.RIBDecoder{Lenient: !opts.Strict}, fn)
}

// scanFile opens f and scans it into sink's callback of its kind; a
// canceled ctx aborts the scan between records with ctx.Err().
func scanFile(ctx context.Context, f InputFile, opts Options, stats *Stats, sink Sink) error {
	rc, err := openTimed(f.Path, opts.Tracer)
	if err != nil {
		return err
	}
	defer rc.Close()
	if f.Updates {
		return scan(ctx, rc, f.Path, opts, stats, &mrt.UpdateDecoder{Lenient: !opts.Strict}, sink.Update)
	}
	return scan(ctx, rc, f.Path, opts, stats, &mrt.RIBDecoder{Lenient: !opts.Strict}, sink.RIB)
}

// chClosed is a non-blocking closed-channel probe; nil reads as open.
func chClosed(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Command intentinfer classifies BGP communities as action or
// information from MRT data, implementing the paper's pipeline end to
// end. RIB and updates files may be given as globs.
//
// Loading is lenient by default: undecodable records are skipped,
// corrupt framing is resynchronized over, and the load aborts only when
// a file's corruption rate exceeds -max-error-rate. -strict restores
// fail-fast decoding.
//
// Usage:
//
//	intentinfer -rib 'corpus/*.rib.mrt' -updates 'corpus/*.updates.mrt' \
//	            -as2org corpus/as2org.txt [-gap 140] [-ratio 160] [-o out.tsv]
//	            [-format tsv|json|snapshot] [-strict] [-max-error-rate 0.05]
//	            [-parallelism N] [-progress] [-trace-json events.jsonl]
//	            [-cpuprofile cpu.pb] [-memprofile mem.pb]
//
// -format snapshot writes the binary artifact intentd -snapshot
// cold-starts from, skipping MRT re-ingestion entirely.
//
// -progress prints per-stage completions, periodic heartbeats, and an
// end-of-run per-stage summary to stderr; -trace-json streams the same
// telemetry as JSON lines to a file ("-" for stderr). Both observe the
// run without changing its output. SIGINT/SIGTERM cancel the pipeline
// cleanly between records.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"bgpintent"
	"bgpintent/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("intentinfer: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			log.Fatal("interrupted")
		}
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("intentinfer", flag.ContinueOnError)
	var (
		ribGlob = fs.String("rib", "", "glob of TABLE_DUMP_V2 RIB files")
		updGlob = fs.String("updates", "", "glob of BGP4MP updates files")
		as2org  = fs.String("as2org", "", "as2org file (asn|org lines)")
		gap     = fs.Int("gap", 140, "minimum gap between community clusters")
		ratio   = fs.Float64("ratio", 160, "on-path:off-path ratio threshold")
		outPath = fs.String("o", "", "write inferences to this file")
		format  = fs.String("format", "tsv", "output format: tsv, json, or snapshot (the binary artifact intentd -snapshot serves from)")
		strict  = fs.Bool("strict", false, "fail on the first malformed MRT record instead of skipping it")
		maxErr  = fs.Float64("max-error-rate", bgpintent.DefaultMaxErrorRate,
			"abort when a file's corruption rate exceeds this fraction (negative disables)")
		par      = fs.Int("parallelism", 0, "ingest/classifier workers (0 = one per CPU, 1 = sequential)")
		progress = fs.Bool("progress", false, "print stage timings, heartbeats and a per-stage summary to stderr")
		traceOut = fs.String("trace-json", "", "stream telemetry as JSON lines to this file (\"-\" for stderr)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *format {
	case "tsv", "json", "snapshot":
	default:
		return fmt.Errorf("unknown -format %q (want tsv, json or snapshot)", *format)
	}
	// Reject bad -gap/-ratio before the (potentially long) load.
	if err := (bgpintent.Params{MinGap: *gap, RatioThreshold: *ratio}).Validate(); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	ribs, err := expand(*ribGlob)
	if err != nil {
		return err
	}
	updates, err := expand(*updGlob)
	if err != nil {
		return err
	}
	if len(ribs)+len(updates) == 0 {
		return fmt.Errorf("no input files; use -rib and/or -updates")
	}

	observer, collector, closeTrace, err := buildObserver(*progress, *traceOut)
	if err != nil {
		return err
	}
	defer closeTrace()

	c, stats, err := bgpintent.LoadMRT(ctx,
		bgpintent.Sources{RIBs: ribs, Updates: updates, OrgPath: *as2org},
		bgpintent.LoadOptions{
			Strict: *strict, MaxErrorRate: *maxErr, Parallelism: *par,
			Observer: observer, ProgressInterval: progressInterval,
		})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ingest: %s\n", stats.Summary())
	fmt.Fprintf(stdout, "loaded %d unique tuples over %d unique AS paths from %d vantage points\n",
		c.Tuples(), c.Paths(), len(c.VantagePoints()))
	fmt.Fprintf(stdout, "observed %d distinct communities (+%d large)\n",
		len(c.Communities()), c.LargeCommunities())

	params := bgpintent.Params{MinGap: *gap, RatioThreshold: *ratio, Parallelism: *par, Observer: observer}
	if err := params.Validate(); err != nil {
		return err
	}
	res, err := c.ClassifyContext(ctx, params)
	if err != nil {
		return err
	}
	action, info := res.Counts()
	if la, li := res.LargeCounts(); la+li > 0 {
		fmt.Fprintf(stdout, "classified %d communities: %d action, %d information (large: %d action, %d information)\n",
			action+info+la+li, action, info, la, li)
	} else {
		fmt.Fprintf(stdout, "classified %d communities: %d action, %d information\n", action+info, action, info)
	}

	if *outPath != "" {
		var fill func(io.Writer) error
		switch *format {
		case "tsv":
			fill = res.WriteTSV
		case "json":
			fill = res.WriteJSON
		case "snapshot":
			info := c.SnapshotInfo(sourceLabel(*ribGlob, *updGlob))
			fill = func(w io.Writer) error { return res.WriteSnapshotFlat(w, info) }
		}
		err := obs.Time(ctx, observer, obs.StageSnapshotWrite, *outPath, nil, func(context.Context) error {
			return writeAtomic(*outPath, fill)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s inferences to %s\n", *format, *outPath)
	}
	if collector != nil {
		fmt.Fprint(os.Stderr, collector.RenderSummary())
	}
	return nil
}

// progressInterval is the -progress/-trace-json heartbeat period.
const progressInterval = time.Second

// buildObserver assembles the telemetry sinks for -progress and
// -trace-json. The returned Observer is nil when both are off; the
// Collector (non-nil only with -progress) accumulates the end-of-run
// per-stage summary; closeTrace flushes and closes the trace file.
func buildObserver(progress bool, traceOut string) (bgpintent.Observer, *obs.Collector, func(), error) {
	var sinks []bgpintent.Observer
	var collector *obs.Collector
	closeTrace := func() {}
	if progress {
		sinks = append(sinks, obs.NewProgressPrinter(os.Stderr))
		collector = &obs.Collector{}
		sinks = append(sinks, collector)
	}
	if traceOut != "" {
		w := io.Writer(os.Stderr)
		if traceOut != "-" {
			f, err := os.Create(traceOut)
			if err != nil {
				return nil, nil, nil, err
			}
			w = f
			closeTrace = func() { f.Close() }
		}
		sinks = append(sinks, obs.NewJSONTracer(w))
	}
	if len(sinks) == 0 {
		return nil, nil, closeTrace, nil
	}
	return obs.Multi(sinks...), collector, closeTrace, nil
}

// sourceLabel records the input globs as snapshot provenance.
func sourceLabel(ribGlob, updGlob string) string {
	switch {
	case ribGlob != "" && updGlob != "":
		return ribGlob + " + " + updGlob
	case ribGlob != "":
		return ribGlob
	default:
		return updGlob
	}
}

// writeAtomic writes the output to a temporary file in the destination
// directory and renames it into place, so a mid-stream failure never
// leaves a half-written artifact behind.
func writeAtomic(path string, fill func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = fill(tmp); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func expand(glob string) ([]string, error) {
	if glob == "" {
		return nil, nil
	}
	files, err := filepath.Glob(glob)
	if err != nil {
		return nil, fmt.Errorf("bad glob %q: %v", glob, err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("glob %q matched no files", glob)
	}
	return files, nil
}

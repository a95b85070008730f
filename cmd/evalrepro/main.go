// Command evalrepro regenerates the paper's tables and figures over a
// synthetic corpus (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	evalrepro [-exp all|headline|fig4|fig6|fig7|fig9|fig10|days|months|tab1|ablation|seeds|fine|faults]
//	          [-scale tiny|default] [-seed N] [-days N] [-trials N] [-months N]
//	          [-parallelism N] [-progress] [-trace-json events.jsonl]
//	          [-cpuprofile cpu.pb] [-memprofile mem.pb]
//
// -progress prints a per-experiment timing line to stderr as each
// experiment completes; -trace-json streams the same spans as JSON
// lines ("-" for stderr). Each experiment is one span with stage
// "experiment" and its id as the label.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"bgpintent/internal/corpus"
	"bgpintent/internal/eval"
	"bgpintent/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evalrepro: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("evalrepro", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment id(s), comma separated, or 'all'")
		scale    = fs.String("scale", "default", "corpus scale: tiny, default or large")
		seed     = fs.Int64("seed", 1, "corpus seed")
		days     = fs.Int("days", 7, "days of data for corpus experiments")
		trials   = fs.Int("trials", 50, "trials for the vantage-point experiment")
		months   = fs.Int("months", 12, "months for the longitudinal experiment")
		par      = fs.Int("parallelism", 0, "classifier workers (0 = one per CPU, 1 = sequential)")
		progress = fs.Bool("progress", false, "print per-experiment timings to stderr")
		traceOut = fs.String("trace-json", "", "stream experiment spans as JSON lines to this file (\"-\" for stderr)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var sinks []obs.Observer
	if *progress {
		sinks = append(sinks, obs.NewProgressPrinter(os.Stderr))
	}
	if *traceOut != "" {
		w := io.Writer(os.Stderr)
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		sinks = append(sinks, obs.NewJSONTracer(w))
	}
	var observer obs.Observer
	if len(sinks) > 0 {
		observer = obs.Multi(sinks...)
	}
	// step wraps one experiment in an "experiment" span labeled with its
	// id, so -progress/-trace-json attribute wall time per experiment.
	step := func(id string, f func() error) error {
		return obs.Time(context.Background(), observer, obs.Stage("experiment"), id, nil,
			func(context.Context) error { return f() })
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

	cfg := corpus.DefaultConfig()
	switch *scale {
	case "tiny":
		cfg = corpus.TinyConfig()
	case "large":
		cfg.Scale = corpus.ScaleLarge
	case "default":
	default:
		return fmt.Errorf("unknown -scale %q", *scale)
	}
	cfg.Seed = *seed
	cfg.Days = *days
	cfg.Workers = *par

	wanted := strings.Split(*exp, ",")
	known := map[string]bool{
		"all": true, "headline": true, "fig4": true, "fig6": true, "fig7": true,
		"fig9": true, "fig10": true, "days": true, "months": true, "tab1": true,
		"ablation": true, "seeds": true, "fine": true, "faults": true,
	}
	for _, w := range wanted {
		if !known[w] {
			return fmt.Errorf("unknown experiment %q", w)
		}
	}
	want := func(id string) bool {
		for _, w := range wanted {
			if w == "all" || w == id {
				return true
			}
		}
		return false
	}

	// Experiments sharing one corpus.
	needCorpus := false
	for _, id := range []string{"headline", "fig4", "fig6", "fig7", "fig9", "fig10", "tab1", "ablation", "fine"} {
		if want(id) {
			needCorpus = true
		}
	}
	var c *corpus.Corpus
	if needCorpus {
		fmt.Fprintf(stdout, "building corpus (scale=%s seed=%d days=%d)...\n", *scale, *seed, *days)
		err := step("corpus", func() error {
			var err error
			c, err = corpus.Build(cfg)
			return err
		})
		if err != nil {
			return err
		}
		comms, vps := c.Store.DistinctCounts()
		fmt.Fprintf(stdout, "corpus: %d tuples, %d paths, %d communities, %d VPs\n\n",
			c.Store.Len(), c.Store.PathCount(), comms, vps)
	}

	// Experiments over the shared corpus render synchronously.
	renders := []struct {
		id     string
		render func() string
	}{
		{"headline", func() string { return eval.Headline(c).Render() }},
		{"fig4", func() string { return eval.Fig4(c).Render() }},
		{"fig6", func() string { return eval.Fig6(c).Render() }},
		{"fig7", func() string { return eval.Fig7(c).Render() }},
		{"fig9", func() string { return eval.Fig9(c, nil).Render() }},
		{"fig10", func() string { return eval.Fig10(c, nil, *trials, *seed).Render() }},
		{"tab1", func() string { return eval.Table1(c).Render() }},
		{"ablation", func() string { return eval.Ablations(c).Render() }},
		{"fine", func() string { return eval.FineGrained(c).Render() }},
	}
	for _, r := range renders {
		if !want(r.id) {
			continue
		}
		if err := step(r.id, func() error { fmt.Fprintln(stdout, r.render()); return nil }); err != nil {
			return err
		}
	}

	// Sweeps build their own corpora.
	sweeps := []struct {
		id  string
		run func() (interface{ Render() string }, error)
	}{
		{"days", func() (interface{ Render() string }, error) { return eval.DaysSweep(cfg, *days) }},
		{"months", func() (interface{ Render() string }, error) { return eval.MonthsSweep(cfg, *months) }},
		{"faults", func() (interface{ Render() string }, error) { return eval.FaultTolerance(cfg, nil) }},
		{"seeds", func() (interface{ Render() string }, error) {
			scfg := cfg
			scfg.Days = 1
			return eval.SeedSweep(scfg, nil)
		}},
	}
	for _, s := range sweeps {
		if !want(s.id) {
			continue
		}
		err := step(s.id, func() error {
			r, err := s.run()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, r.Render())
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

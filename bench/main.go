// Command bgpbench is the repository's one benchmark: five workloads
// through the public entry points (the batch facade, the query daemon
// over loopback HTTP, the live ingestor), each measured end to end with
// tracing off and then once more with the benchmark's own spans around
// every layer. See README.md for the metrics and how to read them.
//
//	bash bench/run.sh --workload batch-rib --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -seed 1                  # all workloads, both passes
//	bash bench/run.sh -compare a.json b.json   # two runs against the bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runBudget turns a hang into a failed run: no single pass may take
// longer, set-up and teardown included.
const runBudget = 170 * time.Second

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print its result as the last line; empty runs all five, both passes")
		seed         = flag.Int64("seed", 1, "seed of the synthetic Internet and of every request mix")
		seconds      = flag.Float64("seconds", 10, "length of the measured window")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		out          = flag.String("out", filepath.Join("bench", "out"), "directory for trace files, reports and scratch data")
		compare      = flag.Bool("compare", false, "compare two reports (arguments: a.json b.json) against the bounds in BENCHMARK.json")
		spec         = flag.String("spec", "BENCHMARK.json", "benchmark contract read by -compare")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareReports(os.Stdout, *spec, flag.Args())
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	case *seconds <= 0:
		err = errors.New("-seconds must be positive")
	default:
		window := time.Duration(*seconds * float64(time.Second))
		err = run(*workloadName, *seed, window, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bgpbench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned when every pass completed but some
// operation failed or some output was wrong.
var errIncorrect = errors.New("failed operations or incorrect outputs (see the result)")

func run(only string, seed int64, window time.Duration, traced bool, out string) error {
	h := hostFacts()
	fmt.Printf("host: %s, %d CPUs, GOMAXPROCS %d, %s\n", h.CPUModel, h.NumCPU, h.GoMaxProcs, h.GoVersion)
	newEnv := func() *env {
		return &env{seed: seed, seconds: window, sc: fullScale(), out: out,
			dir: filepath.Join(out, fmt.Sprintf("work-%d", os.Getpid()))}
	}
	pass := func(wl workload, traced bool) (*outcome, error) {
		ctx, cancel := context.WithTimeout(context.Background(), runBudget)
		defer cancel()
		o, err := runWorkload(ctx, wl, newEnv(), traced)
		if err != nil && ctx.Err() != nil {
			err = fmt.Errorf("%w (run budget of %v exhausted)", err, runBudget)
		}
		return o, err
	}

	if only != "" {
		for _, wl := range workloads() {
			if wl.name() != only {
				continue
			}
			o, err := pass(wl, traced)
			if err != nil {
				return err
			}
			printOutcome(wl.name(), traced, o)
			if err := printResultLine(o); err != nil {
				return err
			}
			if o.failed > 0 {
				return errIncorrect
			}
			return nil
		}
		return fmt.Errorf("unknown workload %q", only)
	}

	rep := report{Host: h, Seed: seed, Seconds: window.Seconds(), Workloads: map[string]workloadReport{}}
	incorrect := false
	for _, wl := range workloads() {
		untraced, err := pass(wl, false)
		if err != nil {
			return err
		}
		printOutcome(wl.name(), false, untraced)
		layers, err := pass(wl, true)
		if err != nil {
			return err
		}
		printOutcome(wl.name(), true, layers)
		incorrect = incorrect || untraced.failed+layers.failed > 0
		rep.Workloads[wl.name()] = workloadReport{
			Attempted: untraced.attempted + layers.attempted,
			Failed:    untraced.failed + layers.failed,
			EndToEnd:  untraced.metrics,
			Named:     untraced.named,
			PerLayer:  layers.metrics,
		}
	}
	path := filepath.Join(out, fmt.Sprintf("bench-seed%d.json", seed))
	if err := rep.write(path); err != nil {
		return err
	}
	fmt.Println("report:", path)
	if incorrect {
		return errIncorrect
	}
	return nil
}

// printOutcome prints every metric of a pass by name, with its unit.
func printOutcome(name string, traced bool, o *outcome) {
	kind := "end-to-end (tracing off)"
	if traced {
		kind = "per-layer (traced pass)"
	}
	fmt.Printf("== %s: %s; %d operations attempted, %d failed\n", name, kind, o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Println("   FAILED:", p)
	}
	show := func(m metrics) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("   %-42s %16.6g %s\n", n, m[n].Value, m[n].Unit)
		}
	}
	show(o.metrics)
	if len(o.named) > 0 {
		fmt.Println("   -- as this workload's users name them:")
		o.named.set("failed_share", float64(o.failed)/float64(max(o.attempted, 1)), "ratio")
		show(o.named)
	}
}

// printResultLine prints the one-object result the driver reads.
func printResultLine(o *outcome) error {
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{o.failed == 0, max(o.attempted, 1), o.failed, o.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// host describes the machine the numbers were taken on.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func hostFacts() host {
	h := host{CPUModel: "unknown CPU", NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// report is what a run of all workloads leaves behind for -compare.
type report struct {
	Host      host                      `json:"host"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadReport `json:"workloads"`
}

type workloadReport struct {
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	EndToEnd  metrics `json:"end_to_end"`
	Named     metrics `json:"named"`
	PerLayer  metrics `json:"per_layer"`
}

func (r *report) write(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

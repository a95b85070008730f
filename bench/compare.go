package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// contract is the part of BENCHMARK.json the benchmark itself reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// worsening is by what share of a's value b is worse, given which
// direction is better; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports prints, for every workload and end-to-end metric two
// reports share, how much worse the second reads than the first beside
// the bound BENCHMARK.json allows, and fails when any is outside it.
func compareReports(w io.Writer, specPath string, args []string) error {
	if len(args) != 2 {
		return errors.New("-compare takes two report files: a.json b.json")
	}
	spec, err := readContract(specPath)
	if err != nil {
		return err
	}
	a, err := readReport(args[0])
	if err != nil {
		return err
	}
	b, err := readReport(args[1])
	if err != nil {
		return err
	}
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		if _, ok := b.Workloads[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return errors.New("the reports share no workload")
	}
	fmt.Fprintf(w, "%-15s %-22s %14s %14s %9s %7s\n", "workload", "metric", args[0], args[1], "worse by", "bound")
	outside := 0
	for _, n := range names {
		wa, wb := a.Workloads[n], b.Workloads[n]
		for _, m := range spec.EndToEnd {
			va, oka := wa.EndToEnd[m.Name]
			vb, okb := wb.EndToEnd[m.Name]
			if !oka || !okb {
				return fmt.Errorf("%s: metric %s missing from a report", n, m.Name)
			}
			worse := worsening(va.Value, vb.Value, m.Better)
			flag := ""
			if worse > m.Bound {
				flag = "  OUTSIDE"
				outside++
			}
			fmt.Fprintf(w, "%-15s %-22s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", n, m.Name, va.Value, vb.Value, worse*100, m.Bound*100, flag)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(w, "%-15s failed operations: %d and %d  OUTSIDE\n", n, wa.Failed, wb.Failed)
			outside++
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d comparisons outside their bound", outside)
	}
	return nil
}

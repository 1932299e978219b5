package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// declaration is the part of BENCHMARK.json the benchmark reads back.
type declaration struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclaration(path string) (declaration, error) {
	var d declaration
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// worseBy is how much worse b is than a, as a share of a, for a metric whose
// better direction is given; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAgree runs the workloads twice back to back and compares the second set
// of end-to-end metrics with the first against the bounds in BENCHMARK.json.
// It exits non-zero when any metric differs by more than its bound in either
// direction — two runs of the same code that disagree by more than the bound
// disagree, whichever came out ahead — or any op failed. The reference
// kernel's drift is printed alongside: a large drift means the machine was
// disturbed, not that the metric is unstable.
func runAgree(o options, todo []spec, stdout, stderr io.Writer) int {
	decl, err := readDeclaration(o.benchJSON)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	o.trace = 0
	code := 0
	for _, s := range todo {
		var sets [2]resultLine
		var calib [2]float64
		for r := range sets {
			fmt.Fprintf(stdout, "--- %s, set %d\n", s.name, r+1)
			before := calibrate()
			line, err := runOne(o, s, stdout)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			calib[r] = slowdown([]reading{before, calibrate()})
			sets[r] = line
			if !line.Correct {
				code = 1
			}
		}
		fmt.Fprintf(stdout, "--- %s, agreement (second set against first)\n", s.name)
		fmt.Fprintf(stdout, "  %-16s %14s %14s %9s %7s\n", "metric", "set 1", "set 2", "worse by", "bound")
		for _, e := range decl.EndToEnd {
			a, b := sets[0].Metrics[e.Name].Value, sets[1].Metrics[e.Name].Value
			worse := worseBy(a, b, e.Better)
			verdict := ""
			if math.Abs(worse) > e.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "  %-16s %14.4f %14.4f %8.2f%% %6.1f%%%s\n", e.Name, a, b, 100*worse, 100*e.Bound, verdict)
		}
		fmt.Fprintf(stdout, "  %-16s %14.2f %14.2f %8.2f%%   (reference kernel around each set, over nominal)\n",
			"bench.slowdown", calib[0], calib[1], 100*worseBy(calib[0], calib[1], "lower"))
	}
	return code
}

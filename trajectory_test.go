package aujoin

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// trajectoryMetrics are the end-to-end metrics that repeat to 0.1 % from run
// to run, so one committed point per PR is enough to compare: lower is better
// for both. The timing metrics spread 12–45 % between runs of one commit and
// stay with the ten-pair protocol (CHANGES.md).
var trajectoryMetrics = []string{"index_heap_mb", "allocs_per_op"}

// benchPoint is one committed BENCH_*.json: a PR's untraced seed-7 run of
// every workload.
type benchPoint struct {
	file    string
	PR      int `json:"pr"`
	Results map[string]struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"results"`
}

// trajectoryRegressions compares every point with its predecessor and
// reports each (workload, metric) that got worse by more than the metric's
// bound.
func trajectoryRegressions(points []benchPoint, bounds map[string]float64) []string {
	var out []string
	for i := 1; i < len(points); i++ {
		prev, cur := points[i-1], points[i]
		for workload, res := range cur.Results {
			for _, m := range trajectoryMetrics {
				was, now := prev.Results[workload].Metrics[m].Value, res.Metrics[m].Value
				if was > 0 && now > was*(1+bounds[m]) {
					out = append(out, fmt.Sprintf("%s %s: %.6g in %s (PR %d) → %.6g in %s (PR %d), worse by more than %.0f %%",
						workload, m, was, prev.file, prev.PR, now, cur.file, cur.PR, 100*bounds[m]))
				}
			}
		}
	}
	return out
}

// TestBenchTrajectory reads the committed per-PR benchmark points in PR order
// and BENCHMARK.json's bounds, and fails when a point's index heap or
// allocations per operation on any workload is worse than its predecessor's
// by more than the bound.
func TestBenchTrajectory(t *testing.T) {
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	bounds := map[string]float64{}
	for _, m := range decl.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, m := range trajectoryMetrics {
		if bounds[m] <= 0 {
			t.Fatalf("BENCHMARK.json declares no bound for %s", m)
		}
	}

	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	var points []benchPoint
	for _, f := range files {
		p := benchPoint{file: f}
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if p.PR == 0 || len(p.Results) == 0 {
			t.Fatalf("%s: no pr number or no results", f)
		}
		points = append(points, p)
	}
	sort.Slice(points, func(a, b int) bool { return points[a].PR < points[b].PR })
	if len(points) < 2 {
		t.Fatalf("%d committed points, want a trajectory", len(points))
	}
	for _, msg := range trajectoryRegressions(points, bounds) {
		t.Error(msg)
	}

	// The comparison bites: a copy of the last point with one allocs_per_op
	// raised 6 % is reported, once.
	last := points[len(points)-1]
	doctored := benchPoint{file: "doctored copy of " + last.file}
	if raw, err = os.ReadFile(last.file); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doctored); err != nil {
		t.Fatal(err)
	}
	doctored.PR++
	for _, res := range doctored.Results {
		m := res.Metrics["allocs_per_op"]
		m.Value *= 1.06
		res.Metrics["allocs_per_op"] = m
		break
	}
	if got := trajectoryRegressions([]benchPoint{last, doctored}, bounds); len(got) != 1 {
		t.Errorf("a point with one allocs_per_op raised 6 %% is reported %d times, want once: %v", len(got), got)
	}
}

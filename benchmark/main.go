// Command benchmark is the repository's one benchmark: four workloads that
// drive the engine through what users already have (the HTTP data plane, the
// public aujoin API) and report five end-to-end metrics, plus a traced run
// that attributes an op's time to the layers it crosses. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type options struct {
	workloads string
	seed      int64
	seconds   float64
	trace     int
	agree     bool
	outDir    string
	benchJSON string
	// The smoke tests shrink a run; the command line does not.
	passes int     // > 0 fixes the number of timed passes
	scale  float64 // share of the workload's size
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	o := options{scale: 1}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workloads, "workload", "all", "workload name, a comma-separated list, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the corpus and the op list")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed passes measure: the number of passes is this over the nominal pass time, at least 2")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics, spans and the self-time table")
	fs.BoolVar(&o.agree, "agree", false, "run the workloads twice and compare the two sets against the bounds in BENCHMARK.json")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory for traces and the durable workload's data")
	fs.StringVar(&o.benchJSON, "bench-json", "BENCHMARK.json", "declaration file -agree reads the bounds from")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		return o, fmt.Errorf("flag value out of range")
	}
	return o, nil
}

func (o options) specs() ([]spec, error) {
	if o.workloads == "all" {
		return specs, nil
	}
	var out []spec
	for _, name := range strings.Split(o.workloads, ",") {
		s, err := findSpec(name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (o options) config(s spec, w io.Writer) runConfig {
	return runConfig{spec: s.scaled(o.scale), seed: o.seed, seconds: o.seconds,
		passes: o.passes, outDir: o.outDir, out: w,
		loadSeconds: max(openLoopSeconds*o.scale, 1)}
}

// runOne runs one workload, prints its metrics by name and returns the
// result line.
func runOne(o options, s spec, w io.Writer) (resultLine, error) {
	runtime.GOMAXPROCS(procs)
	cfg := o.config(s, w)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return resultLine{}, err
	}
	run, decls := runUntraced, endToEndMetrics
	if o.trace == 1 {
		run, decls = runTraced, perLayerMetrics
	}
	out, err := run(cfg)
	if err != nil {
		return resultLine{}, fmt.Errorf("%s: %w", s.name, err)
	}
	for _, d := range decls {
		m := out.metrics[d.name]
		fmt.Fprintf(w, "%-32s %14.4f %s\n", d.name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-32s %14.6f 1 (%d failed of %d attempted)\n", "fail_ratio",
		float64(out.failed)/float64(max(out.attempted, 1)), out.failed, out.attempted)
	return resultLine{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}, nil
}

func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	todo, err := o.specs()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if o.agree {
		return runAgree(o, todo, stdout, stderr)
	}
	code := 0
	for _, s := range todo {
		line, err := runOne(o, s, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !line.Correct {
			code = 1
		}
		enc, _ := json.Marshal(line)
		fmt.Fprintf(stdout, "%s\n", enc)
	}
	return code
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

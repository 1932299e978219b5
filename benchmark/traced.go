package main

import (
	"fmt"
	"github.com/aujoin/aujoin/internal/metrics"
)

// withKind is the workload's corpus and parameters served by another engine
// shape, for the hops the workload's own engine does not have.
func (s spec) withKind(k kind) spec {
	s.kind = k
	return s
}

// runTraced is the traced run: one plain and one traced pass over the op
// list (a lookup workload's first third: the run has a time limit and reports
// no tail), the same queries replayed in-process through the layers' public
// functions, every layer measured on the workload's inputs, an open-loop
// phase and the network hops. It reports the per-layer metrics, writes the
// spans and prints where an op's time goes.
func runTraced(cfg runConfig) (outcome, error) {
	s, w := cfg.spec, cfg.out
	if s.inserts == 0 && s.kind != kindJoin {
		s.queries = max(s.queries/3, 1)
		cfg.spec = s
	}
	c, t, ops, warm, _, err := setUp(cfg)
	if err != nil {
		return outcome{}, err
	}
	defer t.close()
	var log []mutation
	tr := newTracer()
	// A join's plain pass is its warm-up join: a third join would buy a
	// diagnostic ratio with a fifth of the run's time limit.
	passes := []passResult{warm}
	if s.kind != kindJoin {
		passes = append(passes, runPass(t, s, c, ops, nil, &log))
	}
	if s.kind == kindChurn {
		if err := t.checkpoint(); err != nil { // as before the last pass of an untraced run
			return outcome{}, err
		}
	}
	passes = append(passes, runPass(t, s, c, ops, tr, &log))
	out := outcome{metrics: metricSet{}}
	var calib []reading
	for i, p := range passes {
		out.attempted += len(ops)
		out.failed += len(p.errs)
		for _, e := range p.errs {
			fmt.Fprintf(w, "FAILED pass %d %v\n", i, e)
		}
		calib = append(calib, p.calib...)
	}
	m := out.metrics
	put := func(name string, v float64) { m.put(perLayerMetrics, name, v) }
	totals := make([]float64, len(calib))
	for i, r := range calib {
		totals[i] = r.total()
	}
	put("bench.calib_ms", metrics.Percentile(totals, 50))
	put("bench.machine_slowdown", slowdown(calib))
	plain, traced := passes[len(passes)-2], passes[len(passes)-1]
	// The tail is not gated (README, "End-to-end metrics"): it is reported
	// here, at reference speed like op_ms, over the passes without spans.
	untraced := make([][]float64, len(passes)-1)
	for i := range untraced {
		untraced[i] = passes[i].atReference()
	}
	put("bench.op_p95_ms", metrics.Percentile(minAcross(untraced), tailPercentile(len(ops))))
	overhead := make([]float64, len(ops))
	for i := range ops {
		overhead[i] = ratio(float64(traced.lat[i]), float64(plain.lat[i]))
	}
	put("bench.trace_overhead_ratio", metrics.Percentile(overhead, 50))

	var queries []string
	for _, o := range ops {
		if o.kind == opQuery {
			queries = append(queries, o.text)
		}
	}
	if len(queries) == 0 {
		queries = c.pool // a join's probe side
	}
	ref, err := layers(cfg, c, queries, tr, m)
	if err != nil {
		return outcome{}, err
	}

	// BENCHMARK.json's contract has every traced run report every per-layer
	// metric, so a workload whose engine is not a node, or not a cluster,
	// boots that shape over its own catalog for the hop metrics.
	node, cl := t, t
	if s.kind != kindNode && s.kind != kindChurn {
		if node, err = boot(s.withKind(kindNode), c, cfg.outDir); err != nil {
			return outcome{}, err
		}
		defer node.close()
	}
	if s.kind != kindCluster {
		small := *c
		small.catalog = c.catalog[:min(len(c.catalog), clusterRecords)]
		if cl, err = boot(s.withKind(kindCluster), &small, cfg.outDir); err != nil {
			return outcome{}, err
		}
		defer cl.close()
	}
	// The open-loop phase comes before the hops, whose inserts and epoch
	// bump change the cluster.
	serving := node
	if s.kind == kindCluster {
		serving = cl
	}
	load := openLoop(serving, queries, s.loadRPS, cfg.loadSeconds, cfg.seed)
	out.attempted += load.sent
	out.failed += load.failed
	put("bench.load_offered_rps", load.offeredRPS)
	put("bench.load_p50_ms", load.p50Ms)
	put("bench.load_p95_ms", load.p95Ms)
	put("bench.load_late_ms_max", load.lateMsMax)
	if err := hops(c, ref, node, cl, queries, m); err != nil {
		return outcome{}, err
	}

	path, err := tr.writeTrace(cfg.outDir, s.name)
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(w, "%d spans written to %s\n", len(tr.spans), path)
	printSelfTable(w, "where a served op's time goes (traced pass, client side; share of the request spans):", rankSelf(tr.spans, "request"))
	printSelfTable(w, "where a replayed query's time goes (in-process, layer by layer; share of the replay spans):", rankSelf(tr.spans, "replay"))

	checkedPasses := passes[1:] // the warm-up's writes are not in the log
	if s.kind == kindJoin {
		checkedPasses = passes
	}
	rep, err := verify(cfg, c, t, ops, checkedPasses, log)
	if err != nil {
		return outcome{}, err
	}
	put("join.unreachable_ratio", ratio(float64(rep.unreachable), float64(rep.matches)))
	out.attempted += rep.checked
	out.failed += rep.bad
	return out, nil
}

package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/metrics"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	spec    spec
	seed    int64
	seconds float64 // how long the timed passes measure; see spec.passes
	passes  int     // > 0 fixes the number of timed passes instead (tests)
	outDir  string  // traces and the durable workload's data directory
	// loadSeconds is the length of the traced run's open-loop phase.
	loadSeconds float64
	out         io.Writer
}

// timedPasses is the number of timed passes of an untraced run.
func (cfg runConfig) timedPasses() int {
	if cfg.passes > 0 {
		return cfg.passes
	}
	return max(minPasses, int(math.Round(float64(cfg.spec.passes)*cfg.seconds/runSeconds)))
}

// mutation is one acknowledged write of the churn workload.
type mutation struct {
	ids  []int
	recs []string // nil for a remove
}

// passResult is what one replay of the op list produced.
type passResult struct {
	wall    time.Duration
	lat     []time.Duration
	mallocs uint64
	errs    []error
	// answers holds the decoded answer of every oracleEvery-th query op;
	// inserted the ids every insert op was acknowledged with.
	answers  map[int][]aujoin.QueryMatch
	inserted map[int][]int
	// join workload: the matches of the pass's ops, T counted from the start
	// of the pool.
	matches []aujoin.Match
	// calib holds the reference kernel's readings, one before every stretch
	// of the op list (see fastestPass) and one after the last; slow is the
	// slowdown they add up to.
	calib []reading
	slow  float64
}

// atReference is the pass's latencies in ms at the reference kernel's
// nominal speed.
func (p *passResult) atReference() []float64 {
	out := make([]float64, len(p.lat))
	for i, d := range p.lat {
		out[i] = ms(d) / p.slow
	}
	return out
}

// minPasses is the fewest timed passes a run makes: the per-op minimum
// needs a second opinion.
const minPasses = 2

// oracleEvery is the sampling step of the answer oracle over the op list.
const oracleEvery = 10

// runPass replays the op list once, closed loop, one client, one
// connection. Acknowledged mutations are appended to log.
func runPass(t *target, s spec, c *corpus, ops []op, tr *tracer, log *[]mutation) passResult {
	res := passResult{lat: make([]time.Duration, len(ops)), answers: map[int][]aujoin.QueryMatch{}, inserted: map[int][]int{}}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inserted := res.inserted
	stretches := min(len(ops), passStretches)
	for i := range ops {
		if k := len(res.calib); k < stretches && i == k*len(ops)/stretches {
			res.calib = append(res.calib, calibrate())
		}
		o := &ops[i]
		t0 := time.Now()
		if o.kind == opJoin {
			root := tr.begin(0, i, "request")
			call := tr.begin(root, i, "aujoin.join")
			matches, st := t.joiner.Join(c.catalog, c.pool[o.lo:o.hi], s.joinOptions())
			tr.end(call)
			tr.end(root)
			res.lat[i] = time.Since(t0)
			if tr != nil {
				// The call reports its own stage times; lay them out from its start.
				at := tr.add(call, i, "join.signature+filter", tr.startOf(call), st.FilterTime, map[string]int64{
					"postings": st.FilterPostings, "candidates": int64(st.Candidates)})
				tr.add(call, i, "join.verify", at, st.VerifyTime, map[string]int64{
					"verified": st.VerifiedCandidates, "pruned": st.PrunedByBound,
					"memo_hits": st.MemoHits, "results": int64(st.Results)})
			}
			for _, m := range matches {
				m.T += o.lo
				res.matches = append(res.matches, m)
			}
			continue
		}
		r := t.httpOp(o, inserted[o.ref], tr, i)
		res.lat[i] = time.Since(t0)
		if r.err != nil {
			res.errs = append(res.errs, fmt.Errorf("op %d (%s): %w", i, o.kind, r.err))
			continue
		}
		switch o.kind {
		case opQuery:
			if i%oracleEvery == 0 {
				res.answers[i] = r.matches
			}
		case opInsert:
			inserted[i] = r.ids
			*log = append(*log, mutation{ids: r.ids, recs: o.recs})
		case opRemove:
			*log = append(*log, mutation{ids: inserted[o.ref]})
		}
	}
	res.calib = append(res.calib, calibrate())
	res.slow = slowdown(res.calib)
	for _, d := range res.lat {
		res.wall += d
	}
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	return res
}

// setUp generates the inputs from the seed, boots the engine and replays
// the op list once, untimed for the ops but timed as a whole: everything
// before the first timed op is set-up. seconds is that time at reference
// speed: generation and boot by the kernel's readings around them, the
// warm-up pass by its own.
func setUp(cfg runConfig) (c *corpus, t *target, ops []op, warm passResult, seconds float64, err error) {
	calib := []reading{calibrate()}
	start := time.Now()
	if c, err = generate(cfg.spec, cfg.seed); err != nil {
		return nil, nil, nil, warm, 0, err
	}
	build := time.Since(start)
	calib = append(calib, calibrate())
	start = time.Now()
	if t, err = boot(cfg.spec, c, cfg.outDir); err != nil {
		return nil, nil, nil, warm, 0, err
	}
	ops = buildOps(cfg.spec, c)
	build += time.Since(start)
	calib = append(calib, calibrate())
	var discard []mutation
	warm = runPass(t, cfg.spec, c, ops, nil, &discard)
	return c, t, ops, warm, build.Seconds()/slowdown(calib) + warm.wall.Seconds()/warm.slow, nil
}

// heapMiB is the live heap after two collections.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// outcome is a finished run: the result line's fields.
type outcome struct {
	attempted, failed int
	metrics           metricSet
}

// runUntraced measures the end-to-end metrics of one workload: one set-up,
// then the timed passes over the op list, then the answer oracle.
func runUntraced(cfg runConfig) (outcome, error) {
	s, w := cfg.spec, cfg.out
	fmt.Fprintf(w, "workload %s seed %d: %d records, q=%d θ=%v τ=%d filter=%s shards=%d, GOMAXPROCS=%d\n",
		s.name, cfg.seed, s.records, s.q, s.theta, s.tau, s.filter, s.shards, runtime.GOMAXPROCS(0))
	c, t, ops, warm, setupS, err := setUp(cfg)
	if err != nil {
		return outcome{}, err
	}
	defer t.close()
	heap := heapMiB() - kernel.heapMiB
	out := outcome{metrics: metricSet{}, attempted: len(ops), failed: len(warm.errs)}
	for _, e := range warm.errs {
		fmt.Fprintf(w, "FAILED warm-up %v\n", e)
	}
	fmt.Fprintf(w, "set-up %.3fs at reference speed (warm-up pass %.3fs as measured over %d ops, machine %.2fx slower than nominal); passes as measured",
		setupS, warm.wall.Seconds(), len(ops), warm.slow)
	var (
		passes  []passResult
		log     []mutation // acknowledged writes of the timed passes
		mallocs uint64
	)
	for n := 0; n < cfg.timedPasses(); n++ {
		// The durable workload checkpoints before its last pass, so that
		// reopening the data directory restores a snapshot and replays the log
		// of one pass, not of the whole run.
		if s.kind == kindChurn && n == cfg.timedPasses()-1 {
			if err := t.checkpoint(); err != nil {
				return outcome{}, err
			}
		}
		p := runPass(t, s, c, ops, nil, &log)
		passes = append(passes, p)
		mallocs += p.mallocs
		out.attempted += len(ops)
		out.failed += len(p.errs)
		for _, e := range p.errs {
			fmt.Fprintf(w, "\nFAILED pass %d %v", n, e)
		}
		fmt.Fprintf(w, " %.3fs (%.2fx)", p.wall.Seconds(), p.slow)
	}
	fmt.Fprintln(w)

	lats := make([][]float64, len(passes))
	for i := range passes {
		lats[i] = passes[i].atReference()
	}
	best := minAcross(lats)
	work := float64(len(ops))
	if s.kind == kindJoin {
		work = float64(len(c.pool)) // probe-side records joined per second
	}
	m := out.metrics
	m.put(endToEndMetrics, "setup_s", setupS)
	m.put(endToEndMetrics, "op_ms", metrics.Percentile(best, 50))
	m.put(endToEndMetrics, "ops_per_s", work/(fastestPass(lats)/1e3))
	m.put(endToEndMetrics, "index_heap_mb", heap)
	m.put(endToEndMetrics, "allocs_per_op", float64(mallocs)/float64(len(passes)*len(ops)))
	fmt.Fprintf(w, "op_ms is the median over %d ops of the per-op minimum across %d passes\n", len(best), len(passes))

	start := time.Now()
	rep, err := verify(cfg, c, t, ops, passes, log)
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(w, "oracle took %.1fs\n", time.Since(start).Seconds())
	out.attempted += rep.checked
	out.failed += rep.bad
	return out, nil
}

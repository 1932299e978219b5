package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/metrics"
	"github.com/aujoin/aujoin/internal/pebble"
)

// serveConfig parameterises the concurrent load-generator mode: a dynamic
// index over a MED-like catalog is hammered with top-k queries from several
// workers while a mutator thread inserts and removes records, exercising
// snapshot serving, the dynamic intern region and threshold rebuilds under
// realistic contention.
type serveConfig struct {
	CatalogSize int
	Theta       float64
	Tau         int
	Duration    time.Duration
	Workers     int
	TopK        int
	// Shards partitions the index (1 = one shard,
	// 0 = GOMAXPROCS); mutation batches parallelize across shards and
	// rebuild stalls are bounded by shard size.
	Shards int
	// MutateEvery is the pause between mutation batches; each batch
	// inserts a handful of records and removes one.
	MutateEvery time.Duration
	// QueryTimeout is the per-query deadline (0 = none): each top-k query
	// runs under a context.WithTimeout, exercising the cancellation path a
	// serving deployment relies on and bounding tail latency at the cost of
	// dropped answers (counted in the result).
	QueryTimeout time.Duration
	// MixedQueries switches the workload to a bimodal short/long mix: the
	// bulk of the stream is hot-token lookups — three tokens drawn from one
	// or two of the catalog's most frequent tokens, so posting density and
	// multiplicity weighting swing the per-configuration candidate count
	// (and so the latency) hardest — and 1 in 32 queries is a full-record
	// near-duplicate probe, whose candidate set is its whole duplicate
	// family at any configuration. This is the heterogeneous stream
	// adaptive planning exists for; latency percentiles are then also
	// reported per length bucket.
	MixedQueries bool
	// PlanMode runs every query under the given planning mode: "auto" (the
	// default), "fixed" (pin the build-time filter/τ, the pre-planner
	// behaviour), or a pinned probe-side configuration like "ufilter/t1",
	// "auheur/t2" or "audp/t3" — one point of the planner's search space,
	// run against the same build. Sweeping the pinned configurations is the
	// A/B for the planner's latency win: auto must tie the best of them and
	// beat the worst.
	PlanMode string
	Seed     int64
}

// serveResult aggregates what the load generator observed.
type serveResult struct {
	cfg       serveConfig
	queries   int64
	timeouts  int64 // queries abandoned at their per-query deadline
	elapsed   time.Duration
	latencies []float64 // milliseconds, sampled
	// latShort and latLong split the sampled latencies by query-length
	// bucket under -mixed-queries (both nil otherwise).
	latShort []float64
	latLong  []float64
	inserted int64
	removed  int64
	pauses   []float64 // per-rebuild writer stalls, milliseconds
	stats    join.DynamicStats
}

func (r serveResult) String() string {
	var b strings.Builder
	qps := float64(r.queries) / r.elapsed.Seconds()
	fmt.Fprintf(&b, "catalog=%d θ=%v τ=%d workers=%d shards=%d duration=%v\n",
		r.cfg.CatalogSize, r.cfg.Theta, r.cfg.Tau, r.cfg.Workers, r.stats.Shards, r.elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "queries=%d (%.0f qps) inserted=%d removed=%d\n", r.queries, qps, r.inserted, r.removed)
	if r.cfg.QueryTimeout > 0 {
		fmt.Fprintf(&b, "query timeout %v: %d queries cancelled at deadline\n", r.cfg.QueryTimeout, r.timeouts)
	}
	if r.cfg.MixedQueries || r.cfg.PlanMode != "" {
		plan := r.cfg.PlanMode
		if plan == "" {
			plan = "auto"
		}
		fmt.Fprintf(&b, "workload: mixed-queries=%v plan=%s plans=%d fallbacks=%d suggested-τ=%d decisions=%v\n",
			r.cfg.MixedQueries, plan, r.stats.Plans, r.stats.PlanFallbacks, r.stats.SuggestedTau, r.stats.PlanDecisions)
	}
	if len(r.latencies) > 0 {
		ps := metrics.Percentiles(r.latencies, 50, 95, 99)
		fmt.Fprintf(&b, "latency ms: p50=%.3f p95=%.3f p99=%.3f\n", ps[0], ps[1], ps[2])
	}
	for _, bucket := range []struct {
		name string
		lat  []float64
	}{{"short", r.latShort}, {"long", r.latLong}} {
		if len(bucket.lat) > 0 {
			ps := metrics.Percentiles(bucket.lat, 50, 95, 99)
			fmt.Fprintf(&b, "latency ms (%s): n=%d p50=%.3f p95=%.3f p99=%.3f\n",
				bucket.name, len(bucket.lat), ps[0], ps[1], ps[2])
		}
	}
	if len(r.pauses) > 0 {
		ps := metrics.Percentiles(r.pauses, 50, 95, 99, 100)
		fmt.Fprintf(&b, "rebuild pause ms: n=%d p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
			len(r.pauses), ps[0], ps[1], ps[2], ps[3])
	}
	st := r.stats
	fmt.Fprintf(&b, "index: records=%d live=%d dead=%d segments=%d frozen-keys=%d dynamic-keys=%d rebuilds=%d cache-hits=%d cache-misses=%d\n",
		st.Records, st.Live, st.Dead, st.Segments, st.FrozenKeys, st.DynamicKeys, st.Rebuilds, st.CacheHits, st.CacheMisses)
	return b.String()
}

// parseServePlan resolves a -serve-plan value into the per-query options it
// stands for: "auto"/"" (adaptive planning), "fixed" (build-time config), or
// a pinned probe-side configuration "ufilter/t1" | "auheur/tN" | "audp/tN".
func parseServePlan(s string) (join.QueryOpts, error) {
	var qo join.QueryOpts
	switch s {
	case "", "auto":
		return qo, nil
	case "fixed":
		qo.Plan = join.PlanFixed
		return qo, nil
	}
	method, tauStr, ok := strings.Cut(s, "/t")
	if ok {
		switch method {
		case "ufilter":
			qo.ProbeMethod = pebble.UFilter
		case "auheur":
			qo.ProbeMethod = pebble.AUHeuristic
		case "audp":
			qo.ProbeMethod = pebble.AUDP
		default:
			ok = false
		}
	}
	tau := 0
	if ok {
		if _, err := fmt.Sscanf(tauStr, "%d", &tau); err != nil || tau < 1 {
			ok = false
		}
	}
	if !ok {
		return qo, fmt.Errorf("invalid -serve-plan %q (want auto, fixed, or e.g. ufilter/t1, auheur/t2, audp/t3)", s)
	}
	qo.ProbeTau = tau
	return qo, nil
}

// runServe builds the catalog and drives the concurrent serve/mutate load.
func runServe(cfg serveConfig) serveResult {
	gen := datagen.New(datagen.MEDLike(cfg.CatalogSize, cfg.Seed))
	ds := gen.Generate()
	j := join.NewJoiner(ds.Context())
	dx := j.BuildShardedIndex(ds.S, cfg.Shards,
		join.Options{Theta: cfg.Theta, Tau: cfg.Tau, Method: pebble.AUDP}, join.DynamicOptions{})

	queryPool := ds.T
	insertPool := make([]string, len(ds.T))
	for i, rec := range ds.T {
		insertPool[i] = rec.Raw
	}

	qo, _ := parseServePlan(cfg.PlanMode) // main validated the flag already

	// Head tokens for the mixed workload's short bucket: the most frequent
	// catalog tokens, whose posting lists are the dense ones a poorly chosen
	// τ over-admits on.
	var headToks []string
	if cfg.MixedQueries {
		freq := map[string]int{}
		for _, rec := range ds.S {
			for _, tok := range rec.Tokens {
				freq[tok]++
			}
		}
		headToks = make([]string, 0, len(freq))
		for tok := range freq {
			headToks = append(headToks, tok)
		}
		sort.Slice(headToks, func(a, b int) bool { return freq[headToks[a]] > freq[headToks[b]] })
		if len(headToks) > 8 {
			headToks = headToks[:8]
		}
	}

	var queries, timeouts, inserted, removed int64
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()

	// Readers: each worker keeps its own sampled latency slices. Every query
	// runs through the context-aware serving path; with a per-query timeout
	// configured, a deadline cancels the fan-out mid-verification exactly as
	// a disconnecting client would in aujoind.
	latAll := make([][]float64, cfg.Workers)
	latShortAll := make([][]float64, cfg.Workers)
	latLongAll := make([][]float64, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w) + 1))
			var lat, latShort, latLong []float64
			for i := 0; time.Now().Before(deadline); i++ {
				tokens := queryPool[rng.Intn(len(queryPool))].Tokens
				long := false
				if cfg.MixedQueries {
					// Bimodal workload: the bulk of the stream is hot-token
					// lookups (one or two head tokens, length three, so
					// multiplicity weighting matters), where the candidate
					// count — and so the query cost — swings hardest with the
					// probe-side configuration; 1 in 32 queries is the full
					// record, whose near-duplicate family dominates the
					// candidate set at any configuration.
					if rng.Intn(32) != 0 {
						a := headToks[rng.Intn(len(headToks))]
						b := headToks[rng.Intn(len(headToks))]
						switch rng.Intn(3) {
						case 0:
							tokens = []string{a, a, a}
						case 1:
							tokens = []string{a, a, b}
						default:
							tokens = []string{a, b, b}
						}
					} else {
						long = true
					}
				}
				t0 := time.Now()
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if cfg.QueryTimeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, cfg.QueryTimeout)
				}
				_, err := dx.Snapshot().QueryTopKCtx(ctx, tokens, cfg.TopK, qo)
				cancel()
				d := time.Since(t0)
				atomic.AddInt64(&queries, 1)
				if err != nil {
					atomic.AddInt64(&timeouts, 1)
				}
				if i%8 == 0 { // sample 1-in-8 to bound memory
					ms := float64(d.Microseconds()) / 1000
					lat = append(lat, ms)
					if cfg.MixedQueries {
						if long {
							latLong = append(latLong, ms)
						} else {
							latShort = append(latShort, ms)
						}
					}
				}
			}
			latAll[w] = lat
			latShortAll[w] = latShort
			latLongAll[w] = latLong
		}(w)
	}

	// Mutator: periodic insert batches and removals of previously inserted
	// records, so the catalog churns without draining.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(cfg.Seed + 9999))
		var liveInserted []int
		for time.Now().Before(deadline) {
			batch := make([]string, 1+rng.Intn(4))
			for i := range batch {
				batch[i] = insertPool[rng.Intn(len(insertPool))]
			}
			ids := dx.InsertBatch(batch)
			atomic.AddInt64(&inserted, int64(len(ids)))
			liveInserted = append(liveInserted, ids...)
			if len(liveInserted) > 8 {
				k := rng.Intn(len(liveInserted))
				if dx.Remove(liveInserted[k]) {
					atomic.AddInt64(&removed, 1)
				}
				liveInserted = append(liveInserted[:k], liveInserted[k+1:]...)
			}
			// Never sleep past the deadline: a large -serve-mutate-every
			// (used to quiesce mutation for clean A/B runs) must not hold
			// the whole run hostage.
			pause := cfg.MutateEvery
			if rem := time.Until(deadline); rem < pause {
				pause = rem
			}
			if pause > 0 {
				time.Sleep(pause)
			}
		}
	}()
	wg.Wait()

	flatten := func(parts [][]float64) []float64 {
		var out []float64
		for _, l := range parts {
			out = append(out, l...)
		}
		return out
	}
	var pauses []float64
	for _, p := range dx.RebuildPauses() {
		pauses = append(pauses, float64(p.Microseconds())/1000)
	}
	return serveResult{
		cfg:       cfg,
		queries:   queries,
		timeouts:  timeouts,
		elapsed:   time.Since(start),
		latencies: flatten(latAll),
		latShort:  flatten(latShortAll),
		latLong:   flatten(latLongAll),
		inserted:  inserted,
		removed:   removed,
		pauses:    pauses,
		stats:     dx.Stats(),
	}
}

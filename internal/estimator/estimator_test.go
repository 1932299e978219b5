package estimator

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

func testContext() *sim.Context {
	rules := synonym.NewRuleSet()
	rules.MustAdd("coffee shop", "cafe", 1)
	rules.MustAdd("cake", "gateau", 1)
	tax := taxonomy.NewTree("root")
	drinks := tax.MustAddChild(tax.Root(), "drinks")
	tax.MustAddChild(drinks, "espresso")
	tax.MustAddChild(drinks, "latte")
	return sim.NewContext(rules, tax)
}

// testCorpus builds a small synthetic corpus with repeated near-duplicates.
func testCorpus(n int, seed int64) []strutil.Record {
	rng := rand.New(rand.NewSource(seed))
	base := []string{
		"coffee shop latte helsinki",
		"espresso cafe helsinki",
		"apple cake bakery town",
		"cake gateau corner shop",
		"latte art championship",
		"database systems lecture",
	}
	var raws []string
	for i := 0; i < n; i++ {
		s := base[rng.Intn(len(base))]
		if rng.Float64() < 0.3 {
			s += " extra"
		}
		raws = append(raws, s)
	}
	return strutil.NewCollection(raws)
}

func TestOnlineStatsAgainstDirectFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(50)
		var xs []float64
		var o OnlineStats
		for i := 0; i < n; i++ {
			x := rng.NormFloat64()*10 + 5
			xs = append(xs, x)
			o.Add(x)
		}
		// Direct mean and sample variance.
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		vari := 0.0
		for _, x := range xs {
			vari += (x - mean) * (x - mean)
		}
		vari /= float64(n - 1)
		if math.Abs(o.Mean()-mean) > 1e-9 {
			t.Fatalf("trial %d: Mean = %v, want %v", trial, o.Mean(), mean)
		}
		if math.Abs(o.Variance()-vari) > 1e-6*(1+vari) {
			t.Fatalf("trial %d: Variance = %v, want %v", trial, o.Variance(), vari)
		}
		if o.N() != n {
			t.Fatalf("N = %d, want %d", o.N(), n)
		}
	}
}

func TestOnlineStatsEdgeCases(t *testing.T) {
	var o OnlineStats
	if o.Mean() != 0 || o.Variance() != 0 {
		t.Error("zero-value stats should be all zero")
	}
	o.Add(3)
	if o.Mean() != 3 || o.Variance() != 0 {
		t.Errorf("single observation stats = %v/%v", o.Mean(), o.Variance())
	}
	o.Add(5)
	if o.Mean() != 4 || o.Variance() != 2 {
		t.Errorf("two observations stats = %v/%v, want 4/2", o.Mean(), o.Variance())
	}
}

func TestBernoulliEstimatorUnbiasedness(t *testing.T) {
	// The scaled estimator T'/(ps·pt) must be unbiased: averaging many
	// sample estimates approaches the full-data value.
	ctx := testContext()
	j := join.NewJoiner(ctx)
	s := testCorpus(60, 1)
	u := testCorpus(60, 2)
	opts := join.Options{Theta: 0.8, Tau: 2, Method: pebble.AUHeuristic}
	fullT, fullV := j.NewFilterProfile(s, u, opts).Stats(opts.Tau)

	rng := rand.New(rand.NewSource(77))
	p := 0.4
	var statsT, statsV OnlineStats
	for iter := 0; iter < 300; iter++ {
		ss := bernoulliSample(s, p, rng)
		uu := bernoulliSample(u, p, rng)
		var pt int64
		var pv int
		if len(ss) > 0 && len(uu) > 0 {
			pt, pv = j.NewFilterProfile(ss, uu, opts).Stats(opts.Tau)
		}
		statsT.Add(float64(pt) / (p * p))
		statsV.Add(float64(pv) / (p * p))
	}
	if fullT > 0 {
		rel := math.Abs(statsT.Mean()-float64(fullT)) / float64(fullT)
		if rel > 0.35 {
			t.Errorf("T estimator off by %.0f%% (est %.1f vs true %d)", rel*100, statsT.Mean(), fullT)
		}
	}
	if fullV > 0 {
		rel := math.Abs(statsV.Mean()-float64(fullV)) / float64(fullV)
		if rel > 0.35 {
			t.Errorf("V estimator off by %.0f%% (est %.1f vs true %d)", rel*100, statsV.Mean(), fullV)
		}
	}
}

func TestSuggestReturnsTauFromUniverse(t *testing.T) {
	ctx := testContext()
	j := join.NewJoiner(ctx)
	s := testCorpus(80, 3)
	u := testCorpus(80, 4)
	cfg := Config{
		Universe:      []int{1, 2, 3, 4},
		SampleProbS:   0.3,
		SampleProbT:   0.3,
		BurnIn:        3,
		MaxIterations: 20,
		Seed:          42,
	}
	rec := Suggest(j, s, u, join.Options{Theta: 0.8, Method: pebble.AUHeuristic}, cfg)
	found := false
	for _, tau := range cfg.Universe {
		if rec.BestTau == tau {
			found = true
		}
	}
	if !found {
		t.Errorf("BestTau %d not in universe %v", rec.BestTau, cfg.Universe)
	}
	if rec.Iterations < cfg.BurnIn {
		t.Errorf("Iterations = %d, want ≥ burn-in %d", rec.Iterations, cfg.BurnIn)
	}
	if rec.Iterations > cfg.MaxIterations {
		t.Errorf("Iterations = %d exceeds cap %d", rec.Iterations, cfg.MaxIterations)
	}
	if len(rec.Estimates) != len(cfg.Universe) {
		t.Fatalf("Estimates = %d entries, want %d", len(rec.Estimates), len(cfg.Universe))
	}
	for _, e := range rec.Estimates {
		if e.EstimatedCost < 0 || e.CostLow > e.CostHigh {
			t.Errorf("estimate %+v is inconsistent", e)
		}
		if e.MeanT < 0 || e.MeanV < 0 {
			t.Errorf("negative means in %+v", e)
		}
	}
	if rec.Duration <= 0 {
		t.Error("Duration should be positive")
	}
	// The sampler is seeded: the same Config.Seed gives the same run.
	again := Suggest(j, s, u, join.Options{Theta: 0.8, Method: pebble.AUHeuristic}, cfg)
	if again.BestTau != rec.BestTau || again.Iterations != rec.Iterations {
		t.Errorf("seed %d: BestTau %d after %d rounds, then %d after %d", cfg.Seed, rec.BestTau, rec.Iterations, again.BestTau, again.Iterations)
	}
}

func TestSuggestEstimateResultsExactWithFullSamples(t *testing.T) {
	// With inclusion probability 1 every "sample" is the full data, so the
	// per-τ result estimate must equal the true join result count exactly
	// (the filters are lossless, so the count is also τ-independent).
	ctx := testContext()
	j := join.NewJoiner(ctx)
	s := testCorpus(40, 7)
	u := testCorpus(40, 8)
	base := join.Options{Theta: 0.8, Method: pebble.AUHeuristic}
	want := len(j.BruteForce(s, u, base.Theta, nil))
	cfg := Config{
		Universe:        []int{1, 2, 3},
		SampleProbS:     1,
		SampleProbT:     1,
		BurnIn:          2,
		MaxIterations:   3,
		Seed:            7,
		EstimateResults: true,
	}
	rec := Suggest(j, s, u, base, cfg)
	for _, e := range rec.Estimates {
		if int(e.MeanR+0.5) != want {
			t.Errorf("τ=%d: MeanR = %v, want %d", e.Tau, e.MeanR, want)
		}
		if e.MeanR > e.MeanV+1e-9 {
			t.Errorf("τ=%d: results %v exceed candidates %v", e.Tau, e.MeanR, e.MeanV)
		}
	}
}

func TestSuggestAgreesWithExhaustiveOnSmallData(t *testing.T) {
	// On a small dataset we can compute the true cost for every τ and
	// verify the recommendation is (near-)optimal: its true cost must be
	// within a factor of 2 of the best true cost.
	ctx := testContext()
	j := join.NewJoiner(ctx)
	s := testCorpus(100, 5)
	u := testCorpus(100, 6)
	base := join.Options{Theta: 0.8, Method: pebble.AUHeuristic}
	cfg := Config{
		Universe:      []int{1, 2, 3, 4, 5},
		SampleProbS:   0.4,
		SampleProbT:   0.4,
		BurnIn:        5,
		MaxIterations: 40,
		Seed:          7,
	}
	rec := Suggest(j, s, u, base, cfg)

	trueCost := map[int]float64{}
	bestTrue := math.Inf(1)
	for _, tau := range cfg.Universe {
		opts := base
		opts.Tau = tau
		pt, pv := j.NewFilterProfile(s, u, opts).Stats(tau)
		c := cfg.CostFilter*float64(pt) + cfg.CostVerify*float64(pv)
		if cfg.CostFilter == 0 {
			c = 1*float64(pt) + 40*float64(pv)
		}
		trueCost[tau] = c
		if c < bestTrue {
			bestTrue = c
		}
	}
	if trueCost[rec.BestTau] > 2*bestTrue+1 {
		t.Errorf("suggested τ=%d has true cost %.0f, more than twice the optimum %.0f (costs: %v)",
			rec.BestTau, trueCost[rec.BestTau], bestTrue, trueCost)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults(1000, 50)
	if len(cfg.Universe) == 0 {
		t.Error("universe default missing")
	}
	if cfg.SampleProbS <= 0 || cfg.SampleProbS > 1 {
		t.Errorf("SampleProbS = %v", cfg.SampleProbS)
	}
	if cfg.SampleProbT != 1 {
		t.Errorf("SampleProbT for tiny collection = %v, want 1", cfg.SampleProbT)
	}
	if cfg.CostFilter != 1 || cfg.CostVerify != 40 {
		t.Errorf("cost defaults = %v/%v", cfg.CostFilter, cfg.CostVerify)
	}
	if cfg.BurnIn != 10 || cfg.TQuantile != 1.036 || cfg.MaxIterations != 200 {
		t.Error("loop defaults wrong")
	}
	if cfg.Seed == 0 {
		t.Error("seed default should be non-zero")
	}
	if p := targetProbability(0, 100); p != 1 {
		t.Errorf("targetProbability(0) = %v, want 1", p)
	}
}

func TestBernoulliSampleProperties(t *testing.T) {
	recs := testCorpus(200, 9)
	rng := rand.New(rand.NewSource(11))
	f := func(seed uint8) bool {
		p := 0.3
		sample := bernoulliSample(recs, p, rng)
		if len(sample) > len(recs) {
			return false
		}
		// Sampled records must come from the original collection with IDs
		// preserved.
		for _, r := range sample {
			if r.ID < 0 || r.ID >= len(recs) || recs[r.ID].Raw != r.Raw {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
	full := bernoulliSample(recs, 1.0, rng)
	if len(full) != len(recs) {
		t.Errorf("p=1 sample has %d records, want %d", len(full), len(recs))
	}
}

func TestShouldStopBehaviour(t *testing.T) {
	cfg := Config{}.withDefaults(100, 100)
	// One τ only: trivially stops.
	single := []*tauState{{tau: 1}}
	if !shouldStop(single, cfg) {
		t.Error("single-τ universe should stop immediately")
	}
	// Two τ with hugely separated costs and tiny variance: stop.
	a := &tauState{tau: 1}
	b := &tauState{tau: 2}
	for i := 0; i < 10; i++ {
		a.statsT.Add(100)
		a.statsV.Add(1000) // expensive
		b.statsT.Add(100)
		b.statsV.Add(1) // cheap
		a.lastT, b.lastT = 100, 100
	}
	if !shouldStop([]*tauState{a, b}, cfg) {
		t.Error("well-separated estimates should stop")
	}
	// Two τ with identical means but huge variance: the intervals overlap
	// far beyond one round's cost, so the loop should continue.
	c := &tauState{tau: 1}
	d := &tauState{tau: 2}
	vals := []float64{0, 1e7}
	for i := 0; i < 2; i++ {
		c.statsV.Add(vals[i])
		d.statsV.Add(vals[1-i])
		c.statsT.Add(1)
		d.statsT.Add(1)
		c.lastT, d.lastT = 1, 1
	}
	if shouldStop([]*tauState{c, d}, cfg) {
		t.Error("overlapping noisy estimates should not stop")
	}
}

// TestSuggestCtxRespectsCancellation pins the deadline behaviour of the
// sampling loop: an already-cancelled context stops before the first round
// (still recommending the always-sound smallest τ), and a context cancelled
// mid-loop truncates the iterations while keeping the estimates of the
// completed rounds.
func TestSuggestCtxRespectsCancellation(t *testing.T) {
	j := join.NewJoiner(testContext())
	s := testCorpus(120, 1)
	u := testCorpus(120, 2)
	base := join.Options{Theta: 0.8, Method: pebble.AUDP}
	cfg := Config{Seed: 7, SampleProbS: 1, SampleProbT: 1, BurnIn: 50, MaxIterations: 50}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rec, err := SuggestCtx(cancelled, j, s, u, base, cfg)
	if err != context.Canceled {
		t.Fatalf("pre-cancelled SuggestCtx error = %v, want context.Canceled", err)
	}
	if rec.Iterations != 0 {
		t.Errorf("pre-cancelled SuggestCtx ran %d iterations", rec.Iterations)
	}
	if rec.BestTau < 1 {
		t.Errorf("pre-cancelled SuggestCtx recommended τ=%d, want a sound fallback ≥ 1", rec.BestTau)
	}

	// Full-probability samples make every round substantial (a 120×120
	// filter sweep), so a deadline a few rounds in reliably truncates the
	// 50-round budget.
	deadline, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	rec, err = SuggestCtx(deadline, j, s, u, base, cfg)
	if err == nil {
		t.Skip("machine fast enough to finish 50 full-sample rounds in 50ms")
	}
	if rec.Iterations == 0 || rec.Iterations >= cfg.MaxIterations {
		t.Errorf("truncated SuggestCtx ran %d iterations, want in (0, %d)", rec.Iterations, cfg.MaxIterations)
	}
	if rec.BestTau < 1 {
		t.Errorf("truncated SuggestCtx recommended τ=%d", rec.BestTau)
	}

	// Background never errors and matches Suggest bit-for-bit (a short
	// round budget keeps the doubled run cheap).
	quick := cfg
	quick.BurnIn, quick.MaxIterations = 2, 3
	recBG, err := SuggestCtx(context.Background(), j, s, u, base, quick)
	if err != nil {
		t.Fatalf("background SuggestCtx error: %v", err)
	}
	if recBG.BestTau != Suggest(j, s, u, base, quick).BestTau {
		t.Error("SuggestCtx(Background) and Suggest disagree on BestTau")
	}
}

// Package estimator implements the parameter-recommendation framework of
// Section 4 of the paper: a sampling-based estimator of the join cost
// C_τ = c_f·T_τ + c_v·V_τ for every overlap constraint τ in a candidate
// universe, and the Monte-Carlo refinement loop (Algorithm 7) that keeps
// drawing small independent Bernoulli samples until the currently best τ is
// separated from the runners-up with the requested confidence.
package estimator

import (
	"context"
	"math"
	"math/rand"
	"time"

	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/strutil"
)

// OnlineStats maintains a running mean and (sample) variance using the
// numerically stable recursive formulas of Equations (20) and (21).
type OnlineStats struct {
	n    int
	mean float64
	vari float64
}

// Add folds one observation into the statistics.
func (o *OnlineStats) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.mean = x
		o.vari = 0
		return
	}
	prevMean := o.mean
	o.mean += (x - prevMean) / float64(o.n)
	// Recursive sample-variance update (Eq. 21).
	o.vari = float64(o.n-2)/float64(o.n-1)*o.vari + float64(o.n)*(o.mean-prevMean)*(o.mean-prevMean)
}

// N returns the number of observations.
func (o *OnlineStats) N() int { return o.n }

// Mean returns the sample mean.
func (o *OnlineStats) Mean() float64 { return o.mean }

// Variance returns the sample variance (0 for fewer than two observations).
func (o *OnlineStats) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.vari
}

// Config tunes the suggestion procedure.
type Config struct {
	// Universe is the set of τ values to choose from; empty means {1..8}.
	Universe []int
	// SampleProbS and SampleProbT are the independent Bernoulli inclusion
	// probabilities for the two collections; zero means a probability that
	// targets about 100 records per sample (as in the paper's experiments).
	SampleProbS float64
	SampleProbT float64
	// CostFilter (c_f) and CostVerify (c_v) are the per-pair costs of the
	// cost model (Eq. 15); zeros mean the defaults 1 and 40, reflecting
	// that verifying one pair is far more expensive than touching one
	// posting pair.
	CostFilter float64
	CostVerify float64
	// BurnIn is n*, the minimal number of iterations before the stopping
	// rule may fire; zero means 10 (the paper's setting for Figure 8).
	BurnIn int
	// TQuantile is the Student-t quantile t* of the confidence interval;
	// zero means 1.036 (70% two-sided, the paper's setting).
	TQuantile float64
	// MaxIterations caps the number of sampling rounds; zero means 200.
	MaxIterations int
	// Seed seeds the sampler; 0 means a time-based seed.
	Seed int64
	// EstimateResults additionally verifies every sampled candidate through
	// the join's prepared-record engine, producing an unbiased estimate of
	// the result size R_τ (reported as TauEstimate.MeanR). The cost model is
	// unchanged; the estimate is for capacity planning of downstream stages.
	EstimateResults bool
}

func (c Config) withDefaults(lenS, lenT int) Config {
	if len(c.Universe) == 0 {
		c.Universe = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	if c.SampleProbS <= 0 {
		c.SampleProbS = targetProbability(lenS, 100)
	}
	if c.SampleProbT <= 0 {
		c.SampleProbT = targetProbability(lenT, 100)
	}
	if c.CostFilter <= 0 {
		c.CostFilter = 1
	}
	if c.CostVerify <= 0 {
		c.CostVerify = 40
	}
	if c.BurnIn <= 0 {
		c.BurnIn = 10
	}
	if c.TQuantile <= 0 {
		c.TQuantile = 1.036
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 200
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	return c
}

// targetProbability returns a sampling probability that yields roughly
// `target` records from a collection of size n, capped at 1.
func targetProbability(n, target int) float64 {
	if n <= 0 {
		return 1
	}
	p := float64(target) / float64(n)
	if p > 1 {
		return 1
	}
	return p
}

// TauEstimate is the per-τ outcome of the suggestion procedure.
type TauEstimate struct {
	Tau           int
	EstimatedCost float64
	CostLow       float64
	CostHigh      float64
	MeanT         float64 // estimated T_τ (processed pairs on full data)
	MeanV         float64 // estimated V_τ (candidates on full data)
	MeanR         float64 // estimated R_τ (results on full data; EstimateResults only)
}

// Recommendation is the outcome of Algorithm 7.
type Recommendation struct {
	// BestTau is the τ with the minimal estimated cost.
	BestTau int
	// Iterations is the number of sampling rounds executed.
	Iterations int
	// Estimates lists the per-τ cost estimates of the final iteration, in
	// the order of the configured universe.
	Estimates []TauEstimate
	// Duration is the wall-clock time the suggestion took (reported as the
	// "suggestion time" row of Table 10).
	Duration time.Duration
}

// Suggest runs Algorithm 7: it repeatedly draws independent Bernoulli
// samples of both collections, runs the filtering stage for every τ in the
// universe, folds the unbiased estimates of T_τ and V_τ into online means
// and variances, and stops when the worst-case regret of the current best τ
// is smaller than the cost of one more sampling round (after the burn-in).
func Suggest(j *join.Joiner, s, t []strutil.Record, base join.Options, cfg Config) Recommendation {
	rec, _ := SuggestCtx(context.Background(), j, s, t, base, cfg)
	return rec
}

// SuggestCtx is Suggest with deadline awareness: the sampling loop checks
// ctx between rounds (each round is one small Bernoulli sample, so the check
// granularity is milliseconds) and stops early when the context is done.
// The returned Recommendation is computed from the rounds that completed —
// a deadline turns Algorithm 7's statistical stopping rule into a time
// budget — and the context error reports the truncation; when no round
// completed the recommendation falls back to the smallest τ of the universe
// and callers should treat the error as fatal.
func SuggestCtx(ctx context.Context, j *join.Joiner, s, t []strutil.Record, base join.Options, cfg Config) (Recommendation, error) {
	start := time.Now()
	cfg = cfg.withDefaults(len(s), len(t))
	rng := rand.New(rand.NewSource(cfg.Seed))

	states := make([]*tauState, len(cfg.Universe))
	for i, tau := range cfg.Universe {
		states[i] = &tauState{tau: tau}
	}

	scale := 1 / (cfg.SampleProbS * cfg.SampleProbT)
	iterations := 0
	var ctxErr error
	for iterations < cfg.MaxIterations {
		if ctxErr = ctx.Err(); ctxErr != nil {
			break
		}
		iterations++
		sampleS := bernoulliSample(s, cfg.SampleProbS, rng)
		sampleT := bernoulliSample(t, cfg.SampleProbT, rng)
		// One profile per sample pair: pebble generation, interning and
		// sorting are shared by every τ in the universe; only the cheap
		// prefix selection and candidate counting run per τ.
		var profile *join.FilterProfile
		if len(sampleS) > 0 && len(sampleT) > 0 {
			profile = j.NewFilterProfile(sampleS, sampleT, base)
		}
		for _, st := range states {
			processed, candidates, results := int64(0), 0, 0
			if profile != nil {
				if cfg.EstimateResults {
					processed, candidates, results = profile.VerifyStats(st.tau)
				} else {
					processed, candidates = profile.Stats(st.tau)
				}
			}
			st.lastT = float64(processed)
			st.statsT.Add(float64(processed) * scale)
			st.statsV.Add(float64(candidates) * scale)
			if cfg.EstimateResults {
				st.statsR.Add(float64(results) * scale)
			}
		}
		if iterations >= cfg.BurnIn && shouldStop(states, cfg) {
			break
		}
	}

	rec := Recommendation{Iterations: iterations, Duration: time.Since(start)}
	bestCost := math.Inf(1)
	for _, st := range states {
		cost, lo, hi := costInterval(st.statsT, st.statsV, cfg)
		rec.Estimates = append(rec.Estimates, TauEstimate{
			Tau:           st.tau,
			EstimatedCost: cost,
			CostLow:       lo,
			CostHigh:      hi,
			MeanT:         st.statsT.Mean(),
			MeanV:         st.statsV.Mean(),
			MeanR:         st.statsR.Mean(),
		})
		if cost < bestCost {
			bestCost = cost
			rec.BestTau = st.tau
		}
	}
	if rec.BestTau == 0 && len(cfg.Universe) > 0 {
		// Cancelled before the first round: every estimate is degenerate, so
		// recommend the smallest τ (the always-sound overlap constraint).
		rec.BestTau = cfg.Universe[0]
	}
	return rec, ctxErr
}

// costInterval folds the T and V statistics into the cost estimate and its
// confidence interval per Equations (22) and (23).
func costInterval(statsT, statsV OnlineStats, cfg Config) (mean, lo, hi float64) {
	mean = cfg.CostFilter*statsT.Mean() + cfg.CostVerify*statsV.Mean()
	n := statsT.N()
	if n == 0 {
		return mean, mean, mean
	}
	variance := cfg.CostFilter*cfg.CostFilter*statsT.Variance() + cfg.CostVerify*cfg.CostVerify*statsV.Variance()
	se := math.Sqrt(variance / float64(n))
	return mean, mean - cfg.TQuantile*se, mean + cfg.TQuantile*se
}

// tauState accumulates the per-τ estimation state across sampling rounds.
type tauState struct {
	tau    int
	statsT OnlineStats
	statsV OnlineStats
	statsR OnlineStats
	lastT  float64 // T'_τ of the most recent sample (un-scaled)
}

// shouldStop implements the stopping criterion of Inequality (24): the
// worst-case penalty of recommending the current arg-min τ must be below
// the cost of running one more estimation round (approximated with the
// most recent round's filtering volume).
func shouldStop(states []*tauState, cfg Config) bool {
	if len(states) < 2 {
		return true
	}
	bestIdx := 0
	bestCost := math.Inf(1)
	for i, st := range states {
		cost, _, _ := costInterval(st.statsT, st.statsV, cfg)
		if cost < bestCost {
			bestCost = cost
			bestIdx = i
		}
	}
	_, _, upperBest := costInterval(states[bestIdx].statsT, states[bestIdx].statsV, cfg)
	minLowerOther := math.Inf(1)
	nextRoundCost := 0.0
	for i, st := range states {
		nextRoundCost += cfg.CostFilter * st.lastT
		if i == bestIdx {
			continue
		}
		_, lo, _ := costInterval(st.statsT, st.statsV, cfg)
		if lo < minLowerOther {
			minLowerOther = lo
		}
	}
	return upperBest-minLowerOther < nextRoundCost
}

// bernoulliSample draws an independent Bernoulli sample of the records with
// inclusion probability p.
func bernoulliSample(recs []strutil.Record, p float64, rng *rand.Rand) []strutil.Record {
	if p >= 1 {
		return recs
	}
	var out []strutil.Record
	for _, r := range recs {
		if rng.Float64() < p {
			out = append(out, r)
		}
	}
	return out
}

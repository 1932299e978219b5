package core

import (
	"sync"

	"github.com/aujoin/aujoin/internal/matching"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// DefaultT is the default trade-off parameter t of Algorithm 1: the local
// search keeps applying claw swaps whose unified-similarity improvement is
// at least 1/t, which bounds the number of improvement rounds by ⌊t⌋.
const DefaultT = 50

// DefaultMaxTalons bounds the size of the talon sets explored by the claw
// improvement step of Algorithm 1. Claw-freeness bounds the useful size by
// the maximal rule length k; 3 captures all improvements observed on the
// evaluation datasets.
const DefaultMaxTalons = 3

// DefaultExactBudget is the node budget of the exact solver when invoked
// through the Calculator; enough for strings with up to a few dozen
// applicable rules.
const DefaultExactBudget = 200000

// Calculator computes unified similarities between strings for a fixed
// similarity context. It is safe for concurrent use.
type Calculator struct {
	Ctx *sim.Context
	// T is the approximation trade-off parameter t (> 1) of Algorithm 1;
	// zero means DefaultT.
	T float64
	// MaxTalons bounds claw sizes in the improvement search; zero means
	// DefaultMaxTalons.
	MaxTalons int
	// ExactBudget caps the number of partition pairs the exact solver
	// explores; zero means DefaultExactBudget.
	ExactBudget int

	segmenter *Segmenter
	segOnce   sync.Once
}

// NewCalculator creates a Calculator with default parameters over the given
// context.
func NewCalculator(ctx *sim.Context) *Calculator {
	return &Calculator{Ctx: ctx, segmenter: NewSegmenter(ctx)}
}

// Segmenter returns the segment enumerator shared by the calculator. The
// lazy initialisation is synchronised so that a zero-value Calculator stays
// safe for concurrent use (Prepare runs on all workers during index builds).
func (c *Calculator) Segmenter() *Segmenter {
	c.segOnce.Do(func() {
		if c.segmenter == nil {
			c.segmenter = NewSegmenter(c.Ctx)
		}
	})
	return c.segmenter
}

func (c *Calculator) tParam() float64 {
	if c.T > 1 {
		return c.T
	}
	return DefaultT
}

func (c *Calculator) maxTalons() int {
	if c.MaxTalons > 0 {
		return c.MaxTalons
	}
	return DefaultMaxTalons
}

func (c *Calculator) exactBudget() int {
	if c.ExactBudget > 0 {
		return c.ExactBudget
	}
	return DefaultExactBudget
}

// SIM computes Eq. (6) for a fixed pair of partitions: the maximum-weight
// bipartite matching over msim segment weights divided by the larger
// partition size.
func (c *Calculator) SIM(ps, pt Partition) float64 {
	if ps.Size() == 0 || pt.Size() == 0 {
		return 0
	}
	w := MSimMatrix(c.Ctx, ps, pt)
	total := matching.MaxWeight(w).Total
	den := ps.Size()
	if pt.Size() > den {
		den = pt.Size()
	}
	return total / float64(den)
}

// GetSim implements the GetSim function of Algorithm 1: it converts an
// independent set of conflict-graph vertices into a pair of well-defined
// partitions and evaluates SIM on them.
func (c *Calculator) GetSim(cg *ConflictGraph, set []int, sTokens, tTokens []string) float64 {
	sSel, tSel := cg.selectedSegments(set, sTokens, tTokens)
	ps := buildPartition(sTokens, sSel)
	pt := buildPartition(tTokens, tSel)
	return c.SIM(ps, pt)
}

// Similarity computes the approximate unified similarity between two raw
// strings (tokenising them first). This is Algorithm 1 of the paper.
func (c *Calculator) Similarity(s, t string) float64 {
	return c.SimilarityTokens(strutil.Tokenize(s), strutil.Tokenize(t))
}

// SimilarityTokens computes the approximate unified similarity between two
// token sequences using Algorithm 1:
//
//  1. build the conflict graph over candidate segment pairs,
//  2. compute a w-MIS solution with SquareImp,
//  3. greedily apply claw swaps while they improve the unified similarity
//     by at least 1/t,
//  4. return the similarity of the final solution.
func (c *Calculator) SimilarityTokens(sTokens, tTokens []string) float64 {
	if len(sTokens) == 0 || len(tTokens) == 0 {
		if len(sTokens) == 0 && len(tTokens) == 0 {
			return 1
		}
		return 0
	}
	sg := c.Segmenter()
	pairs := sg.CandidatePairs(sTokens, tTokens)
	if len(pairs) == 0 {
		// No rule or taxonomy segment applies: the unified similarity
		// reduces to the token-level bipartite matching over singletons.
		ps := buildPartition(sTokens, nil)
		pt := buildPartition(tTokens, nil)
		return c.SIM(ps, pt)
	}
	cg := BuildConflictGraph(pairs)

	// Line 1: w-MIS via SquareImp.
	set := cg.Graph.SquareImp(wmisOptions(c.maxTalons()))
	best := c.GetSim(cg, set, sTokens, tTokens)

	// Lines 3-4: claw improvements measured on the unified similarity.
	t := c.tParam()
	minGain := 1 / t
	maxRounds := int(t)
	for round := 0; round < maxRounds; round++ {
		var bestTalons, bestRemoved []int
		bestGain := 0.0
		cg.Graph.EnumerateTalonSets(set, c.maxTalons(), func(talons, removed []int) bool {
			candidate := wmisSwap(set, talons, removed)
			v := c.GetSim(cg, candidate, sTokens, tTokens)
			if gain := v - best; gain > bestGain {
				bestGain = gain
				bestTalons = talons
				bestRemoved = removed
			}
			return true
		})
		if bestTalons == nil || bestGain < minGain {
			break
		}
		set = wmisSwap(set, bestTalons, bestRemoved)
		best += bestGain
	}
	return best
}

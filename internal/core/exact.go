package core

import (
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/wmis"
)

// ExactResult is the outcome of the exponential-time exact USIM solver.
type ExactResult struct {
	// Similarity is the best unified similarity found.
	Similarity float64
	// Complete is false when the enumeration budget was exhausted before
	// every partition pair had been evaluated; the similarity is then a
	// lower bound.
	Complete bool
	// Evaluated counts the partition pairs whose SIM was computed.
	Evaluated int
}

// SimilarityExact computes the exact unified similarity of two raw strings
// by enumerating all pairs of well-defined partitions (Definition 3). The
// cost is exponential in the number of applicable multi-token segments; the
// enumeration stops after ExactBudget partition pairs.
func (c *Calculator) SimilarityExact(s, t string) ExactResult {
	return c.SimilarityTokensExact(strutil.Tokenize(s), strutil.Tokenize(t))
}

// SimilarityTokensExact is SimilarityExact on pre-tokenised inputs.
func (c *Calculator) SimilarityTokensExact(sTokens, tTokens []string) ExactResult {
	if len(sTokens) == 0 || len(tTokens) == 0 {
		if len(sTokens) == 0 && len(tTokens) == 0 {
			return ExactResult{Similarity: 1, Complete: true}
		}
		return ExactResult{Similarity: 0, Complete: true}
	}
	sg := c.Segmenter()
	sParts := enumeratePartitions(sTokens, sg.MultiTokenSegments(sTokens))
	tParts := enumeratePartitions(tTokens, sg.MultiTokenSegments(tTokens))

	res := ExactResult{Complete: true}
	budget := c.exactBudget()
	for _, ps := range sParts {
		for _, pt := range tParts {
			if res.Evaluated >= budget {
				res.Complete = false
				return res
			}
			res.Evaluated++
			if v := c.SIM(ps, pt); v > res.Similarity {
				res.Similarity = v
			}
		}
	}
	return res
}

// enumeratePartitions lists every well-defined partition of the token
// sequence: each partition is induced by an independent (non-overlapping)
// subset of the multi-token segments, with all uncovered tokens as
// singletons. The empty selection (all-singleton partition) is always
// included.
func enumeratePartitions(tokens []string, multi []Segment) []Partition {
	// Build a tiny conflict graph over the multi-token segments (overlap ⇒
	// conflict) and enumerate all of its independent sets.
	g := wmis.NewGraph(len(multi))
	for i := range multi {
		g.SetWeight(i, 1)
		for j := i + 1; j < len(multi); j++ {
			if multi[i].Span.Overlaps(multi[j].Span) {
				g.AddEdge(i, j)
			}
		}
	}
	var partitions []Partition
	var cur []int
	var rec func(start int)
	rec = func(start int) {
		sel := make([]Segment, len(cur))
		for i, idx := range cur {
			sel[i] = multi[idx]
		}
		partitions = append(partitions, buildPartition(tokens, sel))
		for i := start; i < len(multi); i++ {
			ok := true
			for _, u := range cur {
				if g.HasEdge(u, i) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return partitions
}

// ApproximationRatio computes the approximation accuracy A/A* of Algorithm 1
// on two strings, where A is the approximate and A* the exact unified
// similarity — the quantity whose percentiles Table 9 of the paper reports.
// An accuracy of 1 means the approximation found the optimum; when the
// exact similarity is 0 the accuracy is defined as 1.
// The boolean reports whether the exact computation completed within its
// budget.
func (c *Calculator) ApproximationRatio(s, t string) (float64, bool) {
	sTok, tTok := strutil.Tokenize(s), strutil.Tokenize(t)
	exact := c.SimilarityTokensExact(sTok, tTok)
	approx := c.SimilarityTokens(sTok, tTok)
	if exact.Similarity <= 0 {
		return 1, exact.Complete
	}
	// The paper reports r = A*/A ≥ ... with A ≤ A*; guard against tiny
	// floating point excesses.
	r := approx / exact.Similarity
	if r > 1 {
		r = 1
	}
	return r, exact.Complete
}

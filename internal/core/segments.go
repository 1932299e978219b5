// Package core implements the paper's primary contribution: the unified
// string similarity measure USIM (Section 2.2) and its polynomial-time
// approximation (Section 2.3, Algorithm 1), together with the exact
// (exponential) reference solver used to measure approximation accuracy
// (Table 9).
//
// Given two strings S and T, the unified similarity is
//
//	USIM(S, T) = max over all pairs of well-defined partitions (P_S, P_T)
//	             of  SIM(P_S, P_T)
//
// where SIM is the maximum-weight bipartite matching between the segments
// of the two partitions, with per-edge weight msim (the best of the
// Jaccard, synonym and taxonomy measures), divided by max{|P_S|, |P_T|}.
//
// # Conflict graph refinement
//
// The paper's Algorithm 1 builds a conflict graph whose vertices are all
// candidate segment pairs, including pairs where both segments are single
// tokens. Those singleton-singleton vertices never change the partitions —
// every token that is not covered by a selected multi-token rule or
// taxonomy segment becomes its own segment anyway — and their contribution
// to the final similarity is computed exactly by the Hungarian matching
// inside GetSim. This implementation therefore restricts the w-MIS graph to
// segment pairs arising from synonym rules and taxonomy entities (the pairs
// that actually steer partitioning), which keeps the graph small without
// changing the value of any candidate solution. The behaviour of Algorithm
// 1 on the paper's Figure 2 / Example 5 is preserved (see the tests).
package core

import (
	"math"
	"sort"

	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// Segment is a well-defined segment of a tokenised string (Definition 1):
// a run of consecutive tokens that matches a synonym-rule side, a taxonomy
// entity, or consists of a single token.
type Segment struct {
	Span   strutil.Span
	Tokens []string
	// Rule reports whether the segment matches the lhs or rhs of a synonym
	// rule; Entity reports whether it matches a taxonomy entity. A single
	// token segment may have both flags false.
	Rule   bool
	Entity bool
}

// Segmenter enumerates well-defined segments of tokenised strings for a
// given similarity context. It is stateless apart from the context and safe
// for concurrent use.
type Segmenter struct {
	Ctx *sim.Context
}

// NewSegmenter returns a Segmenter over the given context.
func NewSegmenter(ctx *sim.Context) *Segmenter { return &Segmenter{Ctx: ctx} }

// Segments returns every well-defined segment of the token sequence,
// ordered by start position then length. Single-token segments are always
// included; longer spans are included when they match a synonym-rule side
// or a taxonomy entity. Only the spans some side or entity name could be are
// joined into a text and looked up: those of two or more tokens starting at a
// token that begins a multi-token side or name, up to the longest such one
// (sim.Context.MaxRuleTokensFrom) — every other multi-token span matches
// nothing, so the list is the one trying every span up to MaxRuleTokens
// gives.
func (sg *Segmenter) Segments(tokens []string) []Segment {
	out := make([]Segment, 0, len(tokens)) // one singleton per token at least
	for start := range tokens {
		limit := min(max(sg.Ctx.MaxRuleTokensFrom(tokens[start]), 1), len(tokens)-start)
		for length := 1; length <= limit; length++ {
			span := strutil.Span{Start: start, End: start + length}
			segTokens := tokens[start : start+length]
			seg := Segment{Span: span, Tokens: segTokens}
			text := strutil.JoinTokens(segTokens) // once a span, for both lookups
			seg.Rule = sg.Ctx.SynonymEnabled() && sg.Ctx.Rules.IsSide(text)
			if sg.Ctx.TaxonomyEnabled() {
				_, seg.Entity = sg.Ctx.Tax.LookupText(text)
			}
			if length == 1 || seg.Rule || seg.Entity {
				out = append(out, seg)
			}
		}
	}
	return out
}

// MultiTokenSegments returns the well-defined segments spanning two or more
// tokens. These are the segments that change the shape of a partition; all
// remaining tokens are singleton segments by default.
func (sg *Segmenter) MultiTokenSegments(tokens []string) []Segment {
	segs := sg.Segments(tokens)
	out := segs[:0:0]
	for _, s := range segs {
		if s.Span.Len() >= 2 {
			out = append(out, s)
		}
	}
	return out
}

// minPartitionSizeSegs implements GetMinPartitionSize of Algorithm 2 over a
// non-empty record's segment enumeration (prepare shares the one enumeration
// between the segment tables and this bound): a lower bound on the number of
// segments in any well-defined partition of the token sequence, obtained by
// greedy set cover (largest uncovered segment first) and divided by the
// greedy approximation factor ln(n)+1, where n is the size of the largest
// well-defined segment.
func minPartitionSizeSegs(tokens []string, segs []Segment) int {
	// covered[p] marks token p as covered by a picked segment; records of up
	// to 64 tokens (all but pathological inputs) keep it on the stack.
	var buf [64]bool
	covered := buf[:]
	if len(tokens) > len(buf) {
		covered = make([]bool, len(tokens))
	}
	largest := 1
	for _, s := range segs {
		if s.Span.Len() > largest {
			largest = s.Span.Len()
		}
	}
	picked := 0
	for uncovered := len(tokens); uncovered > 0; {
		bestGain, bestIdx := 0, -1
		for i, s := range segs {
			gain := 0
			for p := s.Span.Start; p < s.Span.End; p++ {
				if !covered[p] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			// Cannot happen because singleton segments always exist, but
			// guard against pathological inputs.
			break
		}
		for p := segs[bestIdx].Span.Start; p < segs[bestIdx].Span.End; p++ {
			covered[p] = true
		}
		uncovered -= bestGain
		picked++
	}
	bound := ceilDiv(picked, lnPlus1(largest))
	if bound < 1 {
		bound = 1
	}
	return bound
}

// lnPlus1 returns ln(n) + 1 for n ≥ 1.
func lnPlus1(n int) float64 {
	if n < 1 {
		n = 1
	}
	return math.Log(float64(n)) + 1
}

// ceilDiv returns ceil(a / b) for a ≥ 0, b > 0.
func ceilDiv(a int, b float64) int {
	v := float64(a) / b
	iv := int(v)
	if float64(iv) < v {
		iv++
	}
	return iv
}

// Partition is a well-defined partition of a tokenised string: every token
// belongs to exactly one segment (Definition 2). Segments are ordered by
// start position.
type Partition struct {
	Segments []Segment
}

// Size returns the number of segments in the partition.
func (p Partition) Size() int { return len(p.Segments) }

// buildPartition constructs the partition induced by a set of selected
// non-overlapping multi-token segments: the selected segments plus a
// singleton segment for every uncovered token.
func buildPartition(tokens []string, selected []Segment) Partition {
	covered := make([]bool, len(tokens))
	segs := make([]Segment, 0, len(tokens))
	for _, s := range selected {
		segs = append(segs, s)
		for p := s.Span.Start; p < s.Span.End; p++ {
			covered[p] = true
		}
	}
	for i := range tokens {
		if !covered[i] {
			segs = append(segs, Segment{
				Span:   strutil.Span{Start: i, End: i + 1},
				Tokens: tokens[i : i+1],
			})
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].Span.Start < segs[b].Span.Start })
	return Partition{Segments: segs}
}

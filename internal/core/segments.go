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
	"slices"
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
	// Text is Tokens joined by single spaces (strutil.JoinTokens): the key
	// the segment's rule side, entity name and dictionary entry are looked
	// up by, built once for all three.
	Text string
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
// ordered by start position then length (AppendSegments).
func (sg *Segmenter) Segments(tokens []string) []Segment {
	return sg.AppendSegments(nil, tokens, nil)
}

// AppendSegments appends every well-defined segment of the token sequence to
// out, ordered by start position then length, and returns the extended
// slice. Single-token segments are always included; longer spans are
// included when they match a synonym-rule side or a taxonomy entity. Only the
// spans some side or entity name could be are looked up: those of two or
// more tokens starting at a token that begins a multi-token side or name, up
// to the longest such one (sim.Context.MaxRuleTokensFrom) — every other
// multi-token span matches nothing, so the list is the one trying every span
// up to MaxRuleTokens gives. The spans from one start are joined in one
// buffer, each extending the one before by a token; a span that is kept takes
// d's key for its text where d holds it (SegDict.key), and only otherwise has
// its text copied out, once.
func (sg *Segmenter) AppendSegments(out []Segment, tokens []string, d *SegDict) []Segment {
	out = slices.Grow(out, len(tokens)) // one singleton per token at least
	syn, tax := sg.Ctx.SynonymEnabled(), sg.Ctx.TaxonomyEnabled()
	var buf [64]byte
	for start, head := range tokens {
		limit := min(max(sg.Ctx.MaxRuleTokensFrom(head), 1), len(tokens)-start)
		joined := append(buf[:0], head...)
		for length := 1; length <= limit; length++ {
			text := head
			if length > 1 {
				joined = append(append(joined, ' '), tokens[start+length-1]...)
				text = string(joined) // a lookup key only, unless kept below
			}
			seg := Segment{Span: strutil.Span{Start: start, End: start + length}, Tokens: tokens[start : start+length]}
			seg.Rule = syn && sg.Ctx.Rules.IsSide(text)
			if tax {
				_, seg.Entity = sg.Ctx.Tax.LookupText(text)
			}
			if length == 1 || seg.Rule || seg.Entity {
				seg.Text = head
				if length > 1 {
					seg.Text = d.key(joined)
				}
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

// minPartitionSizeSegs returns MP(S), the bound Algorithm 2's
// GetMinPartitionSize stands for, over a non-empty record's segment
// enumeration (prepare shares the one enumeration between the segment tables
// and this bound): the fewest segments any well-defined partition of the
// token sequence has. A segment is a contiguous span, so a partition is a path
// from position 0 to n along spans, and its size a shortest path: dp[p] is
// the fewest segments covering tokens p..n-1, and a span from p to e offers
// dp[e]+1. The enumeration is ordered by start, so walking it backwards
// finalises every dp[e] (all spans from e and beyond) before a span ending at
// e reads it. Short records keep dp on the stack.
func minPartitionSizeSegs(n int, segs []Segment) int {
	var buf [65]int32
	dp := buf[:]
	if n >= len(buf) {
		dp = make([]int32, n+1)
	}
	dp = dp[:n+1]
	for p := range dp {
		dp[p] = int32(n - p) // all singletons: dp[n] = 0, and a start for the min
	}
	for i := len(segs) - 1; i >= 0; i-- {
		sp := segs[i].Span
		dp[sp.Start] = min(dp[sp.Start], dp[sp.End]+1)
	}
	return int(dp[0])
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

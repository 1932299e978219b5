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
// greedy set cover (largest uncovered segment first, greedyCover) and divided
// by the greedy approximation factor ln(n)+1, where n is the size of the
// largest well-defined segment. A record whose segments are all singletons —
// one per token, as for most records — is answered without the greedy: it
// picks every singleton and divides by ln(1)+1 = 1, so the bound is the
// token count.
func minPartitionSizeSegs(tokens []string, segs []Segment) int {
	if len(segs) == len(tokens) {
		return len(tokens)
	}
	picked, largest := greedyCover(len(tokens), segs, nil)
	return max(ceilDiv(picked, lnPlus1(largest)), 1)
}

// coverGain is a segment's place in greedyCover's heap: its index and a gain
// at least its number of uncovered tokens (exact when last scored).
type coverGain struct{ gain, idx int32 }

// before reports whether a is picked ahead of b: the larger gain first, and
// of equal gains the earlier segment, as a scan for the first strictly
// larger gain picks.
func (a coverGain) before(b coverGain) bool {
	return a.gain > b.gain || a.gain == b.gain && a.idx < b.idx
}

// greedyCover covers the n tokens with segs greedily — each step picks the
// segment with the most uncovered tokens, the earliest of equal ones — and
// returns the number of picks and the largest segment length. It runs from
// a max-heap of gains with lazy re-scoring: a gain only falls as tokens are
// covered, so when the top's re-scored gain still equals its key no other
// segment can beat it, and otherwise the top sinks under its new gain. The
// picks are exactly those of rescanning every segment for each pick, ties
// included, but a re-score costs a heap step where a rescan is a pass over
// every segment, quadratic in a long record. When order is non-nil the
// picked indexes are appended to it.
func greedyCover(n int, segs []Segment, order *[]int32) (picked, largest int) {
	// covered[p] marks token p as covered by a picked segment; short records
	// keep it and the heap on the stack.
	var cbuf [64]bool
	covered := cbuf[:]
	if n > len(cbuf) {
		covered = make([]bool, n)
	}
	var hbuf [128]coverGain
	h := hbuf[:0]
	if len(segs) > len(hbuf) {
		h = make([]coverGain, 0, len(segs))
	}
	largest = 1
	for i, s := range segs {
		largest = max(largest, s.Span.Len())
		h = append(h, coverGain{int32(s.Span.Len()), int32(i)})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for uncovered := n; uncovered > 0 && len(h) > 0; {
		top := h[0]
		sp := segs[top.idx].Span
		gain := int32(0)
		for p := sp.Start; p < sp.End; p++ {
			if !covered[p] {
				gain++
			}
		}
		if gain != top.gain {
			h[0].gain = gain
			siftDown(h, 0)
			continue
		}
		if gain == 0 {
			// Cannot happen because singleton segments always exist, but
			// guard against pathological inputs.
			break
		}
		for p := sp.Start; p < sp.End; p++ {
			covered[p] = true
		}
		uncovered -= int(gain)
		picked++
		if order != nil {
			*order = append(*order, top.idx)
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
	}
	return picked, largest
}

// siftDown restores the heap order below position i of h.
func siftDown(h []coverGain, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
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

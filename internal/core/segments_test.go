package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// segmentsOracle is the exhaustive enumeration Segments narrows, kept as its
// reference: every span of up to MaxRuleTokens tokens is joined and looked
// up, whatever token it starts with.
func segmentsOracle(ctx *sim.Context, tokens []string) []Segment {
	var out []Segment
	for start := range tokens {
		for length := 1; length <= ctx.MaxRuleTokens() && start+length <= len(tokens); length++ {
			span := tokens[start : start+length]
			text := strutil.JoinTokens(span)
			seg := Segment{Span: strutil.Span{Start: start, End: start + length}, Tokens: span, Text: text}
			seg.Rule = ctx.SynonymEnabled() && ctx.Rules.IsSide(text)
			if ctx.TaxonomyEnabled() {
				_, seg.Entity = ctx.Tax.LookupText(text)
			}
			if length == 1 || seg.Rule || seg.Entity {
				out = append(out, seg)
			}
		}
	}
	return out
}

// phrasesOf returns the token sequences of every rule side and entity name of
// the context.
func phrasesOf(ctx *sim.Context) [][]string {
	var out [][]string
	if ctx.Rules != nil {
		for _, r := range ctx.Rules.Rules() {
			out = append(out, r.LHS, r.RHS)
		}
	}
	if ctx.Tax != nil {
		for _, name := range ctx.Tax.EntityNames() {
			out = append(out, strings.Split(name, " "))
		}
	}
	return out
}

// TestSegmentsMatchOracle holds Segments to the exhaustive enumeration on
// random token lists over knowledge sources built every way the head-token
// maps are kept: rules and entities added after the Segmenter exists, a
// taxonomy whose root name has several tokens, rule sets and taxonomies read
// back from their written form, and the data generators' sources, with one
// measure switched off. The lists splice in whole rule sides and entity
// names, their prefixes, and stray tokens, so that spans starting at a head
// token end short of, at and past the longest side or name it starts.
func TestSegmentsMatchOracle(t *testing.T) {
	type source struct {
		name string
		ctx  *sim.Context
		sg   *Segmenter
	}
	var sources []source
	add := func(name string, ctx *sim.Context) {
		sources = append(sources, source{name, ctx, NewSegmenter(ctx)})
	}

	late := paperContext()
	sources = append(sources, source{"added after the segmenter", late, NewSegmenter(late)})
	late.Rules.MustAdd("shop latte espresso", "sle", 0.7)
	late.Rules.MustAdd("coffee shop latte", "csl", 0.9)
	late.Tax.MustAddChild(late.Tax.Root(), "latte helsingki cake apple")

	rootTax := taxonomy.NewTree("coffee shop chain")
	rootTax.MustAddChild(rootTax.Root(), "coffee")
	rootTax.MustAddChild(rootTax.Root(), "shop chain")
	add("multi-token root", sim.NewContext(paperContext().Rules, rootTax))

	phraseCtx, _ := phraseContext()
	var rulesText, taxText bytes.Buffer
	if err := phraseCtx.Rules.Write(&rulesText); err != nil {
		t.Fatal(err)
	}
	if err := phraseCtx.Tax.Write(&taxText); err != nil {
		t.Fatal(err)
	}
	rules, err := synonym.Read(&rulesText)
	if err != nil {
		t.Fatal(err)
	}
	tax, err := taxonomy.Read(&taxText)
	if err != nil {
		t.Fatal(err)
	}
	add("read back", sim.NewContext(rules, tax))

	for _, cfg := range []datagen.Config{datagen.MEDLike(50, 1), datagen.WIKILike(50, 2)} {
		gen := datagen.New(cfg)
		add(cfg.Name, sim.NewContext(gen.Rules(), gen.Taxonomy()))
		add(cfg.Name+" without taxonomy", sim.NewContext(gen.Rules(), gen.Taxonomy()).WithMeasures(sim.SetJaccard|sim.SetSynonym))
		add(cfg.Name+" without rules", sim.NewContext(gen.Rules(), gen.Taxonomy()).WithMeasures(sim.SetJaccard|sim.SetTaxonomy))
	}

	rng := rand.New(rand.NewSource(61))
	for _, src := range sources {
		phrases := phrasesOf(src.ctx)
		multi := 0
		for range 400 {
			var tokens []string
			for len(tokens) < 2+rng.Intn(12) {
				p := phrases[rng.Intn(len(phrases))]
				switch rng.Intn(4) {
				case 0:
					tokens = append(tokens, p...)
				case 1:
					tokens = append(tokens, p[:1+rng.Intn(len(p))]...)
				case 2:
					tokens = append(tokens, p[rng.Intn(len(p))])
				default:
					tokens = append(tokens, "zz"+string(rune('a'+rng.Intn(5))))
				}
			}
			got, want := src.sg.Segments(tokens), segmentsOracle(src.ctx, tokens)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %q segments into %v, the exhaustive enumeration into %v", src.name, tokens, got, want)
			}
			for _, s := range got {
				if s.Span.Len() > 1 {
					multi++
				}
			}
		}
		if multi == 0 {
			t.Fatalf("%s: no multi-token segment was found", src.name)
		}
	}
}

// rescanCover is the greedy cover greedyCover runs, as first written: every
// pick rescans every segment for the first one with the most uncovered
// tokens. It is the oracle the heap is held to, picks and ties included.
func rescanCover(n int, segs []Segment) (picks []int32, largest int) {
	covered := make([]bool, n)
	largest = 1
	for _, s := range segs {
		largest = max(largest, s.Span.Len())
	}
	for uncovered := n; uncovered > 0; {
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
			break
		}
		for p := segs[bestIdx].Span.Start; p < segs[bestIdx].Span.End; p++ {
			covered[p] = true
		}
		uncovered -= bestGain
		picks = append(picks, int32(bestIdx))
	}
	return picks, largest
}

// TestGreedyCoverMatchesRescan holds the heap greedy to the rescan on random
// segment lists thick with ties — spans of two to five tokens, duplicates
// among them, beside one singleton per token, in enumeration order and
// shuffled — across the stack buffers' sizes (64 tokens, 128 segments), and
// minPartitionSizeSegs, all-singleton fast path included, to the bound the
// rescan's picks give.
func TestGreedyCoverMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(100)
		segs := make([]Segment, 0, 3*n)
		for p := 0; p < n; p++ {
			segs = append(segs, Segment{Span: strutil.Span{Start: p, End: p + 1}})
		}
		for k := rng.Intn(2 * n); k > 0 && trial%10 != 0; k-- {
			start := rng.Intn(n)
			if end := start + 2 + rng.Intn(4); end <= n {
				segs = append(segs, Segment{Span: strutil.Span{Start: start, End: end}})
			}
		}
		if trial%2 == 0 {
			sort.SliceStable(segs, func(a, b int) bool {
				sa, sb := segs[a].Span, segs[b].Span
				return sa.Start < sb.Start || sa.Start == sb.Start && sa.Len() < sb.Len()
			})
		} else {
			rng.Shuffle(len(segs), func(a, b int) { segs[a], segs[b] = segs[b], segs[a] })
		}
		want, wantLargest := rescanCover(n, segs)
		var got []int32
		picked, largest := greedyCover(n, segs, &got)
		if !slices.Equal(got, want) || picked != len(want) || largest != wantLargest {
			t.Fatalf("trial %d, %d tokens, %d segments: heap picks %v (largest %d), rescan %v (largest %d)",
				trial, n, len(segs), got, largest, want, wantLargest)
		}
		if bound, wantBound := minPartitionSizeSegs(make([]string, n), segs), max(ceilDiv(len(want), lnPlus1(wantLargest)), 1); bound != wantBound {
			t.Fatalf("trial %d, %d tokens, %d segments: bound %d, rescan's %d", trial, n, len(segs), bound, wantBound)
		}
	}
}

// BenchmarkPrepareLongRecord prepares one 65 536-token record that repeats a
// two-token rule side, so every other token starts a multi-token segment and
// the partition-size bound runs its greedy cover over 98 304 segments.
func BenchmarkPrepareLongRecord(b *testing.B) {
	calc := NewCalculator(paperContext())
	tokens := make([]string, 1<<16)
	for p := range tokens {
		tokens[p] = [2]string{"coffee", "shop"}[p%2]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pr := calc.Prepare(tokens); pr.MinPartitionSize() < 1 {
			b.Fatal("no partition bound")
		}
	}
}

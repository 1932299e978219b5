package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
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

// paperGreedyBound is Algorithm 2's GetMinPartitionSize as the paper gives
// it: a greedy set cover of the n tokens (each pick the first segment with
// the most uncovered tokens) divided by the greedy factor ln(d)+1, d the
// largest segment's length, rounded up. It is kept as a reference the exact
// minimum must never fall below.
func paperGreedyBound(n int, segs []Segment) int {
	covered := make([]bool, n)
	largest := 1
	for _, s := range segs {
		largest = max(largest, s.Span.Len())
	}
	picks := 0
	for uncovered := n; uncovered > 0; picks++ {
		bestGain, best := 0, Segment{}
		for _, s := range segs {
			gain := 0
			for p := s.Span.Start; p < s.Span.End; p++ {
				if !covered[p] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain, best = gain, s
			}
		}
		for p := best.Span.Start; p < best.Span.End; p++ {
			covered[p] = true
		}
		uncovered -= bestGain
	}
	return max(int(math.Ceil(float64(picks)/(math.Log(float64(largest))+1))), 1)
}

// exhaustiveMinPartition walks every well-defined partition of tokens from..n
// the segments allow — each a choice of the segment that starts at from,
// then a partition of the rest — and returns the fewest segments any has.
func exhaustiveMinPartition(segs []Segment, from, n int) int {
	if from == n {
		return 0
	}
	best := n + 1
	for _, s := range segs {
		if s.Span.Start == from {
			best = min(best, 1+exhaustiveMinPartition(segs, s.Span.End, n))
		}
	}
	return best
}

// spanSet returns, in enumeration order (start, then length), a singleton
// segment per token of an n-token record and a segment per distinct span of
// two or more tokens that spans names as a (start, length) pair of bytes,
// taken modulo what fits: the shape of any record's segment list.
func spanSet(n int, spans []byte) []Segment {
	multi := make(map[strutil.Span]bool)
	for i := 0; i+1 < len(spans); i += 2 {
		start := int(spans[i]) % n
		if room := n - start; room >= 2 {
			multi[strutil.Span{Start: start, End: start + 2 + int(spans[i+1])%(room-1)}] = true
		}
	}
	var segs []Segment
	for start := 0; start < n; start++ {
		for end := start + 1; end <= n; end++ {
			if sp := (strutil.Span{Start: start, End: end}); end == start+1 || multi[sp] {
				segs = append(segs, Segment{Span: sp})
			}
		}
	}
	return segs
}

// checkMinPartition fails unless minPartitionSizeSegs over an n-token
// record's segments is the exhaustive minimum, and no smaller than the
// paper's greedy bound.
func checkMinPartition(t *testing.T, name string, n int, segs []Segment) {
	t.Helper()
	got, want := minPartitionSizeSegs(n, segs), exhaustiveMinPartition(segs, 0, n)
	if got != want {
		t.Fatalf("%s, %d tokens, segments %v: MP %d, exhaustive minimum %d", name, n, segs, got, want)
	}
	if greedy := paperGreedyBound(n, segs); got < greedy {
		t.Fatalf("%s, %d tokens: MP %d below the paper's greedy bound %d", name, n, got, greedy)
	}
}

// TestMinPartitionMatchesExhaustive holds the shortest-path bound to the
// minimum over every well-defined partition: on random span sets of up to 12
// tokens, beside the singletons; on the phrase corpus's records as the
// Segmenter enumerates them; and on records of 62 to 67 tokens, across the 64
// positions the bound keeps on the stack, with a dozen spans so the
// exhaustive walk stays small.
func TestMinPartitionMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	randomSpans := func(k int) []byte {
		b := make([]byte, 2*k)
		rng.Read(b)
		return b
	}
	tighter := 0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(12)
		segs := spanSet(n, randomSpans(rng.Intn(2*n)))
		checkMinPartition(t, "random spans", n, segs)
		if minPartitionSizeSegs(n, segs) > paperGreedyBound(n, segs) {
			tighter++
		}
	}
	if tighter == 0 {
		t.Fatal("the exact bound never exceeded the paper's greedy bound")
	}

	ctx, phrases := phraseContext()
	calc := NewCalculator(ctx)
	multi := 0
	for _, tokens := range phraseCorpus(rng, phrases, 500) {
		segs := calc.Segmenter().Segments(tokens)
		checkMinPartition(t, "phrase corpus", len(tokens), segs)
		if got, want := calc.Prepare(tokens).MinPartitionSize(), minPartitionSizeSegs(len(tokens), segs); got != want {
			t.Fatalf("%v: prepared MP %d, over its segments %d", tokens, got, want)
		}
		if len(segs) > len(tokens) {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no phrase-corpus record has a multi-token segment")
	}

	for n := 62; n <= 67; n++ {
		for trial := 0; trial < 50; trial++ {
			checkMinPartition(t, "long record", n, spanSet(n, randomSpans(12)))
		}
	}
}

// FuzzMinPartition holds the shortest-path bound to the exhaustive minimum on
// arbitrary span sets of up to 12 tokens (spanSet: n is 1 + n%12, spans the
// (start, length) bytes).
func FuzzMinPartition(f *testing.F) {
	// testdata/fuzz/FuzzMinPartition holds hand-made span sets as seeds.
	f.Add(uint8(3), []byte{0, 0})
	f.Fuzz(func(t *testing.T, n uint8, spans []byte) {
		tokens := 1 + int(n)%12
		checkMinPartition(t, "fuzzed spans", tokens, spanSet(tokens, spans))
	})
}

// BenchmarkPrepareLongRecord prepares one 65 536-token record that repeats a
// two-token rule side, so every other token starts a multi-token segment and
// the partition-size bound walks 98 304 segments with its shortest-path
// array on the heap.
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

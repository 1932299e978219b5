package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// similarity is Algorithm 1 on two raw strings, tokenised first.
func similarity(c *Calculator, s, t string) float64 {
	return c.SimilarityTokens(strutil.Tokenize(s), strutil.Tokenize(t))
}

// paperContext reproduces the knowledge sources of Figure 1.
func paperContext() *sim.Context {
	rules := synonym.NewRuleSet()
	rules.MustAdd("cake", "gateau", 1)
	rules.MustAdd("coffee shop", "cafe", 1)
	tax := taxonomy.NewTree("Wikipedia")
	food := tax.MustAddChild(tax.Root(), "food")
	coffee := tax.MustAddChild(food, "coffee")
	drinks := tax.MustAddChild(coffee, "coffee drinks")
	tax.MustAddChild(drinks, "espresso")
	tax.MustAddChild(drinks, "latte")
	cake := tax.MustAddChild(food, "cake")
	tax.MustAddChild(cake, "apple cake")
	return sim.NewContext(rules, tax)
}

// figure2Context encodes the strings and rules of Figure 2 / Example 5.
// Tokens are opaque letters; rule weights come from the vertex weights in
// Figure 2(b).
func figure2Context() *sim.Context {
	rules := synonym.NewRuleSet()
	rules.MustAdd("b c d", "f", 0.3)  // R1
	rules.MustAdd("b c", "f g", 0.13) // R2
	rules.MustAdd("c d", "f g", 0.22) // R3
	rules.MustAdd("a", "g", 0.09)     // R4
	rules.MustAdd("d", "h", 0.27)     // R5
	rules.MustAdd("z e f", "g", 0.5)  // R6 (not applicable to S)
	ctx := sim.NewContext(rules, nil)
	// Disable Jaccard so the example's arithmetic is exactly the paper's
	// (opaque letter tokens share no grams anyway, but q=2 padding of
	// single-letter tokens would otherwise add tiny weights).
	return ctx.WithMeasures(sim.SetSynonym)
}

func TestSegmentsPaperExample(t *testing.T) {
	ctx := paperContext()
	sg := NewSegmenter(ctx)
	tokens := strutil.Tokenize("coffee shop latte Helsingki")
	segs := sg.Segments(tokens)
	// Expected well-defined segments: the four single tokens plus
	// "coffee shop" (rule lhs). "shop latte" must not appear.
	var texts []string
	for _, s := range segs {
		texts = append(texts, strutil.JoinTokens(s.Tokens))
	}
	want := map[string]bool{
		"coffee": true, "shop": true, "latte": true, "helsingki": true,
		"coffee shop": true,
	}
	if len(segs) != len(want) {
		t.Fatalf("segments = %v, want %v", texts, want)
	}
	for _, txt := range texts {
		if !want[txt] {
			t.Errorf("unexpected segment %q", txt)
		}
	}
	// The multi-token segment is flagged as a rule side.
	for _, s := range segs {
		if strutil.JoinTokens(s.Tokens) == "coffee shop" && !s.Rule {
			t.Error("coffee shop should be marked as a rule segment")
		}
	}
}

func TestSegmentsTaxonomyEntities(t *testing.T) {
	ctx := paperContext()
	sg := NewSegmenter(ctx)
	tokens := strutil.Tokenize("apple cake gateau")
	segs := sg.Segments(tokens)
	foundEntity := false
	for _, s := range segs {
		if strutil.JoinTokens(s.Tokens) == "apple cake" {
			foundEntity = true
			if !s.Entity {
				t.Error("apple cake should be marked as a taxonomy entity")
			}
		}
	}
	if !foundEntity {
		t.Error("apple cake segment missing")
	}
	multi := sg.MultiTokenSegments(tokens)
	if len(multi) != 1 || strutil.JoinTokens(multi[0].Tokens) != "apple cake" {
		t.Errorf("MultiTokenSegments = %v", multi)
	}
}

// TestMinPartitionSize pins MP(S), the fewest segments of any well-defined
// partition, on Example 6's strings and at the edges, beside the value the
// paper's greedy GetMinPartitionSize gives (paperGreedyBound), which the
// exact minimum may exceed but never undercut.
func TestMinPartitionSize(t *testing.T) {
	calc := NewCalculator(paperContext())
	for _, tc := range []struct {
		name          string
		tokens        []string
		exact, greedy int
	}{
		// Example 6: T = "espresso cafe Helsinki" has three single-token
		// segments; the greedy's largest segment is 1 token, so its bound is
		// ceil(3 / (ln 1 + 1)) = 3 too.
		{"Example 6, T", strutil.Tokenize("espresso cafe Helsinki"), 3, 3},
		// S = "coffee shop latte Helsingki": the fewest segments are "coffee
		// shop" and two singletons. The paper divides the greedy's 3 picks
		// by ln 2 + 1 for its largest segment of 2 tokens and gets 2.
		{"Example 6, S", strutil.Tokenize("coffee shop latte Helsingki"), 3, 2},
		{"empty", nil, 0, 0},
		{"single", []string{"solo"}, 1, 1},
		// 67 tokens, past the 64 positions the bound keeps on the stack: the
		// 33 "coffee shop" spans and the trailing singleton; the greedy's 34
		// picks over ln 2 + 1 give 21.
		{"67 tokens", strutil.Tokenize(strings.Repeat("coffee shop ", 33) + "latte"), 34, 21},
	} {
		if got := calc.Prepare(tc.tokens).MinPartitionSize(); got != tc.exact {
			t.Errorf("%s: MinPartitionSize = %d, want %d", tc.name, got, tc.exact)
		}
		if len(tc.tokens) == 0 {
			continue
		}
		if greedy := paperGreedyBound(len(tc.tokens), calc.Segmenter().Segments(tc.tokens)); greedy != tc.greedy || greedy > tc.exact {
			t.Errorf("%s: the paper's greedy bound = %d, want %d, at most the exact %d", tc.name, greedy, tc.greedy, tc.exact)
		}
	}
}

func TestCandidatePairsAndGraphFigure1(t *testing.T) {
	ctx := paperContext()
	sg := NewSegmenter(ctx)
	s := strutil.Tokenize("coffee shop latte Helsingki")
	u := strutil.Tokenize("espresso cafe Helsinki")
	pairs := sg.CandidatePairs(s, u)
	// Only one multi-token candidate applies: "coffee shop" ↔ "cafe".
	if len(pairs) != 1 {
		t.Fatalf("CandidatePairs = %+v, want exactly 1", pairs)
	}
	p := pairs[0]
	if p.Kind != PairRule || !approxEq(p.Weight, 1) {
		t.Errorf("pair = %+v, want rule pair with weight 1", p)
	}
	if p.Kind.String() != "rule" {
		t.Errorf("Kind.String = %q", p.Kind.String())
	}
	cg := BuildConflictGraph(pairs)
	if cg.Graph.Len() != 1 {
		t.Errorf("graph size = %d, want 1", cg.Graph.Len())
	}
}

func TestUnifiedSimilarityFigure1(t *testing.T) {
	ctx := paperContext()
	calc := NewCalculator(ctx)
	s := "coffee shop latte Helsingki"
	u := "espresso cafe Helsinki"
	// With Eq. (1) Jaccard on 2-grams, the three matched segments score
	// 1 ("coffee shop"→"cafe"), 0.8 (latte/espresso via taxonomy) and
	// 2/3 (Helsingki/Helsinki), giving (1 + 0.8 + 2/3)/3.
	want := (1 + 0.8 + 2.0/3.0) / 3
	got := similarity(calc, s, u)
	if !approxEq(got, want) {
		t.Errorf("Similarity = %v, want %v", got, want)
	}
	// Exact solver agrees (the 3-segment partition is optimal).
	exact := calc.SimilarityExact(s, u)
	if !exact.Complete {
		t.Fatal("exact solver did not complete")
	}
	if !approxEq(exact.Similarity, want) {
		t.Errorf("exact = %v, want %v", exact.Similarity, want)
	}
	// Symmetry of the unified measure.
	if !approxEq(similarity(calc, u, s), got) {
		t.Errorf("similarity not symmetric: %v vs %v", similarity(calc, u, s), got)
	}
}

func TestUnifiedSimilarityAlternativePartitionIsWorse(t *testing.T) {
	ctx := paperContext()
	calc := NewCalculator(ctx)
	sg := calc.Segmenter()
	s := strutil.Tokenize("coffee shop latte Helsingki")
	u := strutil.Tokenize("espresso cafe Helsinki")
	// The all-singleton partition of S (Example 3(ii)) must score lower
	// than the partition that keeps "coffee shop" together.
	psAll := buildPartition(s, nil)
	pt := buildPartition(u, nil)
	allSingle := calc.SIM(psAll, pt)
	best := calc.SimilarityTokens(s, u)
	if allSingle >= best {
		t.Errorf("all-singleton partition %v should be worse than best %v", allSingle, best)
	}
	_ = sg
}

func TestExample5Figure2(t *testing.T) {
	ctx := figure2Context()
	calc := NewCalculator(ctx)
	calc.T = 50 // allow improvements of ≥ 0.02
	s := "a b c d e"
	u := "f g h"

	sg := calc.Segmenter()
	pairs := sg.CandidatePairs(strutil.Tokenize(s), strutil.Tokenize(u))
	// Applicable rules: R1..R5 (R6's lhs is not a segment of S). R4 and R5
	// are single↔single rules and are excluded from the w-MIS graph by the
	// refinement, so the graph holds R1, R2, R3.
	if len(pairs) != 3 {
		t.Fatalf("CandidatePairs = %+v, want 3 multi-token rule pairs", pairs)
	}

	// Example 5: the best selection is {R1, R4}: partitions
	// PS = {{a},{b,c,d},{e}}, PT = {{f},{g},{h}} with similarity
	// (0.3 + 0.09)/3 = 0.13.
	got := similarity(calc, s, u)
	if !approxEq(got, 0.13) {
		t.Errorf("Similarity = %v, want 0.13", got)
	}
	exact := calc.SimilarityExact(s, u)
	if !exact.Complete || !approxEq(exact.Similarity, 0.13) {
		t.Errorf("exact = %+v, want 0.13", exact)
	}
}

func TestTheorem2TightInstance(t *testing.T) {
	// The appendix constructs an instance where SquareImp alone picks the
	// single heavy rule R_{k+1} while the optimum uses the k light rules.
	// With k = 3: S = {m1,m2,q1}, T = {n1,p1..p4,q2} and rules as below.
	rules := synonym.NewRuleSet()
	rules.MustAdd("m1", "p1 p2", 0.4)  // R1
	rules.MustAdd("m2", "p3 p4", 0.4)  // R2
	rules.MustAdd("q1", "n1 q2", 0.4)  // R3 (the k-th rule)
	rules.MustAdd("m1 m2", "n1", 0.75) // R4 = R_{k+1}
	ctx := sim.NewContext(rules, nil).WithMeasures(sim.SetSynonym)
	calc := NewCalculator(ctx)
	calc.T = 100
	s := "m1 m2 q1"
	// Token order keeps each rule's right-hand side consecutive so that it
	// forms a well-defined segment of T.
	u := "p1 p2 p3 p4 n1 q2"
	exact := calc.SimilarityExact(s, u)
	if !exact.Complete {
		t.Fatal("exact did not complete")
	}
	// Optimal: apply R1, R2, R3 → PS has 3 segments, PT has 3 segments,
	// similarity (0.4·3)/3 = 0.4.
	if !approxEq(exact.Similarity, 0.4) {
		t.Errorf("exact = %v, want 0.4", exact.Similarity)
	}
	approx := similarity(calc, s, u)
	if approx > exact.Similarity+1e-9 {
		t.Errorf("approximation %v exceeds exact %v", approx, exact.Similarity)
	}
	// Theorem 2 bound with k = 3, t = 100: ratio ≥ 1 / ((t/(t-1))·(k²-1)/2) = 1/4.04...
	if approx < exact.Similarity/4.1 {
		t.Errorf("approximation %v below the Theorem 2 bound for exact %v", approx, exact.Similarity)
	}
}

func TestSimilarityEdgeCases(t *testing.T) {
	calc := NewCalculator(paperContext())
	if got := similarity(calc, "", ""); got != 1 {
		t.Errorf("empty-empty = %v, want 1", got)
	}
	if got := similarity(calc, "coffee", ""); got != 0 {
		t.Errorf("nonempty-empty = %v, want 0", got)
	}
	if got := similarity(calc, "", "coffee"); got != 0 {
		t.Errorf("empty-nonempty = %v, want 0", got)
	}
	if got := similarity(calc, "espresso", "espresso"); !approxEq(got, 1) {
		t.Errorf("identical = %v, want 1", got)
	}
	ex := calc.SimilarityExact("", "")
	if ex.Similarity != 1 || !ex.Complete {
		t.Errorf("exact empty-empty = %+v", ex)
	}
	ex = calc.SimilarityExact("coffee", "")
	if ex.Similarity != 0 {
		t.Errorf("exact nonempty-empty = %+v", ex)
	}
}

func TestSimilarityNoKnowledgeFallsBackToTokenMatching(t *testing.T) {
	ctx := &sim.Context{Q: 2, Measures: sim.SetJaccard}
	calc := NewCalculator(ctx)
	// Without rules or taxonomy the unified similarity is the best token
	// matching under Jaccard: identical strings score 1.
	if got := similarity(calc, "database systems", "database systems"); !approxEq(got, 1) {
		t.Errorf("identical = %v, want 1", got)
	}
	got := similarity(calc, "database systems", "database system")
	if got <= 0.5 || got >= 1 {
		t.Errorf("near-identical = %v, want in (0.5, 1)", got)
	}
}

func TestSimilarityAtLeast(t *testing.T) {
	calc := NewCalculator(paperContext())
	s := strutil.Tokenize("coffee shop latte Helsingki")
	u := strutil.Tokenize("espresso cafe Helsinki")
	atLeast := func(theta float64) bool {
		_, ok := calc.VerifyPrepared(calc.Prepare(s), calc.Prepare(u), theta, NewScratch())
		return ok
	}
	if !atLeast(0.8) {
		t.Error("expected similarity ≥ 0.8")
	}
	if atLeast(0.95) {
		t.Error("similarity should not reach 0.95")
	}
}

func TestApproximationNeverExceedsExact(t *testing.T) {
	ctx := paperContext()
	calc := NewCalculator(ctx)
	vocab := []string{"coffee", "shop", "latte", "espresso", "cafe", "helsinki",
		"helsingki", "cake", "apple", "gateau", "food", "drinks"}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		var sTok, tTok []string
		for i := 0; i < n; i++ {
			sTok = append(sTok, vocab[rng.Intn(len(vocab))])
		}
		for i := 0; i < m; i++ {
			tTok = append(tTok, vocab[rng.Intn(len(vocab))])
		}
		exact := calc.SimilarityTokensExact(sTok, tTok)
		if !exact.Complete {
			continue
		}
		approx := calc.SimilarityTokens(sTok, tTok)
		if approx > exact.Similarity+1e-9 {
			t.Fatalf("trial %d: approx %v > exact %v for %v / %v",
				trial, approx, exact.Similarity, sTok, tTok)
		}
	}
}

func TestApproximationRatio(t *testing.T) {
	calc := NewCalculator(paperContext())
	r, complete := calc.ApproximationRatio("coffee shop latte Helsingki", "espresso cafe Helsinki")
	if !complete {
		t.Fatal("exact incomplete")
	}
	if r <= 0 || r > 1 {
		t.Errorf("ratio = %v, want in (0,1]", r)
	}
	if !approxEq(r, 1) {
		t.Errorf("ratio on the Figure 1 pair = %v, want 1", r)
	}
	// Dissimilar pair: exact similarity may be 0 for fully disjoint strings
	// only when Jaccard is off; with Jaccard the ratio is still in (0,1].
	r, _ = calc.ApproximationRatio("xyz", "abc")
	if r <= 0 || r > 1 {
		t.Errorf("ratio = %v, want in (0,1]", r)
	}
}

func TestSimilarityRangeAndSymmetryProperty(t *testing.T) {
	calc := NewCalculator(paperContext())
	vocab := []string{"coffee", "shop", "latte", "espresso", "cafe", "helsinki", "cake", "apple"}
	f := func(a, b, c, d, e uint8) bool {
		sTok := []string{vocab[int(a)%len(vocab)], vocab[int(b)%len(vocab)]}
		tTok := []string{vocab[int(c)%len(vocab)], vocab[int(d)%len(vocab)], vocab[int(e)%len(vocab)]}
		v := calc.SimilarityTokens(sTok, tTok)
		w := calc.SimilarityTokens(tTok, sTok)
		return v >= 0 && v <= 1+1e-9 && approxEq(v, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMeasureRestrictedCalculators(t *testing.T) {
	base := paperContext()
	s := "coffee shop latte Helsingki"
	u := "espresso cafe Helsinki"
	full := similarity(NewCalculator(base), s, u)
	jOnly := similarity(NewCalculator(base.WithMeasures(sim.SetJaccard)), s, u)
	sOnly := similarity(NewCalculator(base.WithMeasures(sim.SetSynonym)), s, u)
	tOnly := similarity(NewCalculator(base.WithMeasures(sim.SetTaxonomy)), s, u)
	if full < jOnly-1e-9 || full < sOnly-1e-9 || full < tOnly-1e-9 {
		t.Errorf("unified %v should dominate single measures %v %v %v", full, jOnly, sOnly, tOnly)
	}
	if jOnly >= full {
		t.Errorf("Jaccard-only %v should be strictly below unified %v on the POI pair", jOnly, full)
	}
}

func TestCalculatorDefaults(t *testing.T) {
	c := &Calculator{Ctx: paperContext()}
	if c.tParam() != DefaultT {
		t.Errorf("tParam = %v, want %v", c.tParam(), DefaultT)
	}
	if c.maxTalons() != DefaultMaxTalons {
		t.Errorf("maxTalons = %v", c.maxTalons())
	}
	if c.exactBudget() != DefaultExactBudget {
		t.Errorf("exactBudget = %v", c.exactBudget())
	}
	// Segmenter is lazily created.
	if c.Segmenter() == nil {
		t.Fatal("Segmenter should not be nil")
	}
	c.T = 10
	c.MaxTalons = 2
	c.ExactBudget = 5
	if c.tParam() != 10 || c.maxTalons() != 2 || c.exactBudget() != 5 {
		t.Error("explicit parameters not honoured")
	}
}

func TestExactBudgetExhaustion(t *testing.T) {
	calc := NewCalculator(paperContext())
	calc.ExactBudget = 1
	res := calc.SimilarityExact("coffee shop latte", "espresso cafe latte")
	if res.Complete {
		t.Error("expected incomplete exact result with budget 1")
	}
	if res.Evaluated != 1 {
		t.Errorf("Evaluated = %d, want 1", res.Evaluated)
	}
}

func TestEnumeratePartitionsCounts(t *testing.T) {
	ctx := paperContext()
	sg := NewSegmenter(ctx)
	tokens := strutil.Tokenize("coffee shop latte")
	parts := enumeratePartitions(tokens, sg.MultiTokenSegments(tokens))
	// Two partitions: all singletons, and {coffee shop, latte}.
	if len(parts) != 2 {
		t.Fatalf("partitions = %d, want 2", len(parts))
	}
	sizes := map[int]bool{}
	for _, p := range parts {
		sizes[p.Size()] = true
		// Every partition must cover all tokens exactly once.
		covered := 0
		for _, seg := range p.Segments {
			covered += seg.Span.Len()
		}
		if covered != len(tokens) {
			t.Errorf("partition %v covers %d tokens, want %d", p, covered, len(tokens))
		}
	}
	if !sizes[2] || !sizes[3] {
		t.Errorf("expected partition sizes 2 and 3, got %v", sizes)
	}
}

func TestMSimMatrixShape(t *testing.T) {
	ctx := paperContext()
	calc := NewCalculator(ctx)
	sTok := strutil.Tokenize("coffee shop latte")
	tTok := strutil.Tokenize("cafe espresso")
	ps := buildPartition(sTok, []Segment{{Span: strutil.Span{Start: 0, End: 2}, Tokens: sTok[0:2]}})
	pt := buildPartition(tTok, nil)
	m := MSimMatrix(ctx, ps, pt)
	if len(m) != ps.Size() || len(m[0]) != pt.Size() {
		t.Fatalf("matrix shape %dx%d, want %dx%d", len(m), len(m[0]), ps.Size(), pt.Size())
	}
	// coffee shop ↔ cafe must have weight 1 (synonym rule).
	found := false
	for i, seg := range ps.Segments {
		if strutil.JoinTokens(seg.Tokens) == "coffee shop" {
			for j, tseg := range pt.Segments {
				if strutil.JoinTokens(tseg.Tokens) == "cafe" && approxEq(m[i][j], 1) {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("synonym weight missing from msim matrix")
	}
	_ = calc
}

func BenchmarkSimilarityPOI(b *testing.B) {
	calc := NewCalculator(paperContext())
	s := strutil.Tokenize("coffee shop latte Helsingki")
	u := strutil.Tokenize("espresso cafe Helsinki")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		calc.SimilarityTokens(s, u)
	}
}

func BenchmarkSimilarityExactPOI(b *testing.B) {
	calc := NewCalculator(paperContext())
	s := strutil.Tokenize("coffee shop latte Helsingki")
	u := strutil.Tokenize("espresso cafe Helsinki")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		calc.SimilarityTokensExact(s, u)
	}
}

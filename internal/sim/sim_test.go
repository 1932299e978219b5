package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestJaccardPaperExample(t *testing.T) {
	// Example 2(i): sim_j("Helsingki", "Helsinki") = 6/9.
	got := JaccardGrams("helsingki", "helsinki", 2)
	if !approxEq(got, 6.0/9.0) {
		t.Errorf("Jaccard = %v, want %v", got, 6.0/9.0)
	}
	// Figure 1(c): Jaccard("Helsingki","Helsinki") reported as 0.875 for the
	// overlap-style computation is not used here; Eq. (1) gives 2/3.
}

func TestJaccardGramsBasics(t *testing.T) {
	cases := []struct {
		name string
		a, b string
		want float64
	}{
		{"empty-empty", "", "", 1},
		{"nonempty-empty", "abc", "", 0},
		{"identical", "abc", "abc", 1},
		{"disjoint", "abc", "xyz", 0},
		// {ab, bc, cd} and {ab, bc, ce} share two of four grams.
		{"partial", "abcd", "abce", 0.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := JaccardGrams(c.a, c.b, 2); !approxEq(got, c.want) {
				t.Errorf("JaccardGrams(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
			}
			if got := JaccardGrams(c.b, c.a, 2); !approxEq(got, c.want) {
				t.Errorf("JaccardGrams(%q, %q) = %v, want %v", c.b, c.a, got, c.want)
			}
		})
	}
}

func TestJaccardGramsProperties(t *testing.T) {
	f := func(a, b string) bool {
		x := JaccardGrams(a, b, 2)
		if !approxEq(x, JaccardGrams(b, a, 2)) {
			return false // symmetry
		}
		return x >= -1e-12 && x <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeasureStrings(t *testing.T) {
	if Jaccard.String() != "J" || Synonym.String() != "S" || Taxonomy.String() != "T" {
		t.Error("unexpected measure letters")
	}
	if Measure(99).String() != "?" {
		t.Error("unknown measure should render ?")
	}
	if SetAll.String() != "TJS" {
		t.Errorf("SetAll = %q, want TJS", SetAll.String())
	}
	if (SetJaccard | SetSynonym).String() != "JS" {
		t.Errorf("JS = %q", (SetJaccard | SetSynonym).String())
	}
	if MeasureSet(0).String() != "none" {
		t.Errorf("zero set = %q", MeasureSet(0).String())
	}
}

func TestParseMeasureSet(t *testing.T) {
	tests := []struct {
		in   string
		want MeasureSet
	}{
		{"TJS", SetAll},
		{"tjs", SetAll},
		{"J", SetJaccard},
		{"st", SetSynonym | SetTaxonomy},
		{"", SetAll},
		{"xyz", SetAll},
		{"JJ", SetJaccard},
	}
	for _, tt := range tests {
		if got := ParseMeasureSet(tt.in); got != tt.want {
			t.Errorf("ParseMeasureSet(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func paperContext(t *testing.T) *Context {
	t.Helper()
	rules := synonym.NewRuleSet()
	rules.MustAdd("coffee shop", "cafe", 1)
	rules.MustAdd("cake", "gateau", 1)
	tax := taxonomy.NewTree("Wikipedia")
	food := tax.MustAddChild(tax.Root(), "food")
	coffee := tax.MustAddChild(food, "coffee")
	drinks := tax.MustAddChild(coffee, "coffee drinks")
	tax.MustAddChild(drinks, "espresso")
	tax.MustAddChild(drinks, "latte")
	cake := tax.MustAddChild(food, "cake")
	tax.MustAddChild(cake, "apple cake")
	return NewContext(rules, tax)
}

func TestContextSegmentMeasures(t *testing.T) {
	ctx := paperContext(t)
	if got := ctx.SegmentSynonym([]string{"coffee", "shop"}, []string{"cafe"}); got != 1 {
		t.Errorf("SegmentSynonym = %v, want 1", got)
	}
	if got := ctx.SegmentTaxonomy([]string{"latte"}, []string{"espresso"}); !approxEq(got, 0.8) {
		t.Errorf("SegmentTaxonomy = %v, want 0.8", got)
	}
	if got := ctx.SegmentTaxonomy([]string{"latte"}, []string{"helsinki"}); got != 0 {
		t.Errorf("SegmentTaxonomy with non-entity = %v, want 0", got)
	}
	if got := ctx.SegmentJaccard([]string{"helsingki"}, []string{"helsinki"}); !approxEq(got, 2.0/3.0) {
		t.Errorf("SegmentJaccard = %v, want 2/3", got)
	}
}

func TestMSimSelectsMaximum(t *testing.T) {
	ctx := paperContext(t)
	// Section 2.2: msim("cake", "apple cake") = max{0.33.., 0.75} = 0.75,
	// attained by the taxonomy measure.
	a, b := []string{"cake"}, []string{"apple", "cake"}
	if got := ctx.MSim(a, b); !approxEq(got, 0.75) {
		t.Errorf("MSim = %v, want 0.75", got)
	}
	if got := ctx.SegmentTaxonomy(a, b); !approxEq(got, 0.75) {
		t.Errorf("SegmentTaxonomy = %v, want 0.75", got)
	}
	if j, s := ctx.SegmentJaccard(a, b), ctx.SegmentSynonym(a, b); j >= 0.75 || s >= 0.75 {
		t.Errorf("SegmentJaccard = %v, SegmentSynonym = %v: not below the taxonomy measure", j, s)
	}
}

func TestMeasureRestriction(t *testing.T) {
	ctx := paperContext(t)
	jOnly := ctx.WithMeasures(SetJaccard)
	if jOnly.SynonymEnabled() || jOnly.TaxonomyEnabled() {
		t.Error("only Jaccard should be enabled")
	}
	got := jOnly.MSim([]string{"cake"}, []string{"apple", "cake"})
	want := JaccardGrams("cake", "apple cake", 2)
	if !approxEq(got, want) {
		t.Errorf("restricted MSim = %v, want %v", got, want)
	}
	if got := jOnly.SegmentSynonym([]string{"coffee", "shop"}, []string{"cafe"}); got != 0 {
		t.Errorf("disabled synonym measure returned %v", got)
	}
	if got := jOnly.SegmentTaxonomy([]string{"latte"}, []string{"espresso"}); got != 0 {
		t.Errorf("disabled taxonomy measure returned %v", got)
	}
	tOnly := ctx.WithMeasures(SetTaxonomy)
	if tOnly.JaccardEnabled() {
		t.Error("Jaccard should be disabled in T-only context")
	}
}

func TestContextDefaults(t *testing.T) {
	var nilCtx *Context
	if q := nilCtx.GramQ(); q != DefaultQ {
		t.Errorf("nil context GramQ = %d, want %d", q, DefaultQ)
	}
	ctx := &Context{}
	if !ctx.JaccardEnabled() {
		t.Error("zero-measure context should enable everything")
	}
	if ctx.SynonymEnabled() {
		t.Error("synonym requires a rule set")
	}
	if ctx.TaxonomyEnabled() {
		t.Error("taxonomy requires a tree")
	}
	if got := ctx.MaxRuleTokens(); got != 1 {
		t.Errorf("MaxRuleTokens with no knowledge = %d, want 1", got)
	}
}

func TestMaxRuleTokens(t *testing.T) {
	ctx := paperContext(t)
	// "coffee shop", "coffee drinks" and "apple cake" all have 2 tokens.
	if got := ctx.MaxRuleTokens(); got != 2 {
		t.Errorf("MaxRuleTokens = %d, want 2", got)
	}
}

func TestMSimRangeProperty(t *testing.T) {
	ctx := paperContext(t)
	words := []string{"coffee", "shop", "cafe", "latte", "espresso", "cake", "helsinki", "helsingki", "apple"}
	f := func(a, b, c, d uint8) bool {
		s1 := []string{words[int(a)%len(words)], words[int(b)%len(words)]}
		s2 := []string{words[int(c)%len(words)], words[int(d)%len(words)]}
		v := ctx.MSim(s1, s2)
		w := ctx.MSim(s2, s1)
		return approxEq(v, w) && v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkJaccardGrams(b *testing.B) {
	s := strings.Repeat("similarity join benchmark ", 4)
	t := strings.Repeat("similarity joins benchmarks ", 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		JaccardGrams(s, t, 2)
	}
}

// TestScoreBitsDecideZeroCells checks the claim MSimRow's callers rest on: a
// cell of two texts that share no gram and no score bit is 0, for every q and
// measure combination, over texts with rule sides, taxonomy nodes, both,
// neither and none at all, and the empty text.
func TestScoreBitsDecideZeroCells(t *testing.T) {
	texts := []string{"", "coffee shop", "cafe", "cake", "gateau", "latte", "espresso", "apple cake",
		"coffee", "helsinki", "helsingki", "zz", "x"}
	decided := 0 // non-zero cells with no shared gram, decided by a bit
	for q := 1; q <= 5; q++ {
		for ms := MeasureSet(1); ms <= SetAll; ms++ {
			ctx := paperContext(t).WithMeasures(ms)
			ctx.Q = q
			data := make([]SegmentData, len(texts))
			for i, s := range texts {
				data[i] = ctx.PrepareSegment(s)
			}
			for i := range data {
				for j := range data {
					a, b := &data[i], &data[j]
					if a.Grams.Overlap(b.Grams) > 0 {
						continue
					}
					v := ctx.MSimData(a, b)
					if a.Score()&b.Score() == 0 && v != 0 {
						t.Fatalf("q=%d %v: msim(%q, %q) = %v with no shared gram, score bits %03b and %03b",
							q, ms, a.Text, b.Text, v, a.Score(), b.Score())
					}
					if v != 0 {
						decided++
					}
				}
			}
		}
	}
	if decided == 0 {
		t.Fatal("no cell without a shared gram scored: the bits decided nothing")
	}
}

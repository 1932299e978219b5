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

func TestGramMeasuresBasics(t *testing.T) {
	cases := []struct {
		name string
		f    func(s, t string, q int) float64
	}{
		{"jaccard", JaccardGrams},
		{"cosine", CosineGrams},
		{"dice", DiceGrams},
		{"overlap", OverlapGrams},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.f("", "", 2); got != 1 {
				t.Errorf("empty-empty = %v, want 1", got)
			}
			if got := c.f("abc", "", 2); got != 0 {
				t.Errorf("nonempty-empty = %v, want 0", got)
			}
			if got := c.f("abc", "abc", 2); !approxEq(got, 1) {
				t.Errorf("identical = %v, want 1", got)
			}
			if got := c.f("abc", "xyz", 2); got != 0 {
				t.Errorf("disjoint = %v, want 0", got)
			}
		})
	}
}

func TestGramMeasureProperties(t *testing.T) {
	fns := map[string]func(s, t string, q int) float64{
		"jaccard": JaccardGrams,
		"cosine":  CosineGrams,
		"dice":    DiceGrams,
		"overlap": OverlapGrams,
	}
	for name, fn := range fns {
		f := func(a, b string) bool {
			x := fn(a, b, 2)
			y := fn(b, a, 2)
			if !approxEq(x, y) {
				return false // symmetry
			}
			return x >= -1e-12 && x <= 1+1e-12
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestOrderingJaccardLeDiceLeOverlap(t *testing.T) {
	// For any pair: Jaccard <= Dice <= Overlap (classic set inequality).
	f := func(a, b string) bool {
		j := JaccardGrams(a, b, 2)
		d := DiceGrams(a, b, 2)
		o := OverlapGrams(a, b, 2)
		return j <= d+1e-12 && d <= o+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHammingDistance(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"abc", "abcd", 1},
		{"", "abc", 3},
		{"karolin", "kathrin", 3},
	}
	for _, tt := range tests {
		if got := HammingDistance(tt.a, tt.b); got != tt.want {
			t.Errorf("Hamming(%q,%q) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
		if got := HammingDistance(tt.b, tt.a); got != tt.want {
			t.Errorf("Hamming(%q,%q) = %d, want %d", tt.b, tt.a, got, tt.want)
		}
	}
}

func TestLevenshtein(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"kitten", "sitting", 3},
		{"helsingki", "helsinki", 1},
		{"abc", "", 3},
		{"", "abc", 3},
		{"same", "same", 0},
		{"california", "callifornia", 1},
	}
	for _, tt := range tests {
		if got := Levenshtein(tt.a, tt.b); got != tt.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		d := Levenshtein(a, b)
		if d != Levenshtein(b, a) {
			return false
		}
		diff := len(a) - len(b)
		if diff < 0 {
			diff = -diff
		}
		maxLen := len(a)
		if len(b) > maxLen {
			maxLen = len(b)
		}
		return d >= diff && d <= maxLen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizedEditSimilarity(t *testing.T) {
	if got := NormalizedEditSimilarity("", ""); got != 1 {
		t.Errorf("empty = %v, want 1", got)
	}
	if got := NormalizedEditSimilarity("abcd", "abcd"); got != 1 {
		t.Errorf("identical = %v, want 1", got)
	}
	got := NormalizedEditSimilarity("helsingki", "helsinki")
	if !approxEq(got, 1-1.0/9.0) {
		t.Errorf("similarity = %v, want %v", got, 1-1.0/9.0)
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
	// Section 2.2: msim("cake", "apple cake") = max{0.33.., 0.75} = 0.75.
	got, m := ctx.MSimBest([]string{"cake"}, []string{"apple", "cake"})
	if !approxEq(got, 0.75) {
		t.Errorf("MSim = %v, want 0.75", got)
	}
	if m != Taxonomy {
		t.Errorf("best measure = %v, want Taxonomy", m)
	}
	if got := ctx.MSim([]string{"cake"}, []string{"apple", "cake"}); !approxEq(got, 0.75) {
		t.Errorf("MSim = %v, want 0.75", got)
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

func TestSqrtf(t *testing.T) {
	for _, x := range []float64{0, 1, 2, 4, 100, 12345.678} {
		got := sqrtf(x)
		want := math.Sqrt(x)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("sqrtf(%v) = %v, want %v", x, got, want)
		}
	}
	if got := sqrtf(-1); got != 0 {
		t.Errorf("sqrtf(-1) = %v, want 0", got)
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

func BenchmarkLevenshtein(b *testing.B) {
	s := strings.Repeat("abcdefgh", 8)
	t := strings.Repeat("abcdefhh", 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Levenshtein(s, t)
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

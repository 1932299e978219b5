package pebble

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// testSelector builds a selector whose global order is derived from a small
// corpus containing the paper's POI strings.
func testSelector(t *testing.T, theta float64) (*Selector, *sim.Context) {
	t.Helper()
	ctx := paperContext()
	gen := NewGenerator(ctx)
	corpus := [][]string{
		strutil.Tokenize("coffee shop latte Helsingki"),
		strutil.Tokenize("espresso cafe Helsinki"),
		strutil.Tokenize("apple cake bakery"),
		strutil.Tokenize("cake gateau shop"),
		strutil.Tokenize("coffee house espresso"),
	}
	order := buildOrder(gen, corpus)
	return NewSelector(gen, order, theta), ctx
}

func TestSignatureBasics(t *testing.T) {
	sel, _ := testSelector(t, 0.8)
	tokens := strutil.Tokenize("espresso cafe Helsinki")
	pre := sel.Prepare(tokens)
	sig := sel.Select(pre, UFilter, 1)
	if sig.Len() == 0 {
		t.Fatal("U-Filter signature should not be empty for a matchable string")
	}
	if sig.Len() > len(pre.Pebbles) {
		t.Fatal("signature longer than pebble list")
	}
	if pre.MinPartition != 3 {
		t.Errorf("MinPartition = %d, want 3", pre.MinPartition)
	}
	if pre.NumSegments != 3 {
		t.Errorf("NumSegments = %d, want 3", pre.NumSegments)
	}
	// The signature must be a prefix of the sorted pebble list.
	for i, p := range sig.Pebbles {
		if p != pre.Pebbles[i] {
			t.Fatalf("signature is not a prefix at %d", i)
		}
	}
}

func TestSignatureEmptyString(t *testing.T) {
	sel, _ := testSelector(t, 0.8)
	pre := sel.Prepare(nil)
	if sig := sel.Select(pre, AUDP, 3); sig.Len() != 0 || len(pre.Pebbles) != 0 {
		t.Errorf("empty string: signature %+v of %d pebbles", sig, len(pre.Pebbles))
	}
}

func TestSignatureLengthMonotoneInTau(t *testing.T) {
	sel, _ := testSelector(t, 0.8)
	tokens := strutil.Tokenize("coffee shop latte Helsingki")
	prev := -1
	for tau := 1; tau <= 6; tau++ {
		sig := sel.Signature(tokens, AUHeuristic, tau)
		if prev >= 0 && sig.Len() < prev {
			t.Fatalf("heuristic signature length decreased from %d to %d at τ=%d", prev, sig.Len(), tau)
		}
		prev = sig.Len()
	}
	prev = -1
	for tau := 1; tau <= 6; tau++ {
		sig := sel.Signature(tokens, AUDP, tau)
		if prev >= 0 && sig.Len() < prev {
			t.Fatalf("DP signature length decreased from %d to %d at τ=%d", prev, sig.Len(), tau)
		}
		prev = sig.Len()
	}
}

func TestDPNeverLongerThanHeuristic(t *testing.T) {
	sel, _ := testSelector(t, 0.8)
	inputs := []string{
		"coffee shop latte Helsingki",
		"espresso cafe Helsinki",
		"apple cake bakery",
		"cake gateau shop",
	}
	for _, raw := range inputs {
		tokens := strutil.Tokenize(raw)
		for tau := 1; tau <= 5; tau++ {
			h := sel.Signature(tokens, AUHeuristic, tau).Len()
			d := sel.Signature(tokens, AUDP, tau).Len()
			if d > h {
				t.Errorf("%q τ=%d: DP signature %d longer than heuristic %d", raw, tau, d, h)
			}
		}
	}
}

func TestUFilterEqualsHeuristicTau1(t *testing.T) {
	sel, _ := testSelector(t, 0.85)
	tokens := strutil.Tokenize("espresso cafe Helsinki")
	u := sel.Signature(tokens, UFilter, 5) // τ ignored
	h := sel.Signature(tokens, AUHeuristic, 1)
	if u.Len() != h.Len() {
		t.Errorf("U-Filter length %d != heuristic(τ=1) length %d", u.Len(), h.Len())
	}
}

func TestSignatureLengthShrinksWithTheta(t *testing.T) {
	// As in classic prefix filtering, a higher join threshold lets the
	// filter discard more pebbles, so signatures never grow as θ grows.
	tokens := strutil.Tokenize("coffee shop latte Helsingki")
	prev := -1
	for _, theta := range []float64{0.5, 0.7, 0.9, 0.99} {
		sel, _ := testSelector(t, theta)
		sig := sel.Signature(tokens, AUHeuristic, 2)
		if prev >= 0 && sig.Len() > prev {
			t.Fatalf("signature length grew when θ grew: %d -> %d", prev, sig.Len())
		}
		prev = sig.Len()
	}
}

// overlapCount counts shared pebble occurrences between two signatures the
// way Algorithm 6 does: the inverted list of a key holds a string once per
// pebble carrying that key, so a pair is counted once per (S-pebble,
// T-pebble) combination with a common key.
func overlapCount(a, b Signature) int {
	countA := map[string]int{}
	for _, p := range a.Pebbles {
		countA[p.Key]++
	}
	n := 0
	for _, p := range b.Pebbles {
		n += countA[p.Key]
	}
	return n
}

// TestFilterCompleteness is the central correctness property (Lemmas 1 and
// 2): any pair whose unified similarity reaches θ must share at least τ
// pebbles between their signatures (at least 1 for U-Filter).
func TestFilterCompleteness(t *testing.T) {
	ctx := paperContext()
	gen := NewGenerator(ctx)
	calc := core.NewCalculator(ctx)

	corpus := []string{
		"coffee shop latte Helsingki",
		"espresso cafe Helsinki",
		"apple cake bakery",
		"cake gateau shop",
		"coffee house espresso",
		"latte coffee drinks",
		"cafe helsinki espresso",
		"apple cake gateau",
		"coffee shop cafe",
		"espresso latte coffee",
	}
	var tokenised [][]string
	for _, s := range corpus {
		tokenised = append(tokenised, strutil.Tokenize(s))
	}
	order := buildOrder(gen, tokenised)

	for _, theta := range []float64{0.6, 0.75, 0.9} {
		sel := NewSelector(gen, order, theta)
		for _, method := range []Method{UFilter, AUHeuristic, AUDP} {
			for tau := 1; tau <= 3; tau++ {
				if method == UFilter && tau > 1 {
					continue
				}
				sigs := make([]Signature, len(tokenised))
				for i, tok := range tokenised {
					sigs[i] = sel.Signature(tok, method, tau)
				}
				for i := 0; i < len(tokenised); i++ {
					for j := i + 1; j < len(tokenised); j++ {
						usim := calc.SimilarityTokens(tokenised[i], tokenised[j])
						if usim < theta {
							continue
						}
						need := tau
						if method == UFilter {
							need = 1
						}
						if got := overlapCount(sigs[i], sigs[j]); got < need {
							t.Errorf("%s θ=%v τ=%d: pair (%q, %q) has USIM %.3f but only %d shared signature pebbles (need %d)",
								method, theta, tau, corpus[i], corpus[j], usim, got, need)
						}
					}
				}
			}
		}
	}
}

// TestFilterCompletenessSynthetic stresses the completeness guarantee on a
// randomly generated corpus with its own synonym rules and taxonomy.
func TestFilterCompletenessSynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
		"theta", "iota", "kappa", "lambda", "mu"}
	rules := synonym.NewRuleSet()
	rules.MustAdd("alpha beta", "gamma", 1)
	rules.MustAdd("delta", "epsilon", 0.9)
	rules.MustAdd("zeta eta", "theta iota", 0.8)
	tax := taxonomy.NewTree("root")
	a := tax.MustAddChild(tax.Root(), "kappa")
	tax.MustAddChild(a, "lambda")
	tax.MustAddChild(a, "mu")
	ctx := sim.NewContext(rules, tax)
	gen := NewGenerator(ctx)
	calc := core.NewCalculator(ctx)

	var tokenised [][]string
	for i := 0; i < 24; i++ {
		n := 2 + rng.Intn(4)
		var toks []string
		for j := 0; j < n; j++ {
			toks = append(toks, vocab[rng.Intn(len(vocab))])
		}
		tokenised = append(tokenised, toks)
	}
	order := buildOrder(gen, tokenised)
	theta := 0.7
	tau := 2
	sel := NewSelector(gen, order, theta)
	for _, method := range []Method{AUHeuristic, AUDP} {
		sigs := make([]Signature, len(tokenised))
		for i, tok := range tokenised {
			sigs[i] = sel.Signature(tok, method, tau)
		}
		for i := 0; i < len(tokenised); i++ {
			for j := i + 1; j < len(tokenised); j++ {
				usim := calc.SimilarityTokens(tokenised[i], tokenised[j])
				if usim < theta {
					continue
				}
				if got := overlapCount(sigs[i], sigs[j]); got < tau {
					t.Errorf("%s: pair (%v, %v) USIM %.3f shares only %d pebbles (need %d)",
						method, tokenised[i], tokenised[j], usim, got, tau)
				}
			}
		}
	}
}

func TestSignatureUnreachableThreshold(t *testing.T) {
	// A string whose maximal accumulated similarity cannot reach θ·MP gets
	// an empty signature, meaning it can never participate in a result.
	ctx := paperContext().WithMeasures(sim.SetSynonym) // only synonym similarity
	gen := NewGenerator(ctx)
	order := NewOrder()
	tokens := strutil.Tokenize("unrelated words here") // no rule applies
	p, _ := gen.Pebbles(tokens)
	order.Add(p)
	sel := NewSelector(gen, order, 0.9)
	sig := sel.Signature(tokens, AUHeuristic, 2)
	if sig.Len() != 0 {
		t.Errorf("expected empty signature, got %d pebbles", sig.Len())
	}
}

func BenchmarkSignatureAUDP(b *testing.B) {
	ctx := paperContext()
	gen := NewGenerator(ctx)
	corpus := [][]string{
		strutil.Tokenize("coffee shop latte Helsingki"),
		strutil.Tokenize("espresso cafe Helsinki"),
	}
	order := buildOrder(gen, corpus)
	sel := NewSelector(gen, order, 0.85)
	tokens := strutil.Tokenize("coffee shop latte Helsingki espresso cafe")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Signature(tokens, AUDP, 4)
	}
}

func BenchmarkSignatureHeuristic(b *testing.B) {
	ctx := paperContext()
	gen := NewGenerator(ctx)
	corpus := [][]string{
		strutil.Tokenize("coffee shop latte Helsingki"),
		strutil.Tokenize("espresso cafe Helsinki"),
	}
	order := buildOrder(gen, corpus)
	sel := NewSelector(gen, order, 0.85)
	tokens := strutil.Tokenize("coffee shop latte Helsingki espresso cafe")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Signature(tokens, AUHeuristic, 4)
	}
}

// TestSignatureIndependentOfTableOwner: a signature is a function of the
// prepared record's derivation tables, not of who holds them — interned into
// a dictionary, read from it by a probe (half the records' texts are in it,
// half are not), or derived privately, as past a full dictionary's cap.
func TestSignatureIndependentOfTableOwner(t *testing.T) {
	sel, ctx := testSelector(t, 0.8)
	calc := core.NewCalculator(ctx)
	corpus := []string{"coffee shop latte Helsingki", "espresso cafe Helsinki", "apple cake bakery",
		"cake gateau shop", "coffee house espresso", "unseen tokens entirely"}
	d := core.NewSegDict()
	for _, s := range corpus[:len(corpus)/2] {
		calc.PrepareIn(d, strutil.Tokenize(s))
	}
	for _, s := range corpus {
		tokens := strutil.Tokenize(s)
		for _, method := range []Method{UFilter, AUHeuristic, AUDP} {
			want := sel.RecordSignature(calc.Prepare(tokens), method, 2)
			if want.Len() == 0 {
				t.Fatalf("%q %v: empty signature", s, method)
			}
			for name, pr := range map[string]*core.PreparedRecord{
				"probe":    calc.PrepareProbe(d, tokens),
				"interned": calc.PrepareIn(core.NewSegDict(), tokens),
			} {
				if got := sel.RecordSignature(pr, method, 2); !slices.Equal(got.Pebbles, want.Pebbles) {
					t.Errorf("%q %v: %s record signs %v, private tables sign %v", s, method, name, got.Pebbles, want.Pebbles)
				}
			}
		}
	}
}

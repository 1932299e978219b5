package pebble

import (
	"math/rand"
	"slices"
	"sort"
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

// refAcc is signature selection as it stood before the DP read its group
// terms from per-group tables and before sorting went through packed integer
// keys: the accumulated-similarity suffix sums, per-group position lists, and
// per query the direct sums of SuffixWeightGroup and TopWeightsGroup. It is
// the reference Select must agree with, cut for cut; a test that selected
// through Select itself could not see the DP drift.
type refAcc struct {
	pebbles  []Pebble
	as       []float64
	groupPos [][]int32
	scratch  []float64
}

func newRefAcc(sorted []Pebble) *refAcc {
	n := len(sorted)
	t := &refAcc{pebbles: sorted, as: make([]float64, n+1)}
	maxSeg := -1
	for i := range sorted {
		if sorted[i].Segment > maxSeg {
			maxSeg = sorted[i].Segment
		}
	}
	nGroups := (maxSeg + 1) * numMeasures
	groupSum := make([]float64, nGroups)
	segMax := make([]float64, maxSeg+1)
	total := 0.0
	for i := n - 1; i >= 0; i-- {
		p := sorted[i]
		g := p.Segment*numMeasures + int(p.Measure)
		groupSum[g] += p.Weight
		if groupSum[g] > segMax[p.Segment] {
			total += groupSum[g] - segMax[p.Segment]
			segMax[p.Segment] = groupSum[g]
		}
		t.as[i] = total
	}
	t.groupPos = make([][]int32, nGroups)
	for i := range sorted {
		g := sorted[i].Segment*numMeasures + int(sorted[i].Measure)
		t.groupPos[g] = append(t.groupPos[g], int32(i))
	}
	return t
}

func (t *refAcc) Len() int { return len(t.pebbles) }

func (t *refAcc) AS(i int) float64 {
	if i < 1 {
		i = 1
	}
	if i > len(t.pebbles) {
		return 0
	}
	return t.as[i-1]
}

// TopWeights is TW_c(B[1, prefix]) from a descending top-c window swept left
// to right, each prefix's window added largest first.
func (t *refAcc) TopWeights(prefix, c int) float64 {
	if c <= 0 || prefix <= 0 {
		return 0
	}
	prefix = min(prefix, len(t.pebbles))
	top := make([]float64, 0, c)
	s := 0.0
	for p := 1; p <= prefix; p++ {
		w := t.pebbles[p-1].Weight
		if len(top) < c {
			top = append(top, w)
			for j := len(top) - 1; j > 0 && top[j] > top[j-1]; j-- {
				top[j], top[j-1] = top[j-1], top[j]
			}
		} else if w > top[c-1] {
			top[c-1] = w
			for j := c - 1; j > 0 && top[j] > top[j-1]; j-- {
				top[j], top[j-1] = top[j-1], top[j]
			}
		}
		s = 0.0
		for _, v := range top {
			s += v
		}
	}
	return s
}

// TopWeightsGroup returns TW_c over the first prefix pebbles restricted to one
// (segment, measure) group.
func (t *refAcc) TopWeightsGroup(prefix, c, segment int, measure sim.Measure) float64 {
	if c <= 0 || prefix <= 0 {
		return 0
	}
	if prefix > len(t.pebbles) {
		prefix = len(t.pebbles)
	}
	g := segment*numMeasures + int(measure)
	if g < 0 || g >= len(t.groupPos) {
		return 0
	}
	weights := t.scratch[:0]
	for _, idx := range t.groupPos[g] {
		if int(idx) >= prefix {
			break
		}
		weights = append(weights, t.pebbles[idx].Weight)
	}
	t.scratch = weights
	return sumTopK(weights, c)
}

// SuffixWeightGroup returns W(B_{P,f}[i, n]) for a 1-based position i.
func (t *refAcc) SuffixWeightGroup(i, segment int, measure sim.Measure) float64 {
	if i < 1 {
		i = 1
	}
	g := segment*numMeasures + int(measure)
	if g < 0 || g >= len(t.groupPos) {
		return 0
	}
	pos := t.groupPos[g]
	start := int32(i - 1)
	lo := sort.Search(len(pos), func(k int) bool { return pos[k] >= start })
	total := 0.0
	for _, idx := range pos[lo:] {
		total += t.pebbles[idx].Weight
	}
	return total
}

// sumTopK returns the sum of the k largest values (all values if k ≥ len),
// reordering values in the process.
func sumTopK(values []float64, k int) float64 {
	if k >= len(values) {
		total := 0.0
		for _, v := range values {
			total += v
		}
		return total
	}
	total := 0.0
	for picked := 0; picked < k; picked++ {
		bestIdx := picked
		for i := picked + 1; i < len(values); i++ {
			if values[i] > values[bestIdx] {
				bestIdx = i
			}
		}
		values[picked], values[bestIdx] = values[bestIdx], values[picked]
		total += values[picked]
	}
	return total
}

func refSelectPrefixHeuristic(acc *refAcc, target float64, tau int) int {
	for i := acc.Len(); i >= 1; i-- {
		if acc.AS(i)+acc.TopWeights(i-1, tau-1) >= target-1e-12 {
			return i
		}
	}
	return 0
}

func refSelectPrefixDP(acc *refAcc, t int, target float64, tau int) int {
	w := make([]float64, (t+1)*tau)
	v := make([]float64, tau)
	for i := acc.Len(); i >= 1; i-- {
		if acc.AS(i) >= target-1e-12 {
			return i
		}
		for k := range w {
			w[k] = 0
		}
		reached := false
		for p := 1; p <= t && !reached; p++ {
			segIdx := p - 1
			prev, row := w[(p-1)*tau:p*tau], w[p*tau:(p+1)*tau]
			var sfx [numMeasures]float64
			for mi, f := range dpMeasures {
				sfx[mi] = acc.SuffixWeightGroup(i, segIdx, f)
			}
			r0 := 0.0
			for _, s := range sfx {
				if s > r0 {
					r0 = s
				}
			}
			for c := 1; c < tau; c++ {
				best := 0.0
				for mi, f := range dpMeasures {
					val := sfx[mi] + acc.TopWeightsGroup(i-1, c, segIdx, f)
					if val > best {
						best = val
					}
				}
				v[c] = best - r0
			}
			for d := 1; d < tau; d++ {
				best := 0.0
				for c := 0; c <= d; c++ {
					cand := prev[d-c] + v[c]
					if cand > best {
						best = cand
					}
				}
				row[d] = best
				if acc.AS(i)+row[d] >= target-1e-12 {
					reached = true
					break
				}
			}
			for d := 1; d < tau; d++ {
				if prev[d] > row[d] {
					row[d] = prev[d]
				}
			}
		}
		if reached {
			return i
		}
		if acc.AS(i)+w[t*tau+tau-1] >= target-1e-12 {
			return i
		}
	}
	return 0
}

// dpMeasures enumerates the measures R(P, i, c) of Eq. (14) maximizes over.
var dpMeasures = [numMeasures]sim.Measure{sim.Jaccard, sim.Synonym, sim.Taxonomy}

// refCut is the signature length the reference selects: Select's cut.
func refCut(pre Presig, theta float64, method Method, tau int) int {
	tau = max(tau, 1)
	if len(pre.Pebbles) == 0 {
		return 0
	}
	acc := newRefAcc(pre.Pebbles)
	target := theta * float64(pre.MinPartition)
	switch method {
	case UFilter:
		return refSelectPrefixHeuristic(acc, target, 1)
	case AUDP:
		return refSelectPrefixDP(acc, pre.NumSegments, target, tau)
	}
	return refSelectPrefixHeuristic(acc, target, tau)
}

// groupTerms reads the DP terms of group (segment, measure) at the 1-based
// position i from the tables: its suffix weight W(B_{P,f}[i, n]) and its
// TW_c(B[1, i−1]).
func (t *AccTable) groupTerms(i, c, segment int, measure sim.Measure) (suffix, top float64) {
	g := segment*numMeasures + int(measure)
	if g >= len(t.groups) {
		return 0, 0
	}
	gt := t.groups[g]
	gt.q = 0
	for k := 0; k < i-1 && k < len(t.pebbles); k++ {
		if groupOf(t.pebbles[k]) == g {
			gt.q++
		}
	}
	if c > 0 {
		top = t.topWeights(&gt, int32(c))
	}
	return t.suffix(&gt), top
}

// closenessContext extends the paper's knowledge with rules of different
// closeness sharing a side, so that one segment carries several synonym
// pebbles of different weights: "cafe" the lhs pebbles of three rules,
// "gateau" those of "cake" (1) and of "gateau" (0.7), and "espoo" those of
// "kahvi" (0.1), "kahvila" (0.3), "kahvio" (0.2) and "kahviot" (0.4), in
// that key order — a group whose sums depend on the order they are added in
// (0.1 + 0.3 + 0.2 is not 0.2 + 0.3 + 0.1 in floating point, nor 0.4 + 0.3 +
// 0.2 the reverse), so the tables' summation orders are pinned, not just
// their values.
func closenessContext() *sim.Context {
	ctx := paperContext()
	ctx.Rules.MustAdd("coffee house", "cafe", 0.8)
	ctx.Rules.MustAdd("coffee bar", "cafe", 0.65)
	ctx.Rules.MustAdd("gateau", "torte", 0.7)
	ctx.Rules.MustAdd("latte", "milk coffee", 0.9)
	ctx.Rules.MustAdd("kahvi", "espoo", 0.1)
	ctx.Rules.MustAdd("kahvila", "espoo", 0.3)
	ctx.Rules.MustAdd("kahvio", "espoo", 0.2)
	ctx.Rules.MustAdd("kahviot", "espoo", 0.4)
	return ctx
}

// closenessCorpus draws n strings from a vocabulary of the context's rule
// sides, taxonomy entities and plain words.
func closenessCorpus(rng *rand.Rand, n int) [][]string {
	vocab := []string{"cafe", "gateau", "cake", "coffee", "shop", "house", "bar", "torte", "latte",
		"milk", "espresso", "helsinki", "apple", "bakery", "espoo", "cafe"}
	out := make([][]string, n)
	for i := range out {
		k := 1 + rng.Intn(6)
		for j := 0; j < k; j++ {
			out[i] = append(out[i], vocab[rng.Intn(len(vocab))])
		}
	}
	return out
}

// TestSelectMatchesReference holds Select to the reference cut for every
// method, θ ∈ {0.6, 0.7, 0.8, 0.9} and τ ∈ [1, 6], and every group table to
// the reference's direct sums bit for bit, on a corpus whose synonym groups
// carry pebbles of different weights.
func TestSelectMatchesReference(t *testing.T) {
	ctx := closenessContext()
	gen := NewGenerator(ctx)
	rng := rand.New(rand.NewSource(33))
	corpus := closenessCorpus(rng, 300)
	order := buildOrder(gen, corpus)
	mixed := 0
	for _, theta := range []float64{0.6, 0.7, 0.8, 0.9} {
		sel := NewSelector(gen, order, theta)
		for _, tokens := range corpus {
			pre := sel.Prepare(tokens)
			for _, method := range []Method{UFilter, AUHeuristic, AUDP} {
				for tau := 1; tau <= 6; tau++ {
					if got, want := sel.Select(pre, method, tau).Len(), refCut(pre, theta, method, tau); got != want {
						t.Fatalf("%v θ=%v τ=%d %v: Select cuts at %d, the reference at %d", tokens, theta, tau, method, got, want)
					}
				}
			}
			if theta != 0.6 || pre.acc == nil {
				continue
			}
			ref := newRefAcc(pre.Pebbles)
			for g, gt := range pre.acc.groups {
				if !gt.uniform && gt.m >= 2 {
					mixed++
				}
				seg, m := g/numMeasures, sim.Measure(g%numMeasures)
				for i := 1; i <= pre.acc.Len()+1; i++ {
					for c := 1; c <= 6; c++ {
						sfx, top := pre.acc.groupTerms(i, c, seg, m)
						if want := ref.SuffixWeightGroup(i, seg, m); sfx != want {
							t.Fatalf("%v group %d at %d: suffix %v, reference %v", tokens, g, i, sfx, want)
						}
						if want := ref.TopWeightsGroup(i-1, c, seg, m); top != want {
							t.Fatalf("%v group %d at %d: TW_%d %v, reference %v", tokens, g, i, c, top, want)
						}
					}
				}
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no synonym group held pebbles of different weights; the tables' general path was never exercised")
	}
}

// TestSortMatchesComparator holds the packed-key sort to the comparator sort
// it replaced, on pebble lists with keys unknown to the order and with
// duplicate (ID, segment) pebbles, and on its comparator fallback.
func TestSortMatchesComparator(t *testing.T) {
	ctx := closenessContext()
	gen := NewGenerator(ctx)
	rng := rand.New(rand.NewSource(34))
	corpus := closenessCorpus(rng, 200)
	order := buildOrder(gen, corpus[:100]) // half the corpus: the rest meets unknown keys
	order.Finalize()
	unknown, dups := 0, 0
	for k, tokens := range corpus {
		pebbles, _ := gen.Pebbles(append(tokens, "unseen"))
		// A gram occurring twice in one segment already yields duplicate
		// (ID, segment) pebbles; a few copies make sure of it.
		for i := 0; i < len(pebbles) && i < 3; i++ {
			pebbles = append(pebbles, pebbles[rng.Intn(len(pebbles))])
		}
		rng.Shuffle(len(pebbles), func(i, j int) { pebbles[i], pebbles[j] = pebbles[j], pebbles[i] })
		if k%7 == 0 {
			// Past the packed segment field: the comparator fallback.
			for i := range pebbles {
				pebbles[i].Segment += maxPacked
			}
		}
		order.Intern(pebbles)
		want := slices.Clone(pebbles)
		slices.SortFunc(want, byGlobalOrder)
		sortInterned(pebbles)
		if !slices.Equal(pebbles, want) {
			t.Fatalf("%v: packed sort %v, comparator sort %v", tokens, pebbles, want)
		}
		for i := range want {
			if want[i].ID == NoID {
				unknown++
			}
			if i > 0 && want[i].ID == want[i-1].ID && want[i].Segment == want[i-1].Segment {
				dups++
			}
		}
	}
	if unknown == 0 || dups == 0 {
		t.Fatalf("%d unknown-key pebbles and %d duplicate (ID, segment) pairs: both paths must be exercised", unknown, dups)
	}
}

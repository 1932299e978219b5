package pebble

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

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

func TestPebblesExample6Count(t *testing.T) {
	gen := NewGenerator(paperContext())
	tokens := strutil.Tokenize("espresso cafe Helsinki")
	pebbles, segments := gen.Pebbles(tokens)
	// Example 6: "Line 1 generates 23 pebbles": espresso contributes 7
	// 2-grams + 5 taxonomy ancestors, cafe 3 grams + 1 synonym lhs,
	// Helsinki 7 grams.
	if len(pebbles) != 23 {
		t.Fatalf("pebble count = %d, want 23", len(pebbles))
	}
	if len(segments) != 3 {
		t.Fatalf("segments = %d, want 3", len(segments))
	}
	// Count per measure.
	counts := map[sim.Measure]int{}
	for _, p := range pebbles {
		counts[p.Measure]++
	}
	if counts[sim.Jaccard] != 17 || counts[sim.Taxonomy] != 5 || counts[sim.Synonym] != 1 {
		t.Errorf("per-measure counts = %v, want 17 J, 5 T, 1 S", counts)
	}
}

func TestPebblesTable2Weights(t *testing.T) {
	gen := NewGenerator(paperContext())
	// Table 2, segment "coffee": grams weight 1/5, taxonomy pebbles
	// {wikipedia, food, coffee} weight 1/3.
	pebbles, _ := gen.Pebbles([]string{"coffee"})
	var gramW, taxW float64
	taxKeys := map[string]bool{}
	for _, p := range pebbles {
		switch p.Measure {
		case sim.Jaccard:
			gramW = p.Weight
		case sim.Taxonomy:
			taxW = p.Weight
			taxKeys[p.Key] = true
		}
	}
	if !approxEq(gramW, 0.2) {
		t.Errorf("gram weight = %v, want 0.2", gramW)
	}
	if !approxEq(taxW, 1.0/3.0) {
		t.Errorf("taxonomy weight = %v, want 1/3", taxW)
	}
	for _, k := range []string{"t:wikipedia", "t:food", "t:coffee"} {
		if !taxKeys[k] {
			t.Errorf("missing taxonomy pebble %q", k)
		}
	}

	// Table 2, segment "cafe": grams weight 1/3, synonym pebble is the
	// *lhs* "coffee shop" with weight 1.
	pebbles, _ = gen.Pebbles([]string{"cafe"})
	var synKey string
	var synW float64
	for _, p := range pebbles {
		if p.Measure == sim.Synonym {
			synKey, synW = p.Key, p.Weight
		}
		if p.Measure == sim.Jaccard && !approxEq(p.Weight, 1.0/3.0) {
			t.Errorf("cafe gram weight = %v, want 1/3", p.Weight)
		}
	}
	if synKey != "s:coffee shop" || !approxEq(synW, 1) {
		t.Errorf("synonym pebble = %q/%v, want s:coffee shop / 1", synKey, synW)
	}
}

func TestSynonymPebbleSharedAcrossRuleSides(t *testing.T) {
	gen := NewGenerator(paperContext())
	// Both "coffee shop" (lhs) and "cafe" (rhs) must emit the same synonym
	// pebble key so that their signatures can overlap.
	pebblesLHS, _ := gen.Pebbles(strutil.Tokenize("coffee shop"))
	pebblesRHS, _ := gen.Pebbles(strutil.Tokenize("cafe"))
	has := func(list []Pebble, key string) bool {
		for _, p := range list {
			if p.Key == key {
				return true
			}
		}
		return false
	}
	if !has(pebblesLHS, "s:coffee shop") || !has(pebblesRHS, "s:coffee shop") {
		t.Error("both rule sides must produce the pebble s:coffee shop")
	}
}

func TestTaxonomyPebblesShareAncestors(t *testing.T) {
	gen := NewGenerator(paperContext())
	pl, _ := gen.Pebbles([]string{"latte"})
	pe, _ := gen.Pebbles([]string{"espresso"})
	keys := func(list []Pebble) map[string]bool {
		m := map[string]bool{}
		for _, p := range list {
			if p.Measure == sim.Taxonomy {
				m[p.Key] = true
			}
		}
		return m
	}
	kl, ke := keys(pl), keys(pe)
	shared := 0
	for k := range kl {
		if ke[k] {
			shared++
		}
	}
	// Their LCA is "coffee drinks" at depth 4, so they share 4 ancestor
	// pebbles (wikipedia, food, coffee, coffee drinks).
	if shared != 4 {
		t.Errorf("shared taxonomy pebbles = %d, want 4", shared)
	}
}

func TestOrderSortAndFrequency(t *testing.T) {
	gen := NewGenerator(paperContext())
	order := NewOrder()
	corpus := [][]string{
		strutil.Tokenize("coffee shop latte"),
		strutil.Tokenize("coffee shop espresso"),
		strutil.Tokenize("coffee cake"),
	}
	for _, tokens := range corpus {
		p, _ := gen.Pebbles(tokens)
		order.Add(p)
	}
	// "g:co" appears in every string, so its frequency is 3.
	if f := order.Frequency("g:co"); f != 3 {
		t.Errorf("Frequency(g:co) = %d, want 3", f)
	}
	if f := order.Frequency("g:zz"); f != 0 {
		t.Errorf("Frequency(unknown) = %d, want 0", f)
	}
	pebbles, _ := gen.Pebbles(strutil.Tokenize("coffee shop latte"))
	order.Sort(pebbles)
	for i := 1; i < len(pebbles); i++ {
		fa, fb := order.Frequency(pebbles[i-1].Key), order.Frequency(pebbles[i].Key)
		if fa > fb {
			t.Fatalf("pebbles not sorted by ascending frequency at %d: %d > %d", i, fa, fb)
		}
	}
}

// buildOrder counts a frequency order over whole collections of token
// sequences.
func buildOrder(gen *Generator, collections ...[][]string) *Order {
	o := NewOrder()
	for _, coll := range collections {
		for _, tokens := range coll {
			p, _ := gen.Pebbles(tokens)
			o.Add(p)
		}
	}
	return o
}

func TestBuildOrderAndKeys(t *testing.T) {
	gen := NewGenerator(paperContext())
	collA := [][]string{strutil.Tokenize("coffee shop"), strutil.Tokenize("latte art")}
	collB := [][]string{strutil.Tokenize("espresso cafe"), strutil.Tokenize("coffee coffee")}
	order := buildOrder(gen, collA, collB)
	if order.Frequency("s:coffee shop") != 2 { // from "coffee shop" and "cafe"
		t.Errorf("Frequency(s:coffee shop) = %d, want 2", order.Frequency("s:coffee shop"))
	}
	// A key counts once a record however often the record generates it:
	// "coffee shop" and "coffee coffee".
	if f := order.Frequency("g:co"); f != 2 {
		t.Errorf("Frequency(g:co) = %d, want the document frequency 2", f)
	}
}

// TestMergeFrequencyTablesIsTheWholeTable splits a corpus at random into
// disjoint parts — some of them empty — and holds the merge of the parts'
// tables to the whole corpus's FrequencyTable, key for key and count for
// count. The corpus draws on a small vocabulary, so most frequencies tie and
// the key tie-break decides much of the order.
func TestMergeFrequencyTablesIsTheWholeTable(t *testing.T) {
	gen := NewGenerator(closenessContext())
	rng := rand.New(rand.NewSource(35))
	corpus := closenessCorpus(rng, 400)
	wantKeys, wantFreqs := buildOrder(gen, corpus).FrequencyTable()
	for trial := 0; trial < 20; trial++ {
		parts := make([][][]string, 1+rng.Intn(6))
		for _, tokens := range corpus {
			p := rng.Intn(len(parts))
			parts[p] = append(parts[p], tokens)
		}
		keys, freqs := make([][]string, len(parts)), make([][]int, len(parts))
		for p, part := range parts {
			keys[p], freqs[p] = buildOrder(gen, part).FrequencyTable()
		}
		gotKeys, gotFreqs, err := MergeFrequencyTables(keys, freqs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(gotKeys, wantKeys) || !slices.Equal(gotFreqs, wantFreqs) {
			t.Fatalf("trial %d (%d parts): the merged table is not the whole corpus's", trial, len(parts))
		}
	}

	if _, _, err := MergeFrequencyTables([][]string{{"g:ab", "g:bc"}}, [][]int{{1}}); err == nil {
		t.Error("a table with more keys than frequencies was merged")
	}
	if _, _, err := MergeFrequencyTables([][]string{{"g:ab"}}, nil); err == nil {
		t.Error("key lists without frequency lists were merged")
	}
}

func TestAccTable(t *testing.T) {
	gen := NewGenerator(paperContext())
	order := NewOrder()
	tokens := strutil.Tokenize("espresso cafe Helsinki")
	pebbles, _ := gen.Pebbles(tokens)
	order.Add(pebbles)
	order.Sort(pebbles)
	acc := NewAccTable(pebbles)
	if acc.Len() != len(pebbles) {
		t.Fatalf("Len = %d, want %d", acc.Len(), len(pebbles))
	}
	// AS is non-increasing in i and AS(n+1) = 0.
	for i := 1; i < acc.Len(); i++ {
		if acc.AS(i) < acc.AS(i+1)-1e-12 {
			t.Fatalf("AS not non-increasing at %d: %v < %v", i, acc.AS(i), acc.AS(i+1))
		}
	}
	if acc.AS(acc.Len()+1) != 0 {
		t.Errorf("AS beyond end = %v, want 0", acc.AS(acc.Len()+1))
	}
	if acc.AS(0) != acc.AS(1) {
		t.Errorf("AS(0) should clamp to AS(1)")
	}
	// The total accumulated similarity of this string: each of the three
	// segments contributes its best measure — espresso max(1, 1/5·5=1)=1,
	// cafe max(1 gram sum, synonym 1)=1, helsinki 1 → total 3.
	if !approxEq(acc.Total(), 3) {
		t.Errorf("Total = %v, want 3", acc.Total())
	}
	// TopWeights: the heaviest pebble is the synonym pebble with weight 1.
	if got := acc.TopWeights(acc.Len(), 1); !approxEq(got, 1) {
		t.Errorf("TopWeights(all,1) = %v, want 1", got)
	}
	if got := acc.TopWeights(0, 3); got != 0 {
		t.Errorf("TopWeights(0,·) = %v, want 0", got)
	}
	if got := acc.TopWeights(acc.Len(), 0); got != 0 {
		t.Errorf("TopWeights(·,0) = %v, want 0", got)
	}
	// Asking for more pebbles than exist sums everything.
	all := 0.0
	for _, p := range pebbles {
		all += p.Weight
	}
	if got := acc.TopWeights(acc.Len()+10, len(pebbles)+10); !approxEq(got, all) {
		t.Errorf("TopWeights(all, many) = %v, want %v", got, all)
	}
}

func TestAccTableGroups(t *testing.T) {
	gen := NewGenerator(paperContext())
	tokens := strutil.Tokenize("espresso cafe")
	pebbles, segments := gen.Pebbles(tokens)
	order := NewOrder()
	order.Add(pebbles)
	order.Sort(pebbles)
	acc := NewAccTable(pebbles)
	// Find the segment index of "cafe".
	cafeIdx := -1
	for i, s := range segments {
		if strutil.JoinTokens(s.Tokens) == "cafe" {
			cafeIdx = i
		}
	}
	if cafeIdx < 0 {
		t.Fatal("cafe segment not found")
	}
	// The full-suffix group weight of cafe under Jaccard is 1 (3 grams of
	// weight 1/3), under Synonym 1, under Taxonomy 0.
	for _, c := range []struct {
		m    sim.Measure
		want float64
	}{{sim.Jaccard, 1}, {sim.Synonym, 1}, {sim.Taxonomy, 0}} {
		if got, _ := acc.groupTerms(1, 1, cafeIdx, c.m); !approxEq(got, c.want) {
			t.Errorf("suffix weight of cafe under %v = %v, want %v", c.m, got, c.want)
		}
	}
	// TW_2 of cafe's Jaccard group over the full prefix = 2/3.
	if _, got := acc.groupTerms(acc.Len()+1, 2, cafeIdx, sim.Jaccard); !approxEq(got, 2.0/3.0) {
		t.Errorf("TW_2 of the group = %v, want 2/3", got)
	}
	if _, got := acc.groupTerms(1, 2, cafeIdx, sim.Jaccard); got != 0 {
		t.Errorf("TW_2 of the group over an empty prefix = %v, want 0", got)
	}
}

func TestSumTopK(t *testing.T) {
	vals := []float64{0.2, 0.9, 0.5, 0.7}
	if got := sumTopK(vals, 2); !approxEq(got, 1.6) {
		t.Errorf("sumTopK = %v, want 1.6", got)
	}
	if got := sumTopK(vals, 10); !approxEq(got, 2.3) {
		t.Errorf("sumTopK all = %v, want 2.3", got)
	}
	if got := sumTopK(nil, 3); got != 0 {
		t.Errorf("sumTopK nil = %v, want 0", got)
	}
}

func TestMethodString(t *testing.T) {
	if UFilter.String() != "U-Filter" {
		t.Error("UFilter name")
	}
	if AUHeuristic.String() != "AU-Filter (heuristics)" {
		t.Error("AUHeuristic name")
	}
	if AUDP.String() != "AU-Filter (DP)" {
		t.Error("AUDP name")
	}
	if Method(9).String() != "unknown" {
		t.Error("unknown method name")
	}
}

// TestRestoreOrder holds RestoreOrder to the order it restores: the same
// IDs, keys, frequencies and dynamic tail, every key found by string and by
// bytes, with the image's strings copied into the restored arena; and to
// its errors on an image that no order exports.
func TestRestoreOrder(t *testing.T) {
	gen := NewGenerator(closenessContext())
	order := buildOrder(gen, closenessCorpus(rand.New(rand.NewSource(36)), 200))
	dynamic := []Pebble{{Key: "g:zzzz"}, {Key: "s:unheard of"}, {Key: ""}}
	if n := order.InternDynamic(dynamic); n != len(dynamic) {
		t.Fatalf("interned %d dynamic keys, want %d", n, len(dynamic))
	}
	keys, freqs := order.FrequencyTable()
	image := make([]string, len(keys))
	for i, k := range keys {
		image[i] = string([]byte(k)) // as a decoder hands them over
	}
	dyn := []string{"g:zzzz", "s:unheard of", ""}
	got, err := RestoreOrder(image, freqs, dyn)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumKeys() != order.NumKeys() || got.FrozenKeys() != order.FrozenKeys() || got.MaxFrequency() != order.MaxFrequency() {
		t.Fatalf("restored %d keys (%d frozen, max frequency %d), want %d (%d, %d)",
			got.NumKeys(), got.FrozenKeys(), got.MaxFrequency(), order.NumKeys(), order.FrozenKeys(), order.MaxFrequency())
	}
	arena := got.Frozen().arena
	for id := range uint32(order.NumKeys()) {
		key := order.KeyOf(id)
		gid, ok := got.ID(key)
		bid, bok := got.idOf([]byte(key))
		if !ok || !bok || gid != id || bid != id || got.KeyOf(id) != key || got.Frequency(key) != order.Frequency(key) {
			t.Fatalf("key %q: restored as ID %d (%v), by bytes %d (%v), want %d", key, gid, ok, bid, bok, id)
		}
		if k := got.KeyOf(id); int(id) < got.FrozenKeys() && k != "" {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(k))); p < uintptr(unsafe.Pointer(unsafe.StringData(arena))) ||
				p >= uintptr(unsafe.Pointer(unsafe.StringData(arena)))+uintptr(len(arena)) {
				t.Fatalf("frozen key %q is not in the restored arena", k)
			}
		}
	}
	if _, ok := got.ID("g:never"); ok {
		t.Fatal("a key of no order was found")
	}

	type restoreCase struct {
		name        string
		keys, dyn   []string
		freqs       []int
		wantMessage string
	}
	cases := []restoreCase{
		{"lengths", []string{"g:a", "g:b"}, nil, []int{1}, "pebble: 2 frozen keys but 1 frequencies"},
		{"frequency order", []string{"g:a", "g:b"}, nil, []int{2, 1}, "pebble: frozen keys not in finalize order at 1"},
		{"key order", []string{"g:b", "g:a"}, nil, []int{1, 1}, "pebble: frozen keys not in finalize order at 1"},
		{"duplicate", []string{"g:a", "g:b", "g:a"}, nil, []int{1, 1, 2}, `pebble: duplicate frozen key "g:a"`},
		{"duplicate before disorder", []string{"g:a", "g:a", "g:c", "g:b"}, nil, []int{1, 2, 3, 3}, `pebble: duplicate frozen key "g:a"`},
		{"shadowing", []string{"g:a"}, []string{"g:b", "g:a"}, []int{1}, `pebble: dynamic key "g:a" shadows a frozen key`},
		{"duplicate dynamic", []string{"g:a"}, []string{"g:b", "g:b"}, []int{1}, `pebble: duplicate dynamic key "g:b"`},
	}
	if strconv.IntSize == 64 {
		// A frequency outside an int32 is an int on a 64-bit platform alone.
		above, below := int64(math.MaxInt32)+1, int64(math.MinInt32)-1
		cases = append(cases,
			restoreCase{"frequency range", []string{"g:a"}, nil, []int{int(above)}, "pebble: frozen key 0 has frequency 2147483648, outside 0..2147483647"},
			restoreCase{"negative frequency", []string{"g:a", "g:b"}, nil, []int{int(below), 1}, "pebble: frozen key 0 has frequency -2147483649, outside 0..2147483647"})
	}
	for _, c := range cases {
		if _, err := RestoreOrder(c.keys, c.freqs, c.dyn); err == nil || err.Error() != c.wantMessage {
			t.Errorf("%s: RestoreOrder returned %v, want %q", c.name, err, c.wantMessage)
		}
	}
}

// TestOrdersShareFrozen wraps one frozen value in two orders: each interns
// dynamically into a region of its own, and a key one interns is unknown to
// the other.
func TestOrdersShareFrozen(t *testing.T) {
	fz, err := RestoreFrozen([]string{"g:ab", "g:bc", "s:cafe"}, []int{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := fz.Order(), fz.Order()
	if a.Frozen() != fz || b.Frozen() != fz {
		t.Fatal("two orders over one frozen value do not share it")
	}
	if n := a.InternDynamic([]Pebble{{Key: "g:zz"}, {Key: "g:ab"}}); n != 1 {
		t.Fatalf("interned %d keys, want the one the frozen value lacks", n)
	}
	if id, ok := a.ID("g:zz"); !ok || id != 3 {
		t.Fatalf("the interning order holds g:zz as %d (%v), want 3", id, ok)
	}
	if _, ok := b.ID("g:zz"); ok || b.NumKeys() != 3 {
		t.Fatalf("the other order holds %d keys, g:zz among them: %v", b.NumKeys(), ok)
	}
}

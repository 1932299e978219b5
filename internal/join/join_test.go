package join

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// paperContext reproduces the knowledge sources of Figure 1 plus a few more
// rules so that joins on the small test corpora have interesting matches.
func paperContext() *sim.Context {
	rules := synonym.NewRuleSet()
	rules.MustAdd("cake", "gateau", 1)
	rules.MustAdd("coffee shop", "cafe", 1)
	rules.MustAdd("db", "database", 0.9)
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

func collections() (s, t []strutil.Record) {
	s = strutil.NewCollection([]string{
		"coffee shop latte Helsingki",
		"apple cake bakery",
		"database systems course",
		"espresso machines shop",
		"unrelated record entirely",
	})
	t = strutil.NewCollection([]string{
		"espresso cafe Helsinki",
		"cake gateau bakery",
		"db systems course",
		"totally different thing",
	})
	return s, t
}

func pairSet(pairs []Pair) map[[2]int]bool {
	m := map[[2]int]bool{}
	for _, p := range pairs {
		m[[2]int{p.S, p.T}] = true
	}
	return m
}

func TestJoinMatchesBruteForce(t *testing.T) {
	ctx := paperContext()
	j := NewJoiner(ctx)
	s, u := collections()
	for _, theta := range []float64{0.6, 0.75, 0.85} {
		want := pairSet(j.BruteForce(s, u, theta, nil))
		for _, method := range []pebble.Method{pebble.UFilter, pebble.AUHeuristic, pebble.AUDP} {
			for _, tau := range []int{1, 2, 3} {
				if method == pebble.UFilter && tau > 1 {
					continue
				}
				got, stats := j.Join(s, u, Options{Theta: theta, Tau: tau, Method: method})
				if !reflect.DeepEqual(pairSet(got), want) {
					t.Errorf("θ=%v %v τ=%d: join results %v differ from brute force %v",
						theta, method, tau, pairSet(got), want)
				}
				if stats.Results != len(got) {
					t.Errorf("stats.Results = %d, want %d", stats.Results, len(got))
				}
				if stats.Candidates < len(got) {
					t.Errorf("candidates %d fewer than results %d", stats.Candidates, len(got))
				}
			}
		}
	}
}

func TestJoinFindsMixedSimilarityPair(t *testing.T) {
	ctx := paperContext()
	j := NewJoiner(ctx)
	s, u := collections()
	pairs, _ := j.Join(s, u, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP})
	found := false
	for _, p := range pairs {
		if p.S == 0 && p.T == 0 { // the POI pair of Figure 1
			found = true
			if p.Similarity < 0.8 {
				t.Errorf("POI pair similarity = %v, want ≥ 0.8", p.Similarity)
			}
		}
	}
	if !found {
		t.Error("the Figure 1 POI pair was not returned at θ = 0.8")
	}
}

func TestJoinFilteringReducesCandidates(t *testing.T) {
	ctx := paperContext()
	j := NewJoiner(ctx)
	s, u := collections()
	_, statsU := j.Join(s, u, Options{Theta: 0.8, Tau: 1, Method: pebble.UFilter})
	_, statsH := j.Join(s, u, Options{Theta: 0.8, Tau: 3, Method: pebble.AUHeuristic})
	_, statsD := j.Join(s, u, Options{Theta: 0.8, Tau: 3, Method: pebble.AUDP})
	total := len(s) * len(u)
	// On this tiny corpus the exact candidate counts between methods can go
	// either way (the AU filters keep longer signatures), so only check the
	// universal invariants here; the statistical candidate-reduction trend
	// is exercised on generated datasets in the experiments package.
	for _, st := range []Stats{statsU, statsH, statsD} {
		if st.Candidates > total {
			t.Errorf("candidates %d exceed cross product %d", st.Candidates, total)
		}
		if st.Candidates < st.Results {
			t.Errorf("candidates %d fewer than results %d", st.Candidates, st.Results)
		}
	}
	if statsU.ProcessedPairs <= 0 {
		t.Error("ProcessedPairs should be positive")
	}
	if statsU.AvgSignatureS <= 0 || statsU.AvgSignatureT <= 0 {
		t.Error("average signature lengths should be positive")
	}
	if statsU.TotalTime() <= 0 {
		t.Error("TotalTime should be positive")
	}
}

func TestSelfJoin(t *testing.T) {
	ctx := paperContext()
	j := NewJoiner(ctx)
	recs := strutil.NewCollection([]string{
		"coffee shop latte",
		"cafe latte",
		"apple cake",
		"cake gateau",
		"coffee shop latte", // duplicate of record 0
	})
	pairs, stats := j.SelfJoin(recs, Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP})
	for _, p := range pairs {
		if p.S >= p.T {
			t.Errorf("self-join pair not ordered: %+v", p)
		}
	}
	// The duplicate records 0 and 4 must be found.
	if !pairSet(pairs)[[2]int{0, 4}] {
		t.Errorf("duplicate pair (0,4) missing from self-join results %v", pairs)
	}
	if stats.Results != len(pairs) {
		t.Errorf("stats.Results = %d, want %d", stats.Results, len(pairs))
	}
}

func TestJoinMeasureRestriction(t *testing.T) {
	ctx := paperContext()
	s, u := collections()
	// With Jaccard only, the POI pair should not reach θ = 0.8 (its
	// similarity relies on synonym and taxonomy relations).
	jJ := NewJoiner(ctx.WithMeasures(sim.SetJaccard))
	pairs, _ := jJ.Join(s, u, Options{Theta: 0.8, Tau: 1, Method: pebble.UFilter})
	if pairSet(pairs)[[2]int{0, 0}] {
		t.Error("Jaccard-only join should not match the POI pair at θ=0.8")
	}
	// The unified join does match it (checked in another test); the result
	// count of the restricted join must never exceed the unified one.
	jAll := NewJoiner(ctx)
	all, _ := jAll.Join(s, u, Options{Theta: 0.8, Tau: 1, Method: pebble.UFilter})
	if len(pairs) > len(all) {
		t.Errorf("restricted join found more pairs (%d) than unified (%d)", len(pairs), len(all))
	}
}

func TestJoinEmptyCollections(t *testing.T) {
	ctx := paperContext()
	j := NewJoiner(ctx)
	pairs, stats := j.Join(nil, nil, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP})
	if len(pairs) != 0 || stats.Candidates != 0 {
		t.Errorf("empty join returned %v / %+v", pairs, stats)
	}
	s, _ := collections()
	pairs, _ = j.Join(s, nil, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP})
	if len(pairs) != 0 {
		t.Errorf("join with empty right side returned %v", pairs)
	}
}

func TestJoinRandomisedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	vocab := []string{"coffee", "shop", "latte", "espresso", "cafe", "helsinki",
		"helsingki", "cake", "apple", "gateau", "bakery", "db", "database", "systems"}
	gen := func(n int) []strutil.Record {
		var raws []string
		for i := 0; i < n; i++ {
			l := 2 + rng.Intn(3)
			var toks []string
			for k := 0; k < l; k++ {
				toks = append(toks, vocab[rng.Intn(len(vocab))])
			}
			raws = append(raws, strutil.JoinTokens(toks))
		}
		return strutil.NewCollection(raws)
	}
	ctx := paperContext()
	j := NewJoiner(ctx)
	for trial := 0; trial < 3; trial++ {
		s := gen(20)
		u := gen(20)
		theta := 0.7
		want := pairSet(j.BruteForce(s, u, theta, nil))
		for _, tau := range []int{1, 2, 3, 4} {
			got, _ := j.Join(s, u, Options{Theta: theta, Tau: tau, Method: pebble.AUDP})
			if !reflect.DeepEqual(pairSet(got), want) {
				missing := 0
				for k := range want {
					if !pairSet(got)[k] {
						missing++
					}
				}
				t.Errorf("trial %d τ=%d: %d result pairs missing vs brute force", trial, tau, missing)
			}
		}
	}
}

// TestOneShotJoinKeepsNothing pins who owns a dictionary: the index, never
// the joiner. A one-shot Join or SelfJoin builds a router of its own —
// dictionary, cache, order, one shard — and none of it may outlive the call:
// the heap keeps the result slice and at most 64 KiB besides, where an index
// over the same 2 000 records keeps over a megabyte. A warm-up run first
// makes whatever the runtime initialises once (pools, goroutine stacks) part
// of the baseline.
func TestOneShotJoinKeepsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("heap readings are only meaningful without -race; skipped with -short")
	}
	j := NewJoiner(paperContext())
	s, u := propCorpus(2000, 77), propCorpus(400, 78)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	for _, c := range []struct {
		name string
		run  func() []Pair
	}{
		{"Join", func() []Pair { pairs, _ := j.Join(s, u, opts); return pairs }},
		{"SelfJoin", func() []Pair { pairs, _ := j.SelfJoin(s, opts); return pairs }},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.run()
			pairs, kept := heapKeptBy(c.run)
			result := int64(cap(pairs)) * int64(unsafe.Sizeof(Pair{}))
			t.Logf("%d B kept for %d B of pairs", kept, result)
			if len(pairs) == 0 {
				t.Fatal("no pairs; the reading is vacuous")
			}
			if kept > result+64<<10 {
				t.Errorf("keeps %d B alive for %d B of pairs: the call's router outlived it", kept, result)
			}
			runtime.KeepAlive(pairs)
		})
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	if o.workers() <= 0 {
		t.Error("workers default should be positive")
	}
	if o.tau() != 1 {
		t.Errorf("tau default = %d, want 1", o.tau())
	}
	o = Options{Method: pebble.UFilter, Tau: 5}
	if o.tau() != 1 {
		t.Errorf("U-Filter must force τ=1, got %d", o.tau())
	}
	o = Options{Method: pebble.AUDP, Tau: 4, Workers: 2}
	if o.tau() != 4 || o.workers() != 2 {
		t.Error("explicit options not honoured")
	}
}

func TestParallelFor(t *testing.T) {
	n := 100
	out := make([]int, n)
	parallelFor(n, 4, func(i int) { out[i] = i * i })
	for i := range out {
		if out[i] != i*i {
			t.Fatalf("parallelFor missed index %d", i)
		}
	}
	// Small n runs inline.
	called := 0
	parallelFor(1, 8, func(i int) { called++ })
	if called != 1 {
		t.Errorf("inline run called %d times", called)
	}
	parallelFor(0, 8, func(i int) { t.Error("should not be called") })
}

func BenchmarkJoinSmall(b *testing.B) {
	ctx := paperContext()
	j := NewJoiner(ctx)
	s, u := collections()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Join(s, u, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP})
	}
}

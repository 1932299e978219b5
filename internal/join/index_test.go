package join

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// propertyContexts returns similarity contexts with and without the two
// knowledge sources, so the oracle comparison covers pure-Jaccard joins,
// synonym-augmented joins and the full unified measure.
func propertyContexts() map[string]*sim.Context {
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
	return map[string]*sim.Context{
		"plain":    sim.NewContext(synonym.NewRuleSet(), nil),
		"synonyms": sim.NewContext(rules, nil),
		"full":     sim.NewContext(rules, tax),
	}
}

// propertyCorpus generates records over a vocabulary dense enough that the
// filters face both matches and near-misses.
func propertyCorpus(n int, rng *rand.Rand) []strutil.Record {
	vocab := []string{"coffee", "shop", "latte", "espresso", "cafe", "helsinki",
		"helsingki", "cake", "apple", "gateau", "bakery", "db", "database", "systems"}
	raws := make([]string, n)
	for i := range raws {
		l := 2 + rng.Intn(3)
		toks := make([]string, l)
		for k := range toks {
			toks[k] = vocab[rng.Intn(len(vocab))]
		}
		raws[i] = strutil.JoinTokens(toks)
	}
	return strutil.NewCollection(raws)
}

// selfOracle filters a BruteForce(s, s) result down to unordered pairs.
func selfOracle(pairs []Pair) []Pair {
	var out []Pair
	for _, p := range pairs {
		if p.S < p.T {
			out = append(out, p)
		}
	}
	return out
}

// TestIndexProbeMatchesBruteForce is the oracle property of the
// build-once/probe-many pipeline: BuildIndex + a probe of its view (and
// SelfJoin) must return exactly the BruteForce result — same pairs, same
// similarities — for every filter method, threshold and knowledge-source
// combination.
// Note the index is built over S alone, so the probe side exercises the
// shared-order extension for keys the index has never seen.
func TestIndexProbeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, ctx := range propertyContexts() {
		j := NewJoiner(ctx)
		s := propertyCorpus(25, rng)
		u := propertyCorpus(25, rng)
		for _, theta := range []float64{0.7, 0.8, 0.9} {
			wantRS := j.BruteForce(s, u, theta, nil)
			wantSelf := selfOracle(j.BruteForce(s, s, theta, nil))
			for _, method := range []pebble.Method{pebble.UFilter, pebble.AUHeuristic, pebble.AUDP} {
				for _, tau := range []int{1, 2, 3} {
					if method == pebble.UFilter && tau > 1 {
						continue
					}
					opts := Options{Theta: theta, Tau: tau, Method: method}

					got, stats := j.BuildIndex(s, opts).view().Probe(u)
					if !reflect.DeepEqual(got, wantRS) {
						t.Errorf("%s θ=%v %v τ=%d: Probe = %v, want %v", name, theta, method, tau, got, wantRS)
					}
					if stats.Candidates < len(got) || stats.Results != len(got) {
						t.Errorf("%s θ=%v %v τ=%d: inconsistent stats %+v", name, theta, method, tau, stats)
					}

					gotSelf, selfStats := j.SelfJoin(s, opts)
					if !reflect.DeepEqual(gotSelf, wantSelf) {
						t.Errorf("%s θ=%v %v τ=%d: SelfJoin = %v, want %v", name, theta, method, tau, gotSelf, wantSelf)
					}
					n := len(s)
					if max := n * (n - 1) / 2; selfStats.Candidates > max {
						t.Errorf("%s θ=%v %v τ=%d: self-join candidates %d exceed unordered pair count %d",
							name, theta, method, tau, selfStats.Candidates, max)
					}
				}
			}
		}
	}
}

// TestIndexReuse checks the build-once/probe-many contract: one index
// serves several probe collections (and repeated probes) with identical
// results to one-shot joins sharing the same built side.
func TestIndexReuse(t *testing.T) {
	ctx := paperContext()
	j := NewJoiner(ctx)
	s, _ := collections()
	opts := Options{Theta: 0.75, Tau: 2, Method: pebble.AUDP}
	ix := j.BuildIndex(s, opts)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 3; trial++ {
		u := propertyCorpus(15, rng)
		want := j.BruteForce(s, u, opts.Theta, nil)
		first, _ := ix.view().Probe(u)
		second, _ := ix.view().Probe(u)
		if !reflect.DeepEqual(first, want) {
			t.Errorf("trial %d: probe differs from oracle", trial)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("trial %d: repeated probe differs", trial)
		}
	}
	if ix.BuildTime <= 0 {
		t.Error("BuildTime should be positive")
	}
	if st := ix.view().Stats(); st.Live != len(s) || st.FrozenKeys == 0 {
		t.Errorf("view of the index reports %d live records and %d keys, want %d and some", st.Live, st.FrozenKeys, len(s))
	}
}

// TestProbeRecordMatchesProbe checks that single-record probing agrees with
// collection probing, record by record — and conversely that a collection of
// one record is that record's request: the same matches and, counter for
// counter, the same work.
func TestProbeRecordMatchesProbe(t *testing.T) {
	j := NewJoiner(paperContext())
	s, u := collections()
	opts := Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP, Workers: 1}
	for _, shards := range gridShards {
		verified := int64(0)
		sx := j.BuildShardedIndex(s, shards, opts, DynamicOptions{})
		sv := sx.Snapshot()
		pairs, _ := sv.Probe(u)
		for ti, rec := range u {
			got, want := probeRecord(t, sv, rec.Tokens), rowsOf(pairs, ti)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d record %d: ProbeRecordCtx = %v, want %v", shards, ti, got, want)
			}
			// Pooled scratch must leave no residue between calls.
			before := sx.Stats()
			if again := probeRecord(t, sv, rec.Tokens); !reflect.DeepEqual(again, got) {
				t.Errorf("shards=%d record %d: repeated ProbeRecordCtx differs", shards, ti)
			}
			served := sx.Stats()

			one, st := sv.Probe(u[ti : ti+1])
			if !reflect.DeepEqual(rowsOf(one, ti), got) || len(one) != len(got) {
				t.Errorf("shards=%d record %d: one-record Probe = %v, ProbeRecordCtx %v", shards, ti, one, got)
			}
			if got, want := workOf(st), lookupWork(before, served); got != want {
				t.Errorf("shards=%d record %d: one-record Probe did %+v, ProbeRecordCtx %+v", shards, ti, got, want)
			}
			verified += st.VerifiedCandidates
		}
		if verified == 0 {
			t.Errorf("shards=%d: no probe record had a candidate verified; the counter comparison is vacuous", shards)
		}
	}
}

// work is the counters of what a join did — its statistics without the
// times, the result count and the signature lengths — in comparable form.
type work struct {
	counters
	candidates int
}

func workOf(st Stats) work {
	return work{counters{ProbePostings: st.ProcessedPairs, ProbeBitsetTokens: st.BitsetTokens,
		ProbeSliceTokens: st.SliceTokens, VerifyStats: st.VerifyStats}, st.Candidates}
}

// lookupWork is the work an index's counters grew by between two of its
// Stats. Lookups report no candidate count: every candidate is either
// verified or pruned.
func lookupWork(before, after DynamicStats) work {
	d := minus(after.counters, before.counters)
	return work{d, int(d.VerifiedCandidates + d.PrunedByBound)}
}

// minus returns a − b, field by field, for a struct of integer counters and
// structs of them.
func minus[T any](a, b T) T {
	subtract(reflect.ValueOf(&a).Elem(), reflect.ValueOf(b))
	return a
}

func subtract(a, b reflect.Value) {
	for i := range a.NumField() {
		if f := a.Field(i); f.Kind() == reflect.Struct {
			subtract(f, b.Field(i))
		} else {
			f.SetInt(f.Int() - b.Field(i).Int())
		}
	}
}

// TestSelfJoinStatsDeduplicated pins the satellite fix: self-join stats
// must count each unordered pair once — no mirrored pairs, no diagonal.
func TestSelfJoinStatsDeduplicated(t *testing.T) {
	ctx := paperContext()
	j := NewJoiner(ctx)
	recs := strutil.NewCollection([]string{
		"coffee shop latte",
		"cafe latte",
		"coffee shop latte",
		"cafe latte",
	})
	opts := Options{Theta: 0.7, Tau: 1, Method: pebble.UFilter}
	_, selfStats := j.SelfJoin(recs, opts)
	_, crossStats := j.Join(recs, recs, opts)
	if selfStats.Candidates*2 >= crossStats.Candidates {
		t.Errorf("self-join candidates %d not deduplicated vs cross %d",
			selfStats.Candidates, crossStats.Candidates)
	}
	if selfStats.ProcessedPairs*2 >= crossStats.ProcessedPairs {
		t.Errorf("self-join processed pairs %d not deduplicated vs cross %d",
			selfStats.ProcessedPairs, crossStats.ProcessedPairs)
	}
	if selfStats.Results*2 != crossStats.Results-len(recs) {
		// Every unordered result appears twice in the cross join plus the
		// diagonal (every record matches itself at similarity 1).
		t.Errorf("self results %d inconsistent with cross results %d",
			selfStats.Results, crossStats.Results)
	}
}

// TestFilterProfileMatchesFilterStats checks that the τ-sweep profile and
// the one-shot FilterStats agree for every τ.
func TestFilterProfileMatchesFilterStats(t *testing.T) {
	ctx := paperContext()
	j := NewJoiner(ctx)
	rng := rand.New(rand.NewSource(3))
	s := propertyCorpus(30, rng)
	u := propertyCorpus(30, rng)
	for _, method := range []pebble.Method{pebble.UFilter, pebble.AUHeuristic, pebble.AUDP} {
		opts := Options{Theta: 0.8, Method: method}
		fp := j.NewFilterProfile(s, u, opts)
		for tau := 1; tau <= 4; tau++ {
			opts.Tau = tau
			wantP, wantC := j.FilterStats(s, u, opts)
			gotP, gotC := fp.Stats(tau)
			if gotP != wantP || gotC != wantC {
				t.Errorf("%v τ=%d: profile (%d, %d) != FilterStats (%d, %d)",
					method, tau, gotP, gotC, wantP, wantC)
			}
		}
	}
}

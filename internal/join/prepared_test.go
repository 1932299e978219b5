package join

import (
	"reflect"
	"testing"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// tokensOracle computes the join the pre-refactor way: SimilarityTokens on
// raw token slices for every pair, no preparation, no thresholded bounds.
func tokensOracle(j *Joiner, s, t []strutil.Record, theta float64) []Pair {
	var out []Pair
	for i := range s {
		for l := range t {
			v := j.Calculator().SimilarityTokens(s[i].Tokens, t[l].Tokens)
			if v >= theta {
				out = append(out, Pair{S: s[i].ID, T: t[l].ID, Similarity: v})
			}
		}
	}
	return out
}

// TestPreparedVerifyMatchesTokensOracle pins the whole prepared pipeline —
// BruteForce and the filtered build-once/probe-many join — against the raw
// SimilarityTokens oracle, exactly (including the Similarity values), across
// filters and thresholds.
func TestPreparedVerifyMatchesTokensOracle(t *testing.T) {
	j := NewJoiner(paperContext())
	s := benchCorpus(60, 31)
	u := benchCorpus(60, 32)
	for _, method := range []pebble.Method{pebble.UFilter, pebble.AUHeuristic, pebble.AUDP} {
		for _, theta := range []float64{0.7, 0.8, 0.9} {
			want := tokensOracle(j, s, u, theta)
			if got := j.BruteForce(s, u, theta, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v θ=%v: BruteForce disagrees with tokens oracle: %d vs %d pairs",
					method, theta, len(got), len(want))
			}
			opts := Options{Theta: theta, Tau: 2, Method: method}
			ix, _, _ := j.joinIndex(s, u, opts)
			got, _ := ix.Probe(u)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v θ=%v: filtered join disagrees with tokens oracle: %d vs %d pairs",
					method, theta, len(got), len(want))
			}
		}
	}
}

// TestProbeRecordMatchesOracle checks single-record serving returns exactly
// the indexed records the raw similarity reaches θ with.
func TestProbeRecordMatchesOracle(t *testing.T) {
	j := NewJoiner(paperContext())
	s := benchCorpus(80, 41)
	probes := benchCorpus(20, 42)
	for _, shards := range gridShards {
		sv := j.BuildShardedIndex(s, shards, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}, DynamicOptions{}).Snapshot()
		for _, p := range probes {
			var want []QueryMatch
			for r := range s {
				if v := j.Calculator().SimilarityTokens(s[r].Tokens, p.Tokens); v >= 0.8 {
					want = append(want, QueryMatch{Record: r, Similarity: v})
				}
			}
			if got := probeRecord(t, sv, p.Tokens); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d: probeByID(%v) = %v, want %v", shards, p.Raw, got, want)
			}
		}
	}
}

// TestMEDLikeJoinMatchesTokensOracle holds the filtered join and the lookup
// to tokensOracle — SimilarityTokens ≥ θ for every pair, with no bound
// involved — on a small MED-like dataset with its own rules and taxonomy, at
// τ = 1, 2 and 3 under both adaptive selectors. BruteForce cannot stand in for
// the oracle here: it verifies through VerifyPrepared, whose size ratio and
// cover bound divide by the records' minimum partition sizes, so a bound too
// large would shrink the filter's prefixes and the oracle alike. The records
// must give those sizes something to decide: at least a third have a
// partition of fewer segments than tokens.
func TestMEDLikeJoinMatchesTokensOracle(t *testing.T) {
	const theta = 0.8
	ds := datagen.New(datagen.MEDLike(120, 57)).Generate()
	j := NewJoiner(ds.Context())
	shorter, records := 0, 0
	for _, recs := range [][]strutil.Record{ds.S, ds.T} {
		for _, r := range recs {
			records++
			if j.calc.Prepare(r.Tokens).MinPartitionSize() < len(r.Tokens) {
				shorter++
			}
		}
	}
	t.Logf("%d of %d records have a partition of fewer segments than tokens", shorter, records)
	if shorter < records/3 {
		t.Fatalf("%d of %d records have a partition of fewer segments than tokens, want at least %d", shorter, records, records/3)
	}
	want := tokensOracle(j, ds.S, ds.T, theta)
	t.Logf("the oracle finds %d pairs", len(want))
	if len(want) < len(ds.T)/10 {
		t.Fatalf("the oracle finds %d pairs over %d probes, want at least %d", len(want), len(ds.T), len(ds.T)/10)
	}
	for _, method := range []pebble.Method{pebble.AUHeuristic, pebble.AUDP} {
		for _, tau := range []int{1, 2, 3} {
			opts := Options{Theta: theta, Tau: tau, Method: method}
			if got, _ := j.Join(ds.S, ds.T, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v τ=%d: the join finds %d pairs, the oracle %d", method, tau, len(got), len(want))
			}
			sv := j.BuildShardedIndex(ds.S, 1, opts, DynamicOptions{}).Snapshot()
			for _, q := range ds.T {
				if got, exp := probeRecord(t, sv, q.Tokens), rowsOf(want, q.ID); (len(got) != 0 || len(exp) != 0) && !reflect.DeepEqual(got, exp) {
					t.Fatalf("%v τ=%d: %v: lookup %v, oracle %v", method, tau, q.Tokens, got, exp)
				}
			}
		}
	}
}

package join

import (
	"reflect"
	"testing"

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
			ix, _ := j.joinIndex(s, u, opts)
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
				t.Fatalf("shards=%d: ProbeRecordCtx(%v) = %v, want %v", shards, p.Raw, got, want)
			}
		}
	}
}

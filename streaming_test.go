package aujoin

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// genStrings builds a corpus over the paper vocabulary, dense enough that
// joins at moderate θ have matches.
func genStrings(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"coffee", "shop", "latte", "espresso", "cafe", "helsinki",
		"helsingki", "cake", "apple", "gateau", "bakery", "db", "database", "systems"}
	out := make([]string, n)
	for i := range out {
		l := 2 + rng.Intn(3)
		toks := make([]string, l)
		for k := range toks {
			toks[k] = vocab[rng.Intn(len(vocab))]
		}
		out[i] = strings.Join(toks, " ")
	}
	return out
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].S != ms[b].S {
			return ms[a].S < ms[b].S
		}
		return ms[a].T < ms[b].T
	})
}

// equalMatches compares match slices treating nil and empty as equal (the
// batch API returns an allocated empty slice, a drained stream nil).
func equalMatches(a, b []Match) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestJoinSeqMatchesJoin pins the public streaming contract: collecting
// JoinSeq (and SelfJoinSeq) and sorting by (S, T) reproduces the batch
// result exactly, across all three filters and θ ∈ {0.7, 0.8, 0.9}.
func TestJoinSeqMatchesJoin(t *testing.T) {
	j := paperJoiner(t)
	left := genStrings(30, 1)
	right := genStrings(30, 2)
	for _, filter := range []Filter{UFilter, AUFilterHeuristic, AUFilterDP} {
		for _, theta := range []float64{0.7, 0.8, 0.9} {
			opts := JoinOptions{Theta: theta, Tau: 2, Filter: filter}
			want, _ := j.Join(left, right, opts)
			var got []Match
			for m, err := range j.JoinSeq(context.Background(), left, right, opts) {
				if err != nil {
					t.Fatalf("%v θ=%v: JoinSeq error: %v", filter, theta, err)
				}
				got = append(got, m)
			}
			sortMatches(got)
			if !equalMatches(got, want) {
				t.Errorf("%v θ=%v: collect(JoinSeq) = %v, want %v", filter, theta, got, want)
			}

			wantSelf, _ := j.SelfJoin(left, opts)
			var gotSelf []Match
			for m, err := range j.SelfJoinSeq(context.Background(), left, opts) {
				if err != nil {
					t.Fatalf("%v θ=%v: SelfJoinSeq error: %v", filter, theta, err)
				}
				gotSelf = append(gotSelf, m)
			}
			sortMatches(gotSelf)
			if !equalMatches(gotSelf, wantSelf) {
				t.Errorf("%v θ=%v: collect(SelfJoinSeq) = %v, want %v", filter, theta, gotSelf, wantSelf)
			}
		}
	}
}

// TestJoinSeqCancelled pins the public error contract: a cancelled context
// surfaces as exactly one yielded non-nil error.
func TestJoinSeqCancelled(t *testing.T) {
	j := paperJoiner(t)
	left := genStrings(20, 3)
	right := genStrings(20, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []JoinOptions{
		{Theta: 0.7, Tau: 2},
	} {
		errs := 0
		for _, err := range j.JoinSeq(ctx, left, right, opts) {
			if err == nil {
				t.Fatalf("opts %+v: cancelled JoinSeq yielded a match", opts)
			}
			errs++
		}
		if errs != 1 {
			t.Errorf("opts %+v: cancelled JoinSeq yielded %d errors, want 1", opts, errs)
		}
	}
}

// TestProbeSeqMatchesProbe pins View.ProbeSeq against the batch Probe at
// one shard and three.
func TestProbeSeqMatchesProbe(t *testing.T) {
	j := paperJoiner(t)
	catalog := genStrings(40, 5)
	batch := genStrings(25, 6)
	for _, shards := range []int{1, 3} {
		ix := j.IndexWith(catalog, JoinOptions{Theta: 0.75, Tau: 2}, IndexOptions{Shards: shards})
		want, wantStats := ix.Probe(batch)
		var got []Match
		for m, err := range ix.ProbeSeq(context.Background(), batch) {
			if err != nil {
				t.Fatalf("shards=%d: ProbeSeq error: %v", shards, err)
			}
			got = append(got, m)
		}
		sortMatches(got)
		if !equalMatches(got, want) {
			t.Errorf("shards=%d: collect(ProbeSeq) = %v, want %v", shards, got, want)
		}
		sum := 0
		for _, c := range wantStats.ShardCandidates {
			sum += c
		}
		if len(wantStats.ShardCandidates) != shards || sum != wantStats.Candidates {
			t.Errorf("shards=%d: ShardCandidates %v does not sum to Candidates %d",
				shards, wantStats.ShardCandidates, wantStats.Candidates)
		}
	}
}

// TestQueryCtxMatchesQuery pins the per-request query path against the batch
// one, including the K and MinSimilarity overrides.
func TestQueryCtxMatchesQuery(t *testing.T) {
	j := paperJoiner(t)
	catalog := genStrings(40, 7)
	ix := j.Index(catalog, JoinOptions{Theta: 0.7, Tau: 2})
	bg := context.Background()
	for _, q := range genStrings(10, 8) {
		want := ix.Query(q)
		got, err := ix.QueryCtx(bg, q, QueryOptions{})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("QueryCtx(%q) = %v (%v), want %v", q, got, err, want)
		}
		wantTop := ix.QueryTopK(q, 3)
		gotTop, err := ix.QueryTopKCtx(bg, q, QueryOptions{K: 3})
		if err != nil || !reflect.DeepEqual(gotTop, wantTop) {
			t.Fatalf("QueryTopKCtx(%q) = %v (%v), want %v", q, gotTop, err, wantTop)
		}
		strict, err := ix.QueryCtx(bg, q, QueryOptions{MinSimilarity: 0.9})
		if err != nil {
			t.Fatalf("QueryCtx(min_sim): %v", err)
		}
		var wantStrict []QueryMatch
		for _, m := range want {
			if m.Similarity >= 0.9 {
				wantStrict = append(wantStrict, m)
			}
		}
		if !reflect.DeepEqual(append([]QueryMatch(nil), strict...), wantStrict) {
			t.Errorf("QueryCtx(%q, min_sim=0.9) = %v, want %v", q, strict, wantStrict)
		}
	}
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	if _, err := ix.QueryCtx(cancelled, catalog[0], QueryOptions{}); err != context.Canceled {
		t.Errorf("cancelled QueryCtx error = %v", err)
	}
	// A threshold below the build-time Theta is refused, not answered
	// best-effort.
	if _, err := ix.QueryCtx(bg, catalog[0], QueryOptions{MinSimilarity: 0.5}); !errors.Is(err, ErrThetaBelowBuild) {
		t.Errorf("QueryCtx(min_sim=0.5) error = %v, want ErrThetaBelowBuild", err)
	}
	if _, err := ix.QueryTopKCtx(bg, catalog[0], QueryOptions{K: 3, MinSimilarity: 0.5}); !errors.Is(err, ErrThetaBelowBuild) {
		t.Errorf("QueryTopKCtx(min_sim=0.5) error = %v, want ErrThetaBelowBuild", err)
	}
}

// TestQueryEmptyString is the public regression test for empty-string
// queries: they must return an empty result on every path rather than
// probing with a zero signature.
func TestQueryEmptyString(t *testing.T) {
	j := paperJoiner(t)
	ix := j.Index(genStrings(20, 9), JoinOptions{Theta: 0.7, Tau: 1})
	for _, q := range []string{"", "   ", "\t\n"} {
		if got := ix.Query(q); len(got) != 0 {
			t.Errorf("Query(%q) = %v, want empty", q, got)
		}
		if got := ix.QueryTopK(q, 5); len(got) != 0 {
			t.Errorf("QueryTopK(%q) = %v, want empty", q, got)
		}
		if got, err := ix.QueryCtx(context.Background(), q, QueryOptions{}); err != nil || len(got) != 0 {
			t.Errorf("QueryCtx(%q) = %v, %v, want empty", q, got, err)
		}
		if got, err := ix.QueryTopKCtx(context.Background(), q, QueryOptions{K: 5}); err != nil || len(got) != 0 {
			t.Errorf("QueryTopKCtx(%q) = %v, %v, want empty", q, got, err)
		}
	}
}

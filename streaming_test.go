package aujoin

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
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

// collectProbe drains View.Probe into (S, T) order, failing the test on an
// error: the deterministic form of the stream, as Join returns it.
func collectProbe(t *testing.T, v *View, records []string) []Match {
	t.Helper()
	var out []Match
	for m, err := range v.Probe(context.Background(), records) {
		if err != nil {
			t.Fatalf("Probe: %v", err)
		}
		out = append(out, m)
	}
	sortMatches(out)
	return out
}

// query is View.Query without a deadline, failing the test on an error.
func query(t *testing.T, v *View, q string, opts QueryOptions) []QueryMatch {
	t.Helper()
	hits, err := v.Query(context.Background(), q, opts)
	if err != nil {
		t.Fatalf("Query(%q, %+v): %v", q, opts, err)
	}
	return hits
}

// waitPipelineIdle fails the test unless every join-pipeline goroutine has
// exited within five seconds.
func waitPipelineIdle(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); PipelineGoroutines() != 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d pipeline goroutines still running", PipelineGoroutines())
		}
	}
}

// TestViewProbeMatchesJoin pins View.Probe, collected and sorted, against the
// one-shot Join of the same catalog and batch, at one shard and three.
func TestViewProbeMatchesJoin(t *testing.T) {
	j := paperJoiner(t)
	catalog := genStrings(40, 5)
	batch := genStrings(25, 6)
	opts := JoinOptions{Theta: 0.75, Tau: 2}
	want, _ := j.Join(catalog, batch, opts)
	if len(want) == 0 {
		t.Fatal("the join finds no match; the comparison would be vacuous")
	}
	for _, shards := range []int{1, 3} {
		ix := j.IndexWith(catalog, opts, IndexOptions{Shards: shards})
		if got := collectProbe(t, ix.Snapshot(), batch); !equalMatches(got, want) {
			t.Errorf("shards=%d: collect(Probe) = %v, want %v", shards, got, want)
		}
	}
}

// TestViewProbeBreakAndCancel pins the stream's exits on a result-heavy probe,
// at one shard and three: breaking out of the range loop is no error and
// stops the pipeline; cancelling after the first match surfaces
// context.Canceled exactly once, before the full result; a context cancelled
// up front yields one error and no match. After each, every pipeline
// goroutine is released.
func TestViewProbeBreakAndCancel(t *testing.T) {
	j := paperJoiner(t)
	families := []string{"espresso cafe helsinki city center", "apple cake bakery market street"}
	tails := []string{"north", "south", "east", "west", "old", "new"}
	var catalog []string
	for i := 0; i < 120; i++ {
		catalog = append(catalog, families[i%2]+" "+tails[i%len(tails)])
	}
	for _, shards := range []int{1, 3} {
		v := j.IndexWith(catalog, JoinOptions{Theta: 0.7, Tau: 2}, IndexOptions{Shards: shards}).Snapshot()
		full := collectProbe(t, v, catalog)
		if len(full) < 1000 {
			t.Fatalf("shards=%d: only %d matches; the exits need a long stream", shards, len(full))
		}
		waitPipelineIdle(t)

		seen := 0
		for _, err := range v.Probe(context.Background(), catalog) {
			if err != nil {
				t.Fatalf("shards=%d: error before the break: %v", shards, err)
			}
			if seen++; seen == 2 {
				break
			}
		}
		if seen != 2 {
			t.Fatalf("shards=%d: the break saw %d matches, want 2", shards, seen)
		}
		waitPipelineIdle(t)

		ctx, cancel := context.WithCancel(context.Background())
		seen, errs := 0, 0
		for _, err := range v.Probe(ctx, catalog) {
			if err != nil {
				if err != context.Canceled {
					t.Fatalf("shards=%d: cancelled Probe error = %v, want context.Canceled", shards, err)
				}
				errs++
				continue
			}
			seen++
			cancel()
		}
		cancel()
		if errs != 1 || seen >= len(full) {
			t.Fatalf("shards=%d: cancelled Probe yielded %d errors after %d of %d matches, want one error before the end",
				shards, errs, seen, len(full))
		}
		waitPipelineIdle(t)

		seen, errs = 0, 0
		for _, err := range v.Probe(ctx, catalog) {
			if err != nil {
				errs++
			} else {
				seen++
			}
		}
		if errs != 1 || seen != 0 {
			t.Errorf("shards=%d: Probe under a cancelled context yielded %d matches and %d errors, want 0 and 1", shards, seen, errs)
		}
		waitPipelineIdle(t)
	}
}

// TestViewQueryOptions pins View.Query's options on one index: K > 0 is the
// first K of the K ≤ 0 answer, which comes best first; a raised MinSimilarity
// keeps exactly the matches reaching it; a cancelled context aborts. The
// refusal table holds every MinSimilarity the index cannot answer — below the
// build θ, negative, NaN — against a plain query and an empty one, at K ≤ 0
// and K > 0: each fails with ErrThetaBelowBuild, the empty query included.
func TestViewQueryOptions(t *testing.T) {
	j := paperJoiner(t)
	catalog := genStrings(40, 7)
	v := j.Index(catalog, JoinOptions{Theta: 0.7, Tau: 2}).Snapshot()
	bg := context.Background()
	for _, q := range genStrings(10, 8) {
		all := query(t, v, q, QueryOptions{})
		if !sort.SliceIsSorted(all, func(a, b int) bool {
			if all[a].Similarity != all[b].Similarity {
				return all[a].Similarity > all[b].Similarity
			}
			return all[a].Record < all[b].Record
		}) {
			t.Fatalf("Query(%q) = %v, not best first", q, all)
		}
		for _, k := range []int{1, 3} {
			if got, want := query(t, v, q, QueryOptions{K: k}), all[:min(k, len(all))]; !reflect.DeepEqual(got, want) {
				t.Fatalf("Query(%q, K=%d) = %v, want %v", q, k, got, want)
			}
		}
		wantStrict := []QueryMatch{}
		for _, m := range all {
			if m.Similarity >= 0.9 {
				wantStrict = append(wantStrict, m)
			}
		}
		if strict := query(t, v, q, QueryOptions{MinSimilarity: 0.9}); !reflect.DeepEqual(strict, wantStrict) {
			t.Errorf("Query(%q, MinSimilarity=0.9) = %v, want %v", q, strict, wantStrict)
		}
		if got := query(t, v, q, QueryOptions{MinSimilarity: 0.7}); !reflect.DeepEqual(got, all) {
			t.Errorf("Query(%q, MinSimilarity=θ) = %v, want %v", q, got, all)
		}
	}
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	if _, err := v.Query(cancelled, catalog[0], QueryOptions{}); err != context.Canceled {
		t.Errorf("cancelled Query error = %v", err)
	}
	// A threshold the build-time filter cannot answer completely is refused,
	// not answered best-effort — checked before the empty-query shortcut.
	for _, below := range []float64{0.5, math.Nextafter(0.7, 0), -0.1, math.Inf(-1), math.NaN()} {
		for _, q := range []string{catalog[0], "", "   "} {
			for _, k := range []int{0, 3} {
				if _, err := v.Query(bg, q, QueryOptions{K: k, MinSimilarity: below}); !errors.Is(err, ErrThetaBelowBuild) {
					t.Errorf("Query(%q, K=%d, MinSimilarity=%v) error = %v, want ErrThetaBelowBuild", q, k, below, err)
				}
			}
		}
	}
}

// TestQueryEmptyString is the public regression test for empty-string
// queries: with valid options they return an empty result rather than
// probing with a zero signature.
func TestQueryEmptyString(t *testing.T) {
	j := paperJoiner(t)
	v := j.Index(genStrings(20, 9), JoinOptions{Theta: 0.7, Tau: 1}).Snapshot()
	for _, q := range []string{"", "   ", "\t\n"} {
		for _, opts := range []QueryOptions{{}, {K: 5}, {MinSimilarity: 0.9}} {
			if got, err := v.Query(context.Background(), q, opts); err != nil || got == nil || len(got) != 0 {
				t.Errorf("Query(%q, %+v) = %#v, %v, want an empty slice", q, opts, got, err)
			}
		}
	}
}

package join

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// This file pins the verify-phase optimisations — the rising-threshold top-k
// scheduler, the per-query msim memo, and the gram-signature prefilter — to
// the plain verify loop: with Options.NoVerifyPrune and Options.NoVerifyMemo
// set, every entry point (QueryTopKCtx, single-record probe, batch Probe,
// one-shot Join) must return bit-identical results across every filter
// method, threshold and serving shape (static snapshot, post-mutation
// snapshot, one shard and three).

func plainVerify(opts Options) Options {
	opts.NoVerifyPrune = true
	opts.NoVerifyMemo = true
	return opts
}

// propQueries derives tokenised query strings that overlap the skewed
// propCorpus vocabulary, so most queries have candidates and some fill their
// top-k heaps (the pruning path needs full heaps to raise the floor).
func propQueries(n int, seed int64) [][]string {
	recs := propCorpus(n, seed)
	out := make([][]string, len(recs))
	for i, r := range recs {
		out[i] = r.Tokens
	}
	return out
}

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// viewPair is one scenario's two snapshots to compare: the index with
// optimised verification and the one running the plain loop.
type viewPair struct {
	name       string
	opt, plain *ShardedView
}

func TestTopKPruningMatchesPlainVerify(t *testing.T) {
	j := NewJoiner(paperContext())
	recs := propCorpus(500, 101)
	queries := propQueries(30, 202)
	ctx := context.Background()
	for _, opts := range propConfigs() {
		var scenarios []viewPair
		var optimised []*ShardedIndex
		for _, shards := range gridShards {
			// Static and post-mutation snapshots; across three shards the
			// fan-out shares one rising floor.
			base := fmt.Sprintf("%v/θ=%v/shards=%d", opts.Method, opts.Theta, shards)
			ox := j.BuildShardedIndex(recs, shards, opts, DynamicOptions{})
			px := j.BuildShardedIndex(recs, shards, plainVerify(opts), DynamicOptions{})
			scenarios = append(scenarios, viewPair{base + "/static", ox.Snapshot(), px.Snapshot()})
			mutate(ox, 303)
			mutate(px, 303)
			scenarios = append(scenarios, viewPair{base + "/mutated", ox.Snapshot(), px.Snapshot()})
			optimised = append(optimised, ox)
		}

		for _, sc := range scenarios {
			for _, k := range []int{1, 3, 10} {
				for _, qo := range []QueryOpts{{}, {Workers: 8}} {
					for qi, q := range queries {
						got, err := sc.opt.QueryTopKCtx(ctx, q, k, qo)
						if err != nil {
							t.Fatalf("%s k=%d q#%d: optimised: %v", sc.name, k, qi, err)
						}
						want, err := sc.plain.QueryTopKCtx(ctx, q, k, qo)
						if err != nil {
							t.Fatalf("%s k=%d q#%d: plain: %v", sc.name, k, qi, err)
						}
						if !matchesEqual(got, want) {
							t.Fatalf("%s k=%d workers=%d q#%d: pruned top-k diverged:\n got %v\nwant %v",
								sc.name, k, qo.Workers, qi, got, want)
						}
					}
				}
			}
		}

		// The optimised indexes must actually have pruned or memoized
		// something, or the comparison is vacuous.
		for _, ox := range optimised {
			st := ox.Stats()
			if st.PrunedByBound == 0 && st.MemoHits == 0 {
				t.Errorf("%v/θ=%v/shards=%d: optimised index reported no pruning and no memo hits", opts.Method, opts.Theta, st.Shards)
			}
			if st.VerifiedCandidates == 0 {
				t.Errorf("%v/θ=%v/shards=%d: optimised index reported no verified candidates", opts.Method, opts.Theta, st.Shards)
			}
		}
	}
}

func TestProbeAndJoinMatchPlainVerify(t *testing.T) {
	j := NewJoiner(paperContext())
	recs := propCorpus(400, 505)
	probe := propCorpus(100, 606)
	queries := propQueries(25, 707)
	for _, opts := range propConfigs() {
		name := fmt.Sprintf("%v/θ=%v", opts.Method, opts.Theta)

		// One-shot join (streams through the batch verify pipeline).
		gp, gs := j.Join(recs, probe, opts)
		wp, ws := j.Join(recs, probe, plainVerify(opts))
		if !pairsEqual(gp, wp) {
			t.Fatalf("%s: Join pairs diverged: %d vs %d", name, len(gp), len(wp))
		}
		if gs.Candidates != ws.Candidates {
			t.Fatalf("%s: Join candidates diverged: %d vs %d", name, gs.Candidates, ws.Candidates)
		}

		// Index snapshots: batch Probe and single-record probes.
		for _, shards := range gridShards {
			ox := j.BuildShardedIndex(recs, shards, opts, DynamicOptions{})
			px := j.BuildShardedIndex(recs, shards, plainVerify(opts), DynamicOptions{})
			mutate(ox, 808)
			mutate(px, 808)
			ov, pv := ox.Snapshot(), px.Snapshot()
			gp, _ = ov.Probe(probe)
			wp, _ = pv.Probe(probe)
			if !pairsEqual(gp, wp) {
				t.Fatalf("%s shards=%d: Probe pairs diverged: %d vs %d", name, shards, len(gp), len(wp))
			}
			for qi, q := range queries {
				got, want := probeRecord(t, ov, q), probeRecord(t, pv, q)
				if !matchesEqual(got, want) {
					t.Fatalf("%s shards=%d q#%d: ProbeRecordCtx diverged:\n got %v\nwant %v", name, shards, qi, got, want)
				}
			}
		}
	}
}

// TestMemoOnlyToggleEquivalence isolates the memo from the scheduler: with
// pruning active in both runs, flipping only NoVerifyMemo must not change a
// single bit (memoized msim values are exact, not approximations).
func TestMemoOnlyToggleEquivalence(t *testing.T) {
	j := NewJoiner(paperContext())
	recs := propCorpus(400, 909)
	queries := propQueries(25, 1010)
	for _, opts := range propConfigs() {
		name := fmt.Sprintf("%v/θ=%v", opts.Method, opts.Theta)
		noMemo := opts
		noMemo.NoVerifyMemo = true
		for _, shards := range gridShards {
			ov := j.BuildShardedIndex(recs, shards, opts, DynamicOptions{}).Snapshot()
			nv := j.BuildShardedIndex(recs, shards, noMemo, DynamicOptions{}).Snapshot()
			for qi, q := range queries {
				got, want := queryTopK(t, ov, q, 5), queryTopK(t, nv, q, 5)
				if !matchesEqual(got, want) {
					t.Fatalf("%s shards=%d q#%d: memo toggle changed results:\n got %v\nwant %v", name, shards, qi, got, want)
				}
			}
		}
	}
}

// TestPrunedQueriesUnderMutation hammers pruned top-k queries (sequential
// and parallel) against a one-shard and a three-shard index while writers
// insert and remove records — the -race run of the suite checks the floor
// tracker, the memo and the pooled scratches for unsynchronised sharing.
func TestPrunedQueriesUnderMutation(t *testing.T) {
	j := NewJoiner(paperContext())
	recs := propCorpus(400, 1111)
	queries := propQueries(16, 1212)
	var indexes []*ShardedIndex
	for _, shards := range gridShards {
		indexes = append(indexes, j.BuildShardedIndex(recs, shards, Options{Theta: 0.75, Tau: 2}, DynamicOptions{MaxSegments: 3}))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(i+w)%len(queries)]
				qo := QueryOpts{}
				if i%2 == 0 {
					qo.Workers = 4
				}
				for _, sx := range indexes {
					if _, err := sx.Snapshot().QueryTopKCtx(ctx, q, 5, qo); err != nil {
						t.Errorf("shards=%d query: %v", sx.Shards(), err)
						return
					}
				}
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(1313))
	for b := 0; b < 8; b++ {
		batch := make([]string, 20)
		for i := range batch {
			batch[i] = fmt.Sprintf("tok%02d tok%02d hot%d_%d", rng.Intn(60), rng.Intn(60), b, i)
		}
		for _, sx := range indexes {
			sx.RemoveBatch(sx.InsertBatch(batch)[:5])
		}
	}
	close(stop)
	wg.Wait()

	for _, sx := range indexes {
		if st := sx.Stats(); st.VerifiedCandidates == 0 {
			t.Errorf("shards=%d: hammer ran no verifications", st.Shards)
		}
	}
}

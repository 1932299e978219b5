package join

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// This file pins the verify phase — the bounded top-k heap, the cover-stage
// bound, the per-probe msim rows — to the brute-force oracle: every entry
// point (QueryTopKCtx, single-record probe, batch Probe, one-shot Join) must
// return exactly what BruteForce computes over the same live records, across
// every filter method, threshold and serving shape (static snapshot,
// post-mutation snapshot, one shard and three). BruteForce prepares both
// sides without a dictionary, so every grid here is also interned ≡ direct.
// That the rows themselves are exact is core's business:
// TestSimilarityPreparedMatchesTokens (plain, interned and warm-scratch lefts
// ≡ SimilarityTokens), TestOneScratchTwoDictionaries and
// TestRowCacheGrowthAndBounds pin it there.

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

// bestFirst orders matches the way QueryTopKCtx returns them: similarity
// descending, ascending ID on ties.
func bestFirst(ms []QueryMatch) []QueryMatch {
	out := slices.Clone(ms)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Similarity != out[b].Similarity {
			return out[a].Similarity > out[b].Similarity
		}
		return out[a].Record < out[b].Record
	})
	return out
}

func TestTopKPruningMatchesPlainVerify(t *testing.T) {
	j := NewJoiner(paperContext())
	recs := propCorpus(500, 101)
	// Queries share the skewed propCorpus vocabulary, so most have candidates
	// and some fill their top-k heaps, which must then evict the right match.
	queries := propCorpus(30, 202)
	ctx := context.Background()
	for _, opts := range propConfigs() {
		for _, shards := range gridShards {
			// Static and post-mutation snapshots; across three shards every
			// shard keeps its own top k and the router merges them.
			sx := j.BuildShardedIndex(recs, shards, opts, DynamicOptions{})
			static := sx.Snapshot()
			mutate(sx, 303)
			for _, sc := range []struct {
				name string
				sv   *ShardedView
			}{{"static", static}, {"mutated", sx.Snapshot()}} {
				name := fmt.Sprintf("%v/θ=%v/shards=%d/%s", opts.Method, opts.Theta, shards, sc.name)
				oracle := j.BruteForce(sc.sv.Live(), queries, opts.Theta, nil)
				for qi, q := range queries {
					all := rowsOf(oracle, q.ID) // ascending ID, probeByID's order
					best := bestFirst(all)
					got, err := probeByID(ctx, sc.sv, q.Tokens, QueryOpts{})
					if err != nil {
						t.Fatalf("%s q#%d: probeByID: %v", name, qi, err)
					}
					if !matchesEqual(got, all) {
						t.Fatalf("%s q#%d: probeByID diverged from brute force:\n got %v\nwant %v", name, qi, got, all)
					}
					for _, k := range []int{1, 3, 10} {
						got, err := sc.sv.QueryTopKCtx(ctx, q.Tokens, k, QueryOpts{})
						if err != nil {
							t.Fatalf("%s k=%d q#%d: QueryTopKCtx: %v", name, k, qi, err)
						}
						if want := best[:min(k, len(best))]; !matchesEqual(got, want) {
							t.Fatalf("%s k=%d q#%d: top-k diverged from brute force:\n got %v\nwant %v", name, k, qi, got, want)
						}
					}
				}
			}

			// The index must actually have pruned and reused rows, or the
			// comparison is vacuous.
			st := sx.Stats()
			if st.PrunedByBound == 0 || st.MemoHits == 0 || st.VerifiedCandidates == 0 {
				t.Errorf("%v/θ=%v/shards=%d: verified %d, pruned %d, memo hits %d: the optimised paths did not all run",
					opts.Method, opts.Theta, shards, st.VerifiedCandidates, st.PrunedByBound, st.MemoHits)
			}
		}
	}
}

func TestProbeAndJoinMatchPlainVerify(t *testing.T) {
	j := NewJoiner(paperContext())
	recs := propCorpus(400, 505)
	probe := propCorpus(100, 606)
	// Every candidate of a completed run is either dismissed by a bound or
	// has its msim matrix filled.
	accounted := func(name string, st Stats) {
		t.Helper()
		if st.VerifiedCandidates+st.PrunedByBound != int64(st.Candidates) || st.PrunedByCover > st.PrunedByBound {
			t.Errorf("%s: %d verified + %d pruned (%d by the cover stage) of %d candidates", name,
				st.VerifiedCandidates, st.PrunedByBound, st.PrunedByCover, st.Candidates)
		}
	}
	var heaviest Stats
	for _, opts := range propConfigs() {
		name := fmt.Sprintf("%v/θ=%v", opts.Method, opts.Theta)

		// One-shot join (streams through the batch verify pipeline).
		got, gs := j.Join(recs, probe, opts)
		if want := j.BruteForce(recs, probe, opts.Theta, nil); !pairsEqual(got, want) {
			t.Fatalf("%s: Join diverged from brute force: %d vs %d pairs", name, len(got), len(want))
		}
		if gs.MemoHits == 0 {
			t.Errorf("%s: Join reported no memo hits; the comparison never exercised the row cache", name)
		}
		accounted(name, gs)
		if gs.Candidates > heaviest.Candidates {
			heaviest = gs
		}

		// Batch Probe on post-mutation snapshots.
		for _, shards := range gridShards {
			sx := j.BuildShardedIndex(recs, shards, opts, DynamicOptions{})
			mutate(sx, 808)
			sv := sx.Snapshot()
			got, ps := sv.Probe(probe)
			if want := j.BruteForce(sv.Live(), probe, opts.Theta, nil); !pairsEqual(got, want) {
				t.Fatalf("%s shards=%d: Probe diverged from brute force: %d vs %d pairs", name, shards, len(got), len(want))
			}
			accounted(fmt.Sprintf("%s shards=%d", name, shards), ps)
		}
	}
	// The worker count changes nothing but time: one worker runs all of a
	// probe record's requests, so the pairs and every counter of the work done
	// are those of the one-worker run — also when the probe collection is
	// shorter than the worker count, where spare workers used to be lent to
	// each record's verification and every one of them evaluated the record's
	// msim rows again. Those collections are the probe records with the most
	// candidates on a one-shard index, and what a Probe of them does is what
	// the threshold read (QueryTopKCtx at k ≤ 0) does for the same records.
	ctx := context.Background()
	for _, opts := range propConfigs()[3:6] {
		type run struct {
			pairs []Pair
			work  work
		}
		sizing := j.BuildShardedIndex(recs, 1, opts, DynamicOptions{}).Snapshot()
		candidates := make(map[int]int, len(probe))
		for _, r := range probe {
			_, st := sizing.Probe([]strutil.Record{r})
			candidates[r.ID] = st.Candidates
		}
		heavy := slices.Clone(probe)
		slices.SortStableFunc(heavy, func(a, b strutil.Record) int { return candidates[b.ID] - candidates[a.ID] })
		if n := candidates[heavy[2].ID]; n < 64 {
			t.Fatalf("%v/θ=%v: the third-heaviest probe record keeps %d candidates; the short collections are too light", opts.Method, opts.Theta, n)
		}
		shorts := [][]strutil.Record{heavy[:1], heavy[:3]}
		var ref []run
		for _, workers := range []int{1, 2, 4} {
			opts.Workers = workers
			sx := j.BuildShardedIndex(recs, 3, opts, DynamicOptions{})
			mutate(sx, 808)
			one := j.BuildShardedIndex(recs, 1, opts, DynamicOptions{})
			joins := []func() ([]Pair, Stats){
				func() ([]Pair, Stats) { return j.Join(recs, probe, opts) },
				func() ([]Pair, Stats) { return j.SelfJoin(recs, opts) },
				func() ([]Pair, Stats) { return sx.Snapshot().Probe(probe) },
			}
			for _, short := range shorts {
				joins = append(joins, func() ([]Pair, Stats) { return one.Snapshot().Probe(short) })
			}
			var runs []run
			for _, join := range joins {
				pairs, st := join()
				runs = append(runs, run{pairs, workOf(st)})
			}
			if ref == nil {
				ref = runs
			}
			for i, r := range runs {
				if r.work.MSimEvals == 0 || !pairsEqual(r.pairs, ref[i].pairs) || r.work != ref[i].work {
					t.Errorf("%v/θ=%v join %d: at %d workers %d pairs, work %+v; at one worker %d pairs, work %+v",
						opts.Method, opts.Theta, i, workers, len(r.pairs), r.work, len(ref[i].pairs), ref[i].work)
				}
			}
			for i, short := range shorts {
				before := one.Stats()
				var pairs []Pair
				for _, r := range short {
					matches, err := probeByID(ctx, one.Snapshot(), r.Tokens, QueryOpts{})
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range matches {
						pairs = append(pairs, Pair{S: m.Record, T: r.ID, Similarity: m.Similarity})
					}
				}
				sortPairs(pairs)
				after, got := one.Stats(), runs[len(runs)-len(shorts)+i]
				lookups := lookupWork(before, after)
				if !pairsEqual(got.pairs, pairs) || got.work != lookups {
					t.Errorf("%v/θ=%v at %d workers: Probe of %d records: %d pairs, work %+v; probeByID for the same records: %d pairs, work %+v",
						opts.Method, opts.Theta, workers, len(short), len(got.pairs), got.work, len(pairs), lookups)
				}
			}
		}
	}

	// The equalities above hold with or without the cover stage; on the
	// configuration that admits the most candidates it must be what dismisses
	// most of them, or it has silently stopped firing.
	if heaviest.PrunedByCover == 0 || heaviest.VerifiedCandidates >= int64(heaviest.Candidates)/2 {
		t.Errorf("heaviest join: %d candidates, %d matrices filled, %d dismissed by the cover stage: the stage is not carrying the verify phase",
			heaviest.Candidates, heaviest.VerifiedCandidates, heaviest.PrunedByCover)
	}
}

// TestPrunedQueriesUnderMutation hammers pruned top-k queries and threshold
// probes from four goroutines against a one-shard and a three-shard index while writers insert and remove records and maxSegments
// forces rebuilds — the -race run of the suite checks the segment dictionary
// (inserts intern beside readers) and the pooled scratches for unsynchronised
// sharing.
func TestPrunedQueriesUnderMutation(t *testing.T) {
	j := NewJoiner(paperContext())
	recs := propCorpus(400, 1111)
	queries := propCorpus(16, 1212)
	var indexes []*ShardedIndex
	for _, shards := range gridShards {
		indexes = append(indexes, j.BuildShardedIndex(recs, shards, Options{Theta: 0.75, Tau: 2}, DynamicOptions{maxSegments: 2}))
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
				q := queries[(i+w)%len(queries)].Tokens
				for _, sx := range indexes {
					sv := sx.Snapshot()
					if _, err := sv.QueryTopKCtx(ctx, q, 5, QueryOpts{}); err != nil {
						t.Errorf("shards=%d query: %v", sx.Shards(), err)
						return
					}
					if _, err := probeByID(ctx, sv, q, QueryOpts{}); err != nil {
						t.Errorf("shards=%d probe: %v", sx.Shards(), err)
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

// TestMSimEvalsBoundedByDistinctTexts pins the property the per-probe msim
// rows exist for: a query's candidates draw their segments from the index's
// small dictionary, so however many candidates it has to decide, the msim
// cells actually computed for one query are at most (distinct segment texts)
// × (probe segments) per verify scratch — one scratch a shard. The corpus has
// 300 distinct texts under ~20 000 segments and a query admits on the order
// of a thousand candidates; enough queries run that a cache which fills up
// and stops inserting (the string-keyed memo's 2^16 entries) would be full
// long before the last one. How hard the bound binds is measured in the
// cells the queries were asked to decide — candidates past the size ratio ×
// probe segments × mean segments a record — not in cells filled: the cover
// stage decides most candidates without a matrix.
func TestMSimEvalsBoundedByDistinctTexts(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	record := func() string {
		toks := make([]string, 4+rng.Intn(3))
		for k := range toks {
			toks[k] = fmt.Sprintf("w%03d", rng.Intn(300))
		}
		return strutil.JoinTokens(toks)
	}
	j := NewJoiner(paperContext())
	raws := make([]string, 4000)
	segments := 0
	for i := range raws {
		raws[i] = record()
		segments += j.Calculator().Prepare(strutil.Tokenize(raws[i])).NumSegments()
	}
	meanSegments := float64(segments) / float64(len(raws))
	ctx := context.Background()
	for _, shards := range gridShards {
		sx := j.BuildShardedIndex(strutil.NewCollection(raws), shards, Options{Theta: 0.7, Tau: 1, Method: pebble.UFilter}, DynamicOptions{})
		distinct := int64(sx.Stats().DistinctSegments)
		var evals, bounds int64
		asked := 0.0
		for q := 0; q < 60; q++ {
			toks := strutil.Tokenize(record())
			nt := int64(j.Calculator().Prepare(toks).NumSegments())
			before := sx.Stats()
			if _, err := sx.Snapshot().QueryTopKCtx(ctx, toks, 10, QueryOpts{}); err != nil {
				t.Fatal(err)
			}
			after := sx.Stats()
			e, bound := after.MSimEvals-before.MSimEvals, int64(shards)*distinct*nt
			if e > bound {
				t.Fatalf("shards=%d query %d: %d msim cells computed for %d verified candidates, bound %d (%d distinct texts × %d probe segments × %d shards)",
					shards, q, e, after.VerifiedCandidates-before.VerifiedCandidates, bound, distinct, nt, shards)
			}
			evals, bounds = evals+e, bounds+bound
			// Past the size ratio: dismissed by the cover stage or verified.
			past := after.PrunedByCover - before.PrunedByCover + after.VerifiedCandidates - before.VerifiedCandidates
			asked += float64(past*nt) * meanSegments
		}
		t.Logf("shards=%d: %d distinct texts, %d cells computed (bound %d) to decide %.0f", shards, distinct, evals, bounds, asked)
		if asked < 2*float64(bounds) {
			t.Errorf("shards=%d: %.0f cells to decide against a bound of %d; too few candidates a query for the bound to bind", shards, asked, bounds)
		}
	}
}

package join

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// gridShards are the shard counts every property of the mutable index runs
// under: the fan-out of one and a prime count with uneven shard sizes. The
// engine routes both identically, so each property is checked once per count
// through BuildShardedIndex rather than once per index type.
var gridShards = []int{1, 3}

// rawCorpus is propertyCorpus as raw strings (InsertBatch takes strings, not
// records).
func rawCorpus(n int, rng *rand.Rand) []string {
	recs := propertyCorpus(n, rng)
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Raw
	}
	return out
}

// probeByID is the threshold read the tests compare against sorted batch
// rows and brute force: every match reaching θ (QueryTopKCtx at k ≤ 0),
// re-sorted from rank order into ascending stable-ID order.
func probeByID(ctx context.Context, sv *ShardedView, tokens []string, qo QueryOpts) ([]QueryMatch, error) {
	out, err := sv.QueryTopKCtx(ctx, tokens, 0, qo)
	sort.Slice(out, func(a, b int) bool { return out[a].Record < out[b].Record })
	return out, err
}

// probeRecord and queryTopK are the context-free forms of probeByID and
// QueryTopKCtx, for tests that exercise neither cancellation nor per-request
// options.
func probeRecord(t testing.TB, sv *ShardedView, tokens []string) []QueryMatch {
	t.Helper()
	out, err := probeByID(context.Background(), sv, tokens, QueryOpts{})
	if err != nil {
		t.Fatalf("probeByID: %v", err)
	}
	return out
}

func queryTopK(t testing.TB, sv *ShardedView, tokens []string, k int) []QueryMatch {
	t.Helper()
	out, err := sv.QueryTopKCtx(context.Background(), tokens, k, QueryOpts{})
	if err != nil {
		t.Fatalf("QueryTopKCtx: %v", err)
	}
	return out
}

// rowsOf extracts the matches of probe record id from a sorted batch Probe
// result — what a single-record probe of that record must return, in its
// ascending stable-ID order.
func rowsOf(pairs []Pair, id int) []QueryMatch {
	var out []QueryMatch
	for _, p := range pairs {
		if p.T == id {
			out = append(out, QueryMatch{Record: p.S, Similarity: p.Similarity})
		}
	}
	return out
}

// TestDynamicIndexMutationMatchesBruteForce is the oracle property of the
// dynamic pipeline: after every batch of insert/remove mutations, Probe on
// a fresh snapshot must equal BruteForce over the snapshot's live catalog —
// same pairs (by stable ID), same similarities — across filter methods and
// thresholds, including states straddling rebuilds.
func TestDynamicIndexMutationMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := propertyContexts()["full"]
	j := NewJoiner(ctx)
	probe := propertyCorpus(25, rng)
	for _, shards := range gridShards {
		for _, method := range []pebble.Method{pebble.UFilter, pebble.AUHeuristic, pebble.AUDP} {
			for _, theta := range []float64{0.7, 0.8, 0.9} {
				opts := Options{Theta: theta, Tau: 2, Method: method}
				name := fmt.Sprintf("shards=%d %v θ=%v", shards, method, theta)
				// Aggressive thresholds so the mutation sequence crosses at
				// least one rebuild.
				sx := j.BuildShardedIndex(propertyCorpus(30, rng), shards, opts, DynamicOptions{
					rebuildFraction: 0.15, maxSegments: 4,
				})
				live := map[int]bool{}
				for id := 0; id < 30; id++ {
					live[id] = true
				}
				check := func(step string) {
					t.Helper()
					v := sx.Snapshot()
					got, stats := v.Probe(probe)
					want := j.BruteForce(v.Live(), probe, theta, nil)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s: Probe %d pairs, oracle %d pairs", name, step, len(got), len(want))
					}
					if stats.Results != len(got) {
						t.Fatalf("%s %s: stats.Results = %d, want %d", name, step, stats.Results, len(got))
					}
					if lv := v.Stats().Live; lv != len(live) {
						t.Fatalf("%s %s: Live = %d, want %d", name, step, lv, len(live))
					}
					// Single-record serving must agree with the batch probe:
					// the threshold read of q is exactly the rows of Probe with T = q.
					for qi := 0; qi < 3; qi++ {
						want := rowsOf(got, probe[qi].ID)
						if qr := probeRecord(t, v, probe[qi].Tokens); !reflect.DeepEqual(qr, want) {
							t.Fatalf("%s %s: probeByID(%q) = %v, want %v", name, step, probe[qi].Raw, qr, want)
						}
					}
				}
				check("initial")
				for round := 0; round < 4; round++ {
					for _, id := range sx.InsertBatch(rawCorpus(8, rng)) {
						live[id] = true
					}
					removed := 0
					for id := range live {
						if removed >= 5 {
							break
						}
						if !sx.Remove(id) {
							t.Fatalf("Remove(%d) failed for live id", id)
						}
						if sx.Remove(id) {
							t.Fatalf("Remove(%d) succeeded twice", id)
						}
						delete(live, id)
						removed++
					}
					check("round")
				}
				if sx.Stats().Rebuilds == 0 {
					t.Fatalf("%s: mutation sequence never triggered a rebuild", name)
				}
			}
		}
	}
}

// TestDynamicIndexQueryTopK pins QueryTopKCtx at k > 0 against the same call
// at k ≤ 0: the top-k result must be the k highest-similarity entries of the
// full thresholded result, ordered by descending similarity with ascending-ID
// ties, and k ≤ 0 must be that full result in that order.
func TestDynamicIndexQueryTopK(t *testing.T) {
	for _, shards := range gridShards {
		rng := rand.New(rand.NewSource(13))
		j := NewJoiner(propertyContexts()["full"])
		sx := j.BuildShardedIndex(propertyCorpus(40, rng), shards, Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
		sx.InsertBatch(rawCorpus(15, rng))
		for i := 0; i < 7; i++ {
			sx.Remove(3 * i)
		}
		v := sx.Snapshot()
		for _, q := range rawCorpus(20, rng) {
			tokens := strutil.Tokenize(q)
			full := bestFirst(probeRecord(t, v, tokens))
			for _, k := range []int{-1, 0, 1, 3, len(full), len(full) + 5} {
				got := queryTopK(t, v, tokens, k)
				want := full
				if k > 0 {
					want = full[:min(k, len(full))]
				}
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d: QueryTopKCtx(%q, %d) = %v, want %v", shards, q, k, got, want)
				}
			}
		}
	}
}

// testStableIDs checks stable IDs keep identifying the same strings after
// forced per-shard rebuilds, that a snapshot's live set holds them and not
// the removed records, and that every rebuild logged its writer pause.
func testStableIDs(t *testing.T, shards int) {
	rng := rand.New(rand.NewSource(43))
	j := NewJoiner(propertyContexts()["synonyms"])
	sx := j.BuildShardedIndex(propertyCorpus(12, rng), shards, Options{Theta: 0.8, Tau: 1}, DynamicOptions{
		rebuildFraction: 0.05, maxSegments: 1,
	})
	ids := sx.InsertBatch([]string{"coffee shop latte helsinki", "apple cake bakery special"})
	for i := 0; i < 10; i++ {
		sx.Remove(i) // force tombstone-triggered rebuilds
	}
	if sx.Stats().Rebuilds == 0 {
		t.Fatal("expected per-shard rebuilds")
	}
	live := make(map[int]string)
	for _, rec := range sx.Snapshot().Live() {
		live[rec.ID] = rec.Raw
	}
	if raw, ok := live[ids[0]]; !ok || raw != "coffee shop latte helsinki" {
		t.Fatalf("live record %d = %q, %v; want the first inserted string", ids[0], raw, ok)
	}
	if _, ok := live[3]; ok {
		t.Fatal("removed record still visible after rebuild")
	}
	// Every compaction logs one shard-local pause and every re-freeze one
	// whole-index pause while rebuilding each shard once.
	if got, want := len(sx.RebuildPauses()), sx.Stats().Rebuilds-sx.Refreezes()*(shards-1); got != want {
		t.Fatalf("RebuildPauses has %d entries, want %d", got, want)
	}
}

func TestDynamicIndexStableIDs(t *testing.T)                    { testStableIDs(t, 1) }
func TestShardedIndexStableIDsAcrossShardRebuilds(t *testing.T) { testStableIDs(t, 3) }

// testConcurrentMutateQuery hammers the router with concurrent
// InsertBatch/RemoveBatch writers and fan-out readers while per-shard
// rebuilds and global re-freezes fire — it exists to run under -race —
// holding every 8th view a reader takes, and the final state, to the oracle.
func testConcurrentMutateQuery(t *testing.T, shards int) {
	rng := rand.New(rand.NewSource(47))
	j := NewJoiner(propertyContexts()["full"])
	sx := j.BuildShardedIndex(propertyCorpus(30, rng), shards, Options{Theta: 0.75, Tau: 2, Method: pebble.AUDP}, DynamicOptions{
		rebuildFraction: 0.1, maxSegments: 2,
	})
	queries := rawCorpus(30, rng)
	probe := propertyCorpus(10, rng)

	done := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				v := sx.Snapshot()
				tokens := strutil.Tokenize(queries[(i+r)%len(queries)])
				switch i % 3 {
				case 0:
					probeByID(context.Background(), v, tokens, QueryOpts{})
				case 1:
					v.QueryTopKCtx(context.Background(), tokens, 5, QueryOpts{})
				default:
					v.Probe(probe)
				}
				st := v.Stats()
				if st.Live != st.Records-st.Dead {
					t.Errorf("inconsistent snapshot stats: %+v", st)
					return
				}
				// Every view is one generation, whatever re-freeze or
				// compaction has run since it was published: exact over its
				// own live records.
				if i%8 == 0 {
					if got, _ := v.Probe(probe); !reflect.DeepEqual(got, j.BruteForce(v.Live(), probe, 0.75, nil)) {
						t.Errorf("reader %d, iteration %d: Probe %d pairs, oracle over the view's live records disagrees", r, i, len(got))
						return
					}
				}
			}
		}(r)
	}

	insertedIDs := make(chan int, 4096)
	writers.Add(2)
	go func() {
		defer writers.Done()
		wrng := rand.New(rand.NewSource(53))
		for i := 0; i < 40; i++ {
			batch := rawCorpus(4, wrng)
			// Novel tokens grow the shared dynamic region past the frozen
			// prefix, so global refreezes fire while readers hold views —
			// the per-snapshot check above runs across them, under the race
			// detector too.
			for b := range batch {
				batch[b] += fmt.Sprintf(" zaw%dqx%dv", i, b)
			}
			for _, id := range sx.InsertBatch(batch) {
				select {
				case insertedIDs <- id:
				default:
				}
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 30; i++ {
			batch := []int{i % 30}
			select {
			case id := <-insertedIDs:
				batch = append(batch, id)
			default:
			}
			sx.RemoveBatch(batch)
		}
	}()

	writers.Wait()
	close(done)
	readers.Wait()

	v := sx.Snapshot()
	got, _ := v.Probe(probe)
	want := j.BruteForce(v.Live(), probe, 0.75, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("final Probe %d pairs, oracle %d pairs", len(got), len(want))
	}
	if sx.Stats().Rebuilds == 0 {
		t.Fatal("expected per-shard rebuilds under mutation load")
	}
	if sx.Refreezes() == 0 {
		t.Fatal("expected global refreezes under novel-key mutation load")
	}
}

func TestDynamicIndexConcurrentServeMutate(t *testing.T) { testConcurrentMutateQuery(t, 1) }
func TestShardedIndexConcurrentMutateQuery(t *testing.T) { testConcurrentMutateQuery(t, 4) }

// TestProbeTallyStats pins the cumulative counters: probes served by the
// index must accumulate ProbePostings and the bitmap/slice token split in
// Stats, growing monotonically across snapshots and summing over the shards;
// and a batch Probe books its work on the shards that did it, once — what the
// call's own Stats report is exactly what the index-wide counters grew by.
func TestProbeTallyStats(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	j := NewJoiner(propertyContexts()["full"])
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	corpus := propertyCorpus(200, rng)
	queries := propertyCorpus(20, rng)
	for _, shards := range gridShards {
		sx := j.BuildShardedIndex(corpus, shards, opts, DynamicOptions{})
		if st := sx.Stats(); st.ProbePostings != 0 || st.ProbeBitsetTokens != 0 || st.ProbeSliceTokens != 0 {
			t.Fatalf("shards=%d: fresh index has nonzero probe tallies: %+v", shards, st)
		}
		v := sx.Snapshot()
		for _, q := range queries {
			probeRecord(t, v, q.Tokens)
		}
		st := sx.Stats()
		if st.ProbePostings == 0 {
			t.Fatalf("shards=%d: probes processed no postings", shards)
		}
		if st.ProbeBitsetTokens+st.ProbeSliceTokens == 0 {
			t.Fatalf("shards=%d: probes consulted no posting lists", shards)
		}
		for _, q := range queries {
			queryTopK(t, v, q.Tokens, 3)
		}
		// Counters are index-lifetime, read fresh through any new snapshot.
		if st2 := sx.Stats(); st2.ProbePostings <= st.ProbePostings {
			t.Fatalf("shards=%d: tallies did not grow: %d then %d", shards, st.ProbePostings, st2.ProbePostings)
		}
	}

	// A batch Probe on a mutated three-shard index, every configuration.
	j = NewJoiner(paperContext())
	recs, probe := propCorpus(600, 71), propCorpus(80, 72)
	for _, opts := range propConfigs() {
		name := fmt.Sprintf("%v/θ=%v", opts.Method, opts.Theta)
		sx := j.BuildShardedIndex(recs, 3, opts, DynamicOptions{})
		mutate(sx, 73)
		before := sx.Stats()
		_, ps := sx.Snapshot().Probe(probe)
		after := sx.Stats()
		if ps.Candidates == 0 || ps.VerifiedCandidates+ps.PrunedByBound != int64(ps.Candidates) {
			t.Errorf("%s: Probe reports %d verified + %d pruned of %d candidates", name, ps.VerifiedCandidates, ps.PrunedByBound, ps.Candidates)
		}
		sum, busy := 0, 0
		for _, c := range ps.ShardCandidates {
			sum += c
			if c > 0 {
				busy++
			}
		}
		if len(ps.ShardCandidates) != 3 || sum != ps.Candidates || busy < 2 {
			t.Errorf("%s: ShardCandidates %v against %d candidates", name, ps.ShardCandidates, ps.Candidates)
		}
		if got, want := lookupWork(before, after), workOf(ps); got != want {
			t.Errorf("%s: one Probe raised the index's counters by %+v and reports %+v", name, got, want)
		}
	}
}

package join

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// collectSeq drains a pair stream, returning the pairs in emission order and
// the first error the stream yielded.
func collectSeq(t *testing.T, seq func(func(Pair, error) bool)) ([]Pair, error) {
	t.Helper()
	var out []Pair
	for p, err := range seq {
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
	return out, nil
}

// checkGoroutines waits for every pipeline-tagged goroutine (parallel
// workers, stream producers) to exit, failing with a full stack dump when
// they do not — the streaming pipeline must not leak workers however the
// consumer leaves. It deliberately does not look at runtime.NumGoroutine():
// that counts runtime housekeeping and other tests' goroutines, so asserting
// the total settles back to a before-value raced with unrelated activity.
func checkGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := pipelineGoroutines.Load()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d pipeline goroutines still live\n%s",
				n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSeqMatchesBatch pins the streaming contract: collecting a Seq and
// sorting by (S, T) reproduces the batch result exactly — same pairs, same
// similarities — across all three filter methods and θ ∈ {0.7, 0.8, 0.9},
// for R×S joins, self-joins and index probes.
func TestSeqMatchesBatch(t *testing.T) {
	ctx := propertyContexts()["full"]
	rng := rand.New(rand.NewSource(77))
	s := propertyCorpus(40, rng)
	u := propertyCorpus(35, rng)
	for _, method := range []pebble.Method{pebble.UFilter, pebble.AUHeuristic, pebble.AUDP} {
		for _, theta := range []float64{0.7, 0.8, 0.9} {
			j := NewJoiner(ctx)
			opts := Options{Theta: theta, Tau: 2, Method: method}

			want, _ := j.Join(s, u, opts)
			got, err := collectSeq(t, j.JoinSeq(context.Background(), s, u, opts))
			if err != nil {
				t.Fatalf("%v θ=%v: JoinSeq error: %v", method, theta, err)
			}
			sortPairs(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v θ=%v: JoinSeq %v != Join %v", method, theta, got, want)
			}

			wantSelf, _ := j.SelfJoin(s, opts)
			gotSelf, err := collectSeq(t, j.SelfJoinSeq(context.Background(), s, opts))
			if err != nil {
				t.Fatalf("%v θ=%v: SelfJoinSeq error: %v", method, theta, err)
			}
			sortPairs(gotSelf)
			if !reflect.DeepEqual(gotSelf, wantSelf) {
				t.Errorf("%v θ=%v: SelfJoinSeq %v != SelfJoin %v", method, theta, gotSelf, wantSelf)
			}

			// An index built over S alone, probed through its view.
			sv := j.BuildIndex(s, opts).view()
			wantProbe, _ := sv.Probe(u)
			gotProbe, err := collectSeq(t, sv.ProbeSeq(context.Background(), u))
			if err != nil {
				t.Fatalf("%v θ=%v: ProbeSeq error: %v", method, theta, err)
			}
			sortPairs(gotProbe)
			if !reflect.DeepEqual(gotProbe, wantProbe) {
				t.Errorf("%v θ=%v: ProbeSeq %v != Probe %v", method, theta, gotProbe, wantProbe)
			}
		}
	}
}

// TestShardedProbeSeqMatchesProbe extends the shard-count invariance to the
// streaming path: ShardedView.ProbeSeq collected and sorted must equal the
// batch Probe for every shard count, including after mutations.
func TestShardedProbeSeqMatchesProbe(t *testing.T) {
	ctx := propertyContexts()["full"]
	rng := rand.New(rand.NewSource(99))
	corpus := propertyCorpus(30, rng)
	probe := propertyCorpus(20, rng)
	for _, shards := range shardCounts {
		j := NewJoiner(ctx)
		opts := Options{Theta: 0.75, Tau: 2, Method: pebble.AUDP}
		sx := j.BuildShardedIndex(corpus, shards, opts, DynamicOptions{})
		sx.InsertBatch(rawCorpus(8, rng))
		sx.Remove(3)
		sv := sx.Snapshot()
		want, wantStats := sv.Probe(probe)
		got, err := collectSeq(t, sv.ProbeSeq(context.Background(), probe))
		if err != nil {
			t.Fatalf("shards=%d: ProbeSeq error: %v", shards, err)
		}
		sortPairs(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: ProbeSeq %v != Probe %v", shards, got, want)
		}
		// One entry per shard — a one-entry slice at one shard — summing to
		// the candidate count.
		if len(wantStats.ShardCandidates) != shards {
			t.Fatalf("shards=%d: ShardCandidates has %d entries", shards, len(wantStats.ShardCandidates))
		}
		sum := 0
		for _, c := range wantStats.ShardCandidates {
			sum += c
		}
		if sum != wantStats.Candidates {
			t.Errorf("shards=%d: ShardCandidates sum %d != Candidates %d", shards, sum, wantStats.Candidates)
		}
	}
}

// denseCorpus builds n records in a few near-duplicate families (five shared
// tokens plus one variable token), so an R×S join at moderate θ produces on
// the order of (n/families)²·families matches — the result-heavy workload
// the streaming path exists for.
func denseCorpus(n, families int, seed int64) []strutil.Record {
	rng := rand.New(rand.NewSource(seed))
	templates := [][]string{
		{"espresso", "cafe", "helsinki", "city", "center"},
		{"apple", "cake", "bakery", "market", "street"},
		{"database", "systems", "course", "spring", "term"},
		{"machine", "learning", "lab", "open", "day"},
	}
	tail := []string{"north", "south", "east", "west", "old", "new"}
	raws := make([]string, n)
	for i := range raws {
		toks := append([]string(nil), templates[i%families]...)
		toks = append(toks, tail[rng.Intn(len(tail))])
		raws[i] = strutil.JoinTokens(toks)
	}
	return strutil.NewCollection(raws)
}

// TestJoinSeqCancellation pins the cancellation contract on a long join:
// cancelling after the first yielded match returns promptly (well under the
// full-join wall time), surfaces the context error exactly once, and leaks
// no goroutines.
func TestJoinSeqCancellation(t *testing.T) {
	j := NewJoiner(paperContext())
	s := denseCorpus(220, 3, 1)
	u := denseCorpus(220, 3, 2)
	opts := Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}

	start := time.Now()
	full, err := collectSeq(t, j.JoinSeq(context.Background(), s, u, opts))
	if err != nil {
		t.Fatalf("full JoinSeq error: %v", err)
	}
	fullTime := time.Since(start)
	if len(full) < 10000 {
		t.Fatalf("workload too small to time cancellation: %d results", len(full))
	}
	checkGoroutines(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start = time.Now()
	seen := 0
	var seqErr error
	for _, err := range j.JoinSeq(ctx, s, u, opts) {
		if err != nil {
			seqErr = err
			break
		}
		seen++
		cancel()
	}
	cancelTime := time.Since(start)
	if seqErr == nil {
		t.Fatal("cancelled JoinSeq yielded no error")
	}
	if seqErr != context.Canceled {
		t.Fatalf("cancelled JoinSeq error = %v, want context.Canceled", seqErr)
	}
	if seen >= len(full) {
		t.Fatalf("cancellation delivered all %d results", seen)
	}
	if cancelTime >= fullTime {
		t.Errorf("cancelled join took %v, full join %v — cancellation did not stop work early",
			cancelTime, fullTime)
	}
	checkGoroutines(t)
}

// TestSeqConsumerBreak pins the early-exit contract: breaking out of the
// range loop mid-stream is not an error, stops the pipeline, and leaks no
// goroutines.
func TestSeqConsumerBreak(t *testing.T) {
	ctx := propertyContexts()["full"]
	rng := rand.New(rand.NewSource(5))
	j := NewJoiner(ctx)
	s := propertyCorpus(40, rng)
	u := propertyCorpus(40, rng)
	opts := Options{Theta: 0.7, Tau: 1, Method: pebble.AUDP}
	full, _ := j.Join(s, u, opts)
	if len(full) < 4 {
		t.Fatalf("corpus yields only %d matches; break test needs a few", len(full))
	}
	seen := 0
	for _, err := range j.JoinSeq(context.Background(), s, u, opts) {
		if err != nil {
			t.Fatalf("unexpected error before break: %v", err)
		}
		seen++
		if seen == 2 {
			break
		}
	}
	if seen != 2 {
		t.Fatalf("consumer break saw %d pairs, want 2", seen)
	}
	checkGoroutines(t)
}

// TestSeqFirstMatchBeforeFilterEnds pins what "streaming" means: the first
// match of a ProbeSeq is out after one probe record's filter-and-verify, not
// after the whole collection has been filtered. Every probe record matches, the
// consumer walks away at the first yield, and the index's cumulative filter
// counter must then have grown by well under what a full Probe of the same
// collection adds to it — with one worker the loop is at most a couple of
// records ahead of the consumer.
func TestSeqFirstMatchBeforeFilterEnds(t *testing.T) {
	j := NewJoiner(paperContext())
	opts := Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP, Workers: 1}
	sx := j.BuildShardedIndex(denseCorpus(120, 3, 7), 2, opts, DynamicOptions{})
	probe := denseCorpus(64, 3, 8)
	sv := sx.Snapshot()
	checkGoroutines(t)

	before := sx.Stats().ProbePostings
	pairs, _ := sv.Probe(probe)
	full := sx.Stats().ProbePostings - before
	matched := make(map[int]bool)
	for _, p := range pairs {
		matched[p.T] = true
	}
	if len(matched) != len(probe) || full == 0 {
		t.Fatalf("%d of %d probe records match, %d postings: the workload does not make every record yield", len(matched), len(probe), full)
	}

	before = sx.Stats().ProbePostings
	seen := 0
	for _, err := range sv.ProbeSeq(context.Background(), probe) {
		if err != nil {
			t.Fatalf("ProbeSeq error before the break: %v", err)
		}
		seen++
		break
	}
	if seen != 1 {
		t.Fatalf("consumer saw %d pairs before breaking, want 1", seen)
	}
	if part := sx.Stats().ProbePostings - before; 2*part >= full {
		t.Errorf("first match arrived after %d postings were filtered; the full probe filters %d", part, full)
	}
	checkGoroutines(t)
}

// TestProbeSeqCancellation covers the snapshot streaming path: a cancelled
// context aborts a View.ProbeSeq mid-verify with the context error and no
// goroutine leak.
func TestProbeSeqCancellation(t *testing.T) {
	j := NewJoiner(paperContext())
	catalog := denseCorpus(200, 3, 3)
	probe := denseCorpus(200, 3, 4)
	sx := j.BuildShardedIndex(catalog, 2, Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
	sv := sx.Snapshot()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	var seqErr error
	for _, err := range sv.ProbeSeq(ctx, probe) {
		if err != nil {
			seqErr = err
			break
		}
		seen++
		cancel()
	}
	if seqErr != context.Canceled {
		t.Fatalf("ProbeSeq error = %v, want context.Canceled", seqErr)
	}
	full, _ := sv.Probe(probe)
	if seen >= len(full) {
		t.Fatalf("cancellation delivered all %d results", seen)
	}
	checkGoroutines(t)
}

// TestQueryCtxParityAndOverrides pins the single-record paths against the
// batch probe and checks the per-request overrides, at every shard count:
// the zero QueryOpts reproduces the rows of Probe, a raised threshold drops
// exactly the matches below it, a threshold below the build θ is refused with
// ErrThetaBelowBuild, and a cancelled context aborts the fan-out.
func TestQueryCtxParityAndOverrides(t *testing.T) {
	ctx := propertyContexts()["full"]
	rng := rand.New(rand.NewSource(13))
	corpus := propertyCorpus(40, rng)
	queries := propertyCorpus(15, rng)
	bg := context.Background()
	for _, shards := range shardCounts {
		j := NewJoiner(ctx)
		sx := j.BuildShardedIndex(corpus, shards, Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
		sv := sx.Snapshot()
		pairs, _ := sv.Probe(queries)
		for _, q := range queries {
			want := rowsOf(pairs, q.ID)
			got, err := sv.ProbeRecordCtx(bg, q.Tokens, QueryOpts{})
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d: ProbeRecordCtx = %v (%v), want %v", shards, got, err, want)
			}

			strict, err := sv.ProbeRecordCtx(bg, q.Tokens, QueryOpts{Theta: 0.9})
			if err != nil {
				t.Fatalf("shards=%d: raised-θ query error: %v", shards, err)
			}
			var wantStrict []QueryMatch
			for _, m := range want {
				if m.Similarity >= 0.9 {
					wantStrict = append(wantStrict, m)
				}
			}
			if !reflect.DeepEqual(strict, wantStrict) {
				t.Fatalf("shards=%d: θ=0.9 override = %v, want %v", shards, strict, wantStrict)
			}
		}

		// Below the build θ the filter cannot promise a complete answer: both
		// entry points refuse instead of answering best-effort.
		if _, err := sv.ProbeRecordCtx(bg, queries[0].Tokens, QueryOpts{Theta: 0.6}); !errors.Is(err, ErrThetaBelowBuild) {
			t.Errorf("shards=%d: ProbeRecordCtx(θ=0.6) error = %v, want ErrThetaBelowBuild", shards, err)
		}
		if _, err := sv.QueryTopKCtx(bg, queries[0].Tokens, 3, QueryOpts{Theta: 0.6}); !errors.Is(err, ErrThetaBelowBuild) {
			t.Errorf("shards=%d: QueryTopKCtx(θ=0.6) error = %v, want ErrThetaBelowBuild", shards, err)
		}

		// A cancelled context aborts the fan-out with its error.
		cancelled, cancel := context.WithCancel(bg)
		cancel()
		if _, err := sv.ProbeRecordCtx(cancelled, queries[0].Tokens, QueryOpts{}); err != context.Canceled {
			t.Errorf("shards=%d: cancelled ProbeRecordCtx error = %v", shards, err)
		}
		if _, err := sv.QueryTopKCtx(cancelled, queries[0].Tokens, 3, QueryOpts{}); err != context.Canceled {
			t.Errorf("shards=%d: cancelled QueryTopKCtx error = %v", shards, err)
		}
	}
}

// TestEmptyQueryReturnsEarly is the regression test for the zero-signature
// probe: empty (or all-whitespace, i.e. zero-token) queries must return an
// empty result on every query path instead of running the pipeline with an
// empty signature.
func TestEmptyQueryReturnsEarly(t *testing.T) {
	ctx := propertyContexts()["full"]
	rng := rand.New(rand.NewSource(21))
	corpus := propertyCorpus(25, rng)
	j := NewJoiner(ctx)
	for _, shards := range shardCounts {
		sx := j.BuildShardedIndex(corpus, shards, Options{Theta: 0.7, Tau: 1, Method: pebble.AUDP}, DynamicOptions{})
		sv := sx.Snapshot()
		for _, tokens := range [][]string{nil, strutil.Tokenize("   ")} {
			if got, err := sv.ProbeRecordCtx(context.Background(), tokens, QueryOpts{}); err != nil || got != nil {
				t.Errorf("shards=%d: ProbeRecordCtx(%q) = %v, %v", shards, tokens, got, err)
			}
			if got, err := sv.QueryTopKCtx(context.Background(), tokens, 5, QueryOpts{}); err != nil || got != nil {
				t.Errorf("shards=%d: QueryTopKCtx(%q) = %v, %v", shards, tokens, got, err)
			}
		}
	}
}

// TestBruteForceCtxCancelled pins the oracle's cancellation behaviour: a
// cancelled context yields no partial result.
func TestBruteForceCtxCancelled(t *testing.T) {
	ctx := propertyContexts()["plain"]
	rng := rand.New(rand.NewSource(8))
	j := NewJoiner(ctx)
	s := propertyCorpus(20, rng)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := j.BruteForceCtx(cancelled, s, s, 0.7, nil)
	if err != context.Canceled || out != nil {
		t.Fatalf("BruteForceCtx cancelled = %v, %v; want nil, context.Canceled", out, err)
	}
	full, err := j.BruteForceCtx(context.Background(), s, s, 0.7, nil)
	if err != nil {
		t.Fatalf("BruteForceCtx background error: %v", err)
	}
	if !reflect.DeepEqual(full, j.BruteForce(s, s, 0.7, nil)) {
		t.Fatal("BruteForceCtx(Background) differs from BruteForce")
	}
}

// TestProbeSeqAllocsBelowBatch enforces the memory contract of the streaming
// path: consuming ProbeSeq without retaining matches must allocate strictly
// less than the batch Probe on a result-heavy workload (the batch path pays
// for the O(results) buffer and its sort; the stream does not). The margin is
// a few dozen allocations, about what one pooled scratch the runtime dropped
// costs to make again, so each side is read as its minimum over several
// alternated rounds.
func TestProbeSeqAllocsBelowBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("result-heavy workload; skipped with -short")
	}
	j := NewJoiner(paperContext())
	catalog := denseCorpus(600, 3, 5)
	probe := denseCorpus(600, 3, 6)
	opts := Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP, Workers: 4}
	ix, _ := j.joinIndex(catalog, probe, opts)

	results, _ := ix.Probe(probe)
	if len(results) < 100000 {
		t.Fatalf("workload yields %d results, want ≥ 100000", len(results))
	}

	batch := func() { ix.Probe(probe) }
	stream := func() {
		count := 0
		for _, err := range ix.ProbeSeq(context.Background(), probe) {
			if err != nil {
				t.Errorf("ProbeSeq error: %v", err)
				return
			}
			count++
		}
		if count != len(results) {
			t.Errorf("ProbeSeq yielded %d matches, want %d", count, len(results))
		}
	}
	batchAllocs, streamAllocs := math.Inf(1), math.Inf(1)
	for round := 0; round < 4; round++ {
		batchAllocs = min(batchAllocs, testing.AllocsPerRun(1, batch))
		streamAllocs = min(streamAllocs, testing.AllocsPerRun(1, stream))
	}
	t.Logf("allocs: stream=%.0f batch=%.0f (%d results)", streamAllocs, batchAllocs, len(results))
	if streamAllocs >= batchAllocs {
		t.Errorf("streaming allocations (%.0f) not below batch (%.0f)", streamAllocs, batchAllocs)
	}
}

package join

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// benchCorpus generates a synthetic collection with heavy key overlap so the
// filtering stage has real posting lists to traverse.
func benchCorpus(n int, seed int64) []strutil.Record {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"coffee", "shop", "latte", "espresso", "cafe", "helsinki",
		"helsingki", "cake", "apple", "gateau", "bakery", "db", "database",
		"systems", "course", "machine", "learning", "market", "corner", "town"}
	raws := make([]string, n)
	for i := range raws {
		l := 3 + rng.Intn(3)
		toks := make([]string, l)
		for k := range toks {
			toks[k] = vocab[rng.Intn(len(vocab))]
		}
		raws[i] = strutil.JoinTokens(toks)
	}
	return strutil.NewCollection(raws)
}

// BenchmarkJoinFilterPhase measures the signature + filter stages only
// (FilterStats): the part of the pipeline the interned-ID refactor targets.
func BenchmarkJoinFilterPhase(b *testing.B) {
	j := NewJoiner(paperContext())
	s := benchCorpus(400, 1)
	t := benchCorpus(400, 2)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.FilterStats(s, t, opts)
	}
}

// BenchmarkJoinRS measures the full R×S join end to end.
func BenchmarkJoinRS(b *testing.B) {
	j := NewJoiner(paperContext())
	s := benchCorpus(400, 1)
	t := benchCorpus(400, 2)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Join(s, t, opts)
	}
}

// BenchmarkJoinSelf measures the self-join path.
func BenchmarkJoinSelf(b *testing.B) {
	j := NewJoiner(paperContext())
	s := benchCorpus(400, 3)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.SelfJoin(s, opts)
	}
}

// filterCorpus generates records of 10 distinct tokens drawn from a
// 100-word random vocabulary: every token's posting list is dense (≈ 40 of
// 400 records), so the candidate phase is bound by posting accumulation
// rather than by emitting the surviving pairs, which the τ=12 overlap
// constraint prunes hard.
func filterCorpus(n int, seed int64) []strutil.Record {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 100)
	vrng := rand.New(rand.NewSource(99))
	for i := range vocab {
		word := make([]byte, 7)
		for c := range word {
			word[c] = byte('a' + vrng.Intn(26))
		}
		vocab[i] = string(word)
	}
	raws := make([]string, n)
	for i := range raws {
		toks := make([]string, 0, 10)
		for _, v := range rng.Perm(len(vocab))[:10] {
			toks = append(toks, vocab[v])
		}
		raws[i] = strutil.JoinTokens(toks)
	}
	return strutil.NewCollection(raws)
}

// BenchmarkFilterPhase measures the filter stage alone on the 400×400
// workload: the index and probe signatures are built once, and each
// iteration re-runs the count filter of every probe record's request
// (one goroutine, so the number is a per-core filter throughput, not a
// parallelism measure).
func BenchmarkFilterPhase(b *testing.B) {
	j := NewJoiner(paperContext())
	s := filterCorpus(400, 1)
	t := filterCorpus(400, 2)
	opts := Options{Theta: 0.8, Tau: 12, Method: pebble.AUDP}
	sv, _, sigs := j.joinIndex(s, t, opts)
	v := sv.views[0]
	if v.inv.DenseKeys() == 0 {
		b.Fatal("bench corpus produced no dense posting lists; hybrid path unexercised")
	}
	sc := v.scratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, ids := range sigs {
			cands, _ := v.candidatesRecord(ids, sv.sx.tau, noLimit, sc)
			n += len(cands)
		}
		if n == 0 {
			b.Fatal("empty candidate set")
		}
	}
}

// BenchmarkVerify measures the verify stage alone on the 400×400 workload:
// every probe record's candidates are generated once, prepared records are
// built once per side, and each iteration re-runs the verify pass of every
// record's request (bound pass, then the thresholded prepared engine) on one
// goroutine.
func BenchmarkVerify(b *testing.B) {
	j := NewJoiner(paperContext())
	s := benchCorpus(400, 1)
	t := benchCorpus(400, 2)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	sv, prepT, sigs := j.joinIndex(s, t, opts)
	v := sv.views[0]
	sc := v.scratch()
	cands := make([][]int32, len(prepT))
	for i, ids := range sigs {
		recs, _ := v.candidatesRecord(ids, sv.sx.tau, noLimit, sc)
		cands[i] = slices.Clone(recs)
	}
	rq := &request{k: unboundedK}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for t, recs := range cands {
			rq.pq = prepT[t]
			matches, _, err := v.verify(context.Background(), rq, recs, sc)
			if err != nil {
				b.Fatal(err)
			}
			n, rq.matches = n+len(matches), matches[:0]
		}
		if n == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkJoinSeq measures the streaming join on a result-heavy workload
// (~120k matches): matches are consumed as yielded, never buffered, so the
// reported allocs/op pin the streaming path's memory contract against
// BenchmarkJoinBatch (same workload through batch Join, which additionally
// buffers and sorts the full result).
func BenchmarkJoinSeq(b *testing.B) {
	j := NewJoiner(paperContext())
	s := denseCorpus(600, 3, 5)
	t := denseCorpus(600, 3, 6)
	opts := Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		for _, err := range j.JoinSeq(context.Background(), s, t, opts) {
			if err != nil {
				b.Fatal(err)
			}
			count++
		}
		if count == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkJoinBatch is BenchmarkJoinSeq's baseline: the identical workload
// through the buffering batch Join.
func BenchmarkJoinBatch(b *testing.B) {
	j := NewJoiner(paperContext())
	s := denseCorpus(600, 3, 5)
	t := denseCorpus(600, 3, 6)
	opts := Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs, _ := j.Join(s, t, opts)
		if len(pairs) == 0 {
			b.Fatal("empty result")
		}
	}
}

// queryBench measures single-record serving against a resident index of the
// given shard count: signature, per-shard count filters, query
// preparation and thresholded verification per ProbeRecordCtx call.
func queryBench(b *testing.B, shards int) {
	j := NewJoiner(paperContext())
	s := benchCorpus(400, 1)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	v := j.BuildShardedIndex(s, shards, opts, DynamicOptions{}).Snapshot()
	probe := benchCorpus(64, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probeRecord(b, v, probe[i%len(probe)].Tokens)
	}
}

// BenchmarkQuery is queryBench at one shard.
func BenchmarkQuery(b *testing.B) { queryBench(b, 1) }

// BenchmarkVerifyTopK serves top-k queries against a 2000-record one-shard
// index (large candidate sets, so the verify phase dominates): the rising
// floor prunes candidates whose cheap upper bound cannot reach the heap's
// k-th similarity, and the per-probe msim rows reuse segment-pair values
// across candidates of one query.
func BenchmarkVerifyTopK(b *testing.B) {
	j := NewJoiner(paperContext())
	s := benchCorpus(2000, 1)
	v := j.BuildShardedIndex(s, 1, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}, DynamicOptions{}).Snapshot()
	// Keep only probes with a non-empty answer so every timed op exercises
	// the verify phase (a θ=0.8 threshold leaves some of the raw pool
	// matchless, and those would measure the count filter instead).
	var probe [][]string
	for _, r := range benchCorpus(64, 9) {
		if len(queryTopK(b, v, r.Tokens, 10)) > 0 {
			probe = append(probe, r.Tokens)
		}
	}
	if len(probe) < 16 {
		b.Fatalf("only %d productive probes", len(probe))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := queryTopK(b, v, probe[i%len(probe)], 10); len(out) == 0 {
			b.Fatal("empty top-k result")
		}
	}
}

// BenchmarkQuerySharded is BenchmarkQuery against a GOMAXPROCS-sharded
// index: the same single-record workload through a wider fan-out (one
// signature selection, per-shard count filters, merged results).
func BenchmarkQuerySharded(b *testing.B) { queryBench(b, 0) }

// BenchmarkSnapshotCapture measures the mutation-stall cost of a checkpoint:
// the atomic capture plus encode, the part that runs under every shard's
// write lock.
func BenchmarkSnapshotCapture(b *testing.B) {
	j := NewJoiner(paperContext())
	sx := j.BuildShardedIndex(benchCorpus(4000, 42), 4, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(sx.CaptureSnapshot().Encode()) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

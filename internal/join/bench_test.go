package join

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
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

// BenchmarkJoinFilterPhase measures the signature + filter stages only: a
// fresh FilterProfile, read at the join's τ.
func BenchmarkJoinFilterPhase(b *testing.B) {
	j := NewJoiner(paperContext())
	s := benchCorpus(400, 1)
	t := benchCorpus(400, 2)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.NewFilterProfile(s, t, opts).Stats(opts.Tau)
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

// BenchmarkJoinBuild times the build half of one repository-benchmark
// join_med op alone (joinIndex): 1 000 MED-like records indexed and 200
// probe records — half variants of indexed records, half records of the
// generator the index has never seen — prepared, counted into the order and
// signed, at q = 2, θ = 0.8, τ = 2 and the AU-Filter's DP. No probe is
// filtered or verified.
func BenchmarkJoinBuild(b *testing.B) {
	const records, probes = 1000, 200
	gen := datagen.New(datagen.MEDLike(records, 7))
	universe := gen.Collection(records + probes/2)
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = 2
	j := NewJoiner(ctx)
	raws := make([]string, probes)
	for k := range raws {
		raws[k] = universe[records+k/2]
		if k%2 == 0 {
			raws[k], _ = gen.Variant(universe[k*records/probes])
		}
	}
	s, t := strutil.NewCollection(universe[:records]), strutil.NewCollection(raws)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.joinIndex(s, t, opts)
	}
}

// queryBench measures single-record serving against a resident index of the
// given shard count: signature, per-shard count filters, query
// preparation and thresholded verification per QueryTopKCtx call at k ≤ 0.
func queryBench(b *testing.B, shards int) {
	j := NewJoiner(paperContext())
	s := benchCorpus(400, 1)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	v := j.BuildShardedIndex(s, shards, opts, DynamicOptions{}).Snapshot()
	probe := benchCorpus(64, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queryTopK(b, v, probe[i%len(probe)].Tokens, 0)
	}
}

// BenchmarkQuery is queryBench at one shard.
func BenchmarkQuery(b *testing.B) { queryBench(b, 1) }

// BenchmarkVerifyTopK serves top-k queries against a 2000-record one-shard
// index (large candidate sets, so the verify phase dominates): the cover-stage
// bound dismisses candidates that cannot reach θ, the survivors are verified
// at θ into the k-bounded heap, and the per-probe msim rows reuse
// segment-pair values across candidates of one query.
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

// BenchmarkBoundLoop serves top-k queries (θ = 0.8, k = 10) against a
// 4 000-record one-shard index of MED-like records at q = 2, the shape where
// the count filter admits most of the catalog and nearly every candidate is
// dismissed by the size ratio or the cover stage: the bound loop over a
// column too large for L1, which the ≤ 40-record catalogs of the
// BenchmarkVerifyPrepared benchmarks cannot show.
func BenchmarkBoundLoop(b *testing.B) {
	boundLoop(b, datagen.MEDLike(4000, 7), 2, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}, 1, 0)
}

// BenchmarkBoundLoopTitles is BenchmarkBoundLoop on a 10 000-record catalog
// shaped like the benchmark's titles corpus (and drawn with its corpus seed)
// — a 10 000-token flat vocabulary, 10–14 distinct tokens a record, q = 5,
// θ = 0.9, τ = 12 and the heuristic filter — where a lookup meets ≈ 34
// candidates and evaluates ≈ 370 msim rows of ≈ 13 cells, nearly all of them
// zero, and fills one matrix in two: the per-probe row evaluation rather than
// the walk of the column.
func BenchmarkBoundLoopTitles(b *testing.B) {
	boundLoop(b, titlesConfig(), 5, titlesOptions, 1, 0)
}

// BenchmarkQueryDeltaChain is BenchmarkBoundLoopTitles's lookups against a
// two-shard index of the same catalog after 64 insert batches of four
// records, so each shard serves a full delta chain (every batch touches both
// shards: 64 segments a shard, maxSegments' default, and no compaction): the
// count filter's walk of the chain, which the delta links cut to the
// segments that hold a probe ID.
func BenchmarkQueryDeltaChain(b *testing.B) {
	boundLoop(b, titlesConfig(), 5, titlesOptions, 2, 64)
}

// BenchmarkShardCompaction times one compaction of a 5 000-record titles
// shard — churn_titles' shard shape: 10 000 titles over two shards — with
// B/op: the merge of the shard's postings into the next inverted index, the
// live scan, the cover column and the position map, all that a writer stalls
// on when a shard crosses a rebuild threshold.
func BenchmarkShardCompaction(b *testing.B) {
	cfg := titlesConfig()
	cfg.Size = 5000
	gen := datagen.New(cfg)
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = 5
	sx := NewJoiner(ctx).BuildShardedIndex(strutil.NewCollection(gen.Collection(cfg.Size)), 1, titlesOptions, DynamicOptions{})
	sh := sx.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.rebuildLocked()
	}
}

// titlesConfig is the generator of the benchmark's titles corpus, drawn with
// its corpus seed: a 10 000-token flat vocabulary and 10–14 distinct tokens
// a record.
func titlesConfig() datagen.Config {
	cfg := datagen.MEDLike(10000, 20190811)
	cfg.VocabSize = 10000
	cfg.MinTokens, cfg.MaxTokens = 10, 14
	cfg.DistinctTokens = true
	cfg.EntityRate, cfg.SynonymTermRate = 0.05, 0.05
	cfg.TaxonomyNodes, cfg.SynonymRules = 1000, 200
	return cfg
}

// titlesOptions are the titles workloads' join options.
var titlesOptions = Options{Theta: 0.9, Tau: 12, Method: pebble.AUHeuristic}

// boundLoop serves top-k lookups (k = 10) at q against an index of cfg.Size
// records of cfg's generator over the given number of shards, after the given
// number of insert batches of four further records of the generator, each of
// which must leave one delta segment on every shard. Half the 64 probes are
// variants (typo, synonym or taxonomy swap) of catalog records, half are
// records of the same generator outside the catalog.
func boundLoop(b *testing.B, cfg datagen.Config, q int, opts Options, shards, batches int) {
	v, queries := lookupIndex(b, cfg, q, opts, shards, batches)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queryTopK(b, v, queries[i%len(queries)], 10)
	}
}

// BenchmarkQueryPrepareSign times the first step of BenchmarkBoundLoopTitles'
// lookups alone: the probe prepared against the 10 000-title index's
// dictionary and signed under its order in one reused lookup scratch
// (lookup.sign), with no count filter and no verification.
func BenchmarkQueryPrepareSign(b *testing.B) {
	v, queries := lookupIndex(b, titlesConfig(), 5, titlesOptions, 1, 0)
	sx := v.sx
	lk := new(lookup)
	b.ReportAllocs()
	b.ResetTimer()
	sigLen := 0
	for i := 0; i < b.N; i++ {
		_, ids := lk.sign(v, queries[i%len(queries)], sx.opts.Method, sx.tau)
		sigLen += len(ids)
	}
	b.ReportMetric(float64(sigLen)/float64(b.N), "sig/op")
}

// BenchmarkQueryMedianTitles times the statistic the repository benchmark's
// op_ms reports, the median lookup, on the in-process part of a cluster
// group read: top-10 lookups on a one-shard index of 3 334 titles — every
// third record of the 10 000-title catalog, one group's share of it — that
// cycle 1 500 probes, half variants of catalog records and half records of
// the generator outside it. Besides ns/op (the mean) it reports median-µs:
// the median over the probes of each probe's fastest lookup, which a few
// slow runs cannot move.
func BenchmarkQueryMedianTitles(b *testing.B) {
	const catalog, probes = 10000, 1500
	gen := datagen.New(titlesConfig())
	universe := gen.Collection(catalog + probes/2)
	var group []string
	for k := 0; k < catalog; k += 3 {
		group = append(group, universe[k])
	}
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = 5
	v := NewJoiner(ctx).BuildShardedIndex(strutil.NewCollection(group), 1, titlesOptions, DynamicOptions{}).Snapshot()
	queries := make([][]string, probes)
	for k := range queries {
		q := universe[catalog+k/2]
		if k%2 == 0 {
			q, _ = gen.Variant(universe[k*catalog/probes])
		}
		queries[k] = strutil.Tokenize(q)
	}
	fastest := make([]time.Duration, probes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % probes
		start := time.Now()
		queryTopK(b, v, queries[k], 10)
		if d := time.Since(start); fastest[k] == 0 || d < fastest[k] {
			fastest[k] = d
		}
	}
	b.StopTimer()
	run := fastest[:min(b.N, probes)]
	slices.Sort(run)
	b.ReportMetric(float64(run[len(run)/2])/float64(time.Microsecond), "median-µs")
}

// lookupIndex is boundLoop's index and probes: cfg.Size records of cfg's
// generator at q over the given number of shards, after the given number of
// insert batches, and its 64 probes.
func lookupIndex(b *testing.B, cfg datagen.Config, q int, opts Options, shards, batches int) (*ShardedView, [][]string) {
	const probes, batchSize = 64, 4
	records := cfg.Size
	gen := datagen.New(cfg)
	universe := gen.Collection(records + probes/2 + batches*batchSize)
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = q
	j := NewJoiner(ctx)
	sx := j.BuildShardedIndex(strutil.NewCollection(universe[:records]), shards, opts, DynamicOptions{})
	for k, inserts := 0, universe[records+probes/2:]; k < batches; k++ {
		sx.InsertBatch(inserts[k*batchSize : (k+1)*batchSize])
	}
	if st := sx.Stats(); st.Rebuilds != 0 || st.Segments != shards*batches {
		b.Fatalf("%d insert batches left %d delta segments and %d rebuilds", batches, st.Segments, st.Rebuilds)
	}
	v := sx.Snapshot()
	queries := make([][]string, probes)
	for k := range queries {
		q := universe[records+k/2]
		if k%2 == 0 {
			q, _ = gen.Variant(universe[k*records/probes])
		}
		queries[k] = strutil.Tokenize(q)
	}
	return v, queries
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

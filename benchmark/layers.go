package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/cluster"
	"github.com/aujoin/aujoin/internal/cmdutil"
	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/estimator"
	"github.com/aujoin/aujoin/internal/invindex"
	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/matching"
	"github.com/aujoin/aujoin/internal/metrics"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/planner"
	"github.com/aujoin/aujoin/internal/store"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/wmis"
)

// Caps on the per-layer measurements, so a traced run stays well inside the
// time limit whatever the workload's op cost.
const (
	layerQueries   = 500  // queries replayed in-process and fed to the per-query layers
	pairSample     = 2000 // candidate pairs fed to core
	solverSample   = 500  // of those, pairs fed to SimilarityPrepared and the sim/matching/wmis solvers
	hopQueries     = 50   // queries sent over each network hop
	mutationRounds = 70   // insert batches applied to the reference index: crosses the 64-segment rebuild threshold
	clusterRecords = 2000 // catalog cap of the cluster booted for a non-cluster workload
	estimatorCap   = 2000 // collection cap for the τ estimator
)

// meanUs times n calls of f and returns the mean in microseconds.
func meanUs(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return us(time.Since(start)) / float64(n)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layers measures every layer on the workload's own inputs and fills m; the
// replay spans go to tr. It returns its index over the catalog, warm, which
// the hop measurements answer the same queries on in-process and over HTTP.
func layers(cfg runConfig, c *corpus, queries []string, tr *tracer, m metricSet) (ref *reference, err error) {
	s := cfg.spec
	put := func(name string, v float64) { m.put(perLayerMetrics, name, v) }
	records := strutil.NewCollection(c.catalog)
	if len(queries) > layerQueries {
		queries = queries[:layerQueries]
	}
	nq := len(queries)

	start := time.Now()
	if _, err := generate(s, cfg.seed); err != nil {
		return nil, err
	}
	put("datagen.generate_s", time.Since(start).Seconds())

	tokens := make([][]string, nq)
	put("strutil.tokenize_us", meanUs(nq, func(i int) { tokens[i] = strutil.Tokenize(queries[i]) }))

	jn, err := c.internalJoiner(s)
	if err != nil {
		return nil, err
	}
	gen := jn.Generator()
	put("pebble.generate_us", meanUs(nq, func(i int) { gen.Pebbles(tokens[i]) }))
	start = time.Now()
	order := jn.BuildOrder(records)
	order.Finalize()
	put("pebble.order_build_s", time.Since(start).Seconds())
	sel := pebble.NewSelector(gen, order, s.theta)
	pres := make([]pebble.Presig, nq)
	put("pebble.prepare_us", meanUs(nq, func(i int) { pres[i] = sel.Prepare(tokens[i]) }))
	sigs := make([]pebble.Signature, nq)
	put("pebble.select_us", meanUs(nq, func(i int) { sigs[i] = sel.Select(pres[i], s.method(), s.tau) }))

	// The catalog's signatures: the index side of the filter.
	catalogSigs := make([][]uint32, len(records))
	pebbles, sigLen := 0, 0
	for i, rec := range records {
		pre := sel.Prepare(rec.Tokens)
		sig := sel.Select(pre, s.method(), s.tau)
		pebbles += len(pre.Pebbles)
		sigLen += sig.Len()
		for _, p := range sig.Pebbles {
			catalogSigs[i] = append(catalogSigs[i], p.ID)
		}
	}
	put("pebble.pebbles_per_record", ratio(float64(pebbles), float64(len(records))))
	put("pebble.sig_len", ratio(float64(sigLen), float64(len(records))))

	start = time.Now()
	inv := invindex.New(order.NumKeys())
	for i, ids := range catalogSigs {
		inv.Add(i, ids)
	}
	// The engine's density cutoff: lists at least max(records/64, 16) long
	// move to bitmap form.
	inv.Hybridize(max(len(records)>>6, 16))
	put("invindex.build_s", time.Since(start).Seconds())
	put("invindex.dense_key_ratio", ratio(float64(inv.DenseKeys()), float64(inv.DenseKeys()+inv.SparseKeys())))

	// One count-filter pass per probe signature; its survivors are the real
	// candidate pairs the verifier layers are measured on.
	type pair struct{ q, r int }
	var pairs []pair
	acc := invindex.NewAccumulator()
	acc.Reset(len(records))
	put("invindex.accumulate_us", meanUs(nq, func(i int) {
		for _, r := range countFilter(inv, acc, sigs[i], s.tau) {
			if len(pairs) < pairSample {
				pairs = append(pairs, pair{i, int(r)})
			}
		}
	}))

	pl := planner.New(s.method(), s.tau)
	put("planner.plan_us", meanUs(nq, func(i int) { pl.Plan(sel, pres[i], inv.ListLength, len(records)) }))

	calc := jn.Calculator()
	prepQ := make([]*core.PreparedRecord, nq)
	put("core.prepare_us", meanUs(nq, func(i int) { prepQ[i] = calc.Prepare(tokens[i]) }))
	prepR := map[int]*core.PreparedRecord{}
	for _, p := range pairs {
		if prepR[p.r] == nil {
			prepR[p.r] = calc.Prepare(records[p.r].Tokens)
		}
	}
	sc := core.NewScratch()
	put("core.verify_us", meanUs(len(pairs), func(i int) {
		calc.VerifyPrepared(prepR[pairs[i].r], prepQ[pairs[i].q], s.theta, sc)
	}))
	solver := pairs[:min(len(pairs), solverSample)]
	put("core.similarity_us", meanUs(len(solver), func(i int) {
		calc.SimilarityPrepared(prepR[solver[i].r], prepQ[solver[i].q], sc)
	}))

	// sim, matching and wmis on the same pairs: every cell of the pair's
	// singleton msim matrix, the assignment over that matrix, and the
	// independent set over the pair's conflict graph.
	singletons := func(toks []string) core.Partition {
		var p core.Partition
		for i := range toks {
			p.Segments = append(p.Segments, core.Segment{Span: strutil.Span{Start: i, End: i + 1}, Tokens: toks[i : i+1]})
		}
		return p
	}
	cells, msimTime := 0, time.Duration(0)
	var matrices [][][]float64
	var graphs []*wmis.Graph
	for _, p := range solver {
		a, b := records[p.r].Tokens, tokens[p.q]
		start = time.Now()
		for i := range a {
			for k := range b {
				jn.Ctx.MSim(a[i:i+1], b[k:k+1])
			}
		}
		msimTime += time.Since(start)
		cells += len(a) * len(b)
		matrices = append(matrices, core.MSimMatrix(jn.Ctx, singletons(a), singletons(b)))
		if sp := calc.Segmenter().CandidatePairs(a, b); len(sp) > 0 {
			graphs = append(graphs, core.BuildConflictGraph(sp).Graph)
		}
	}
	put("sim.msim_us", ratio(us(msimTime), float64(cells)))
	put("matching.solve_us", meanUs(len(matrices), func(i int) { matching.MaxWeight(matrices[i]) }))
	var wsc wmis.Scratch
	put("wmis.solve_us", meanUs(len(graphs), func(i int) { graphs[i].SquareImpScratch(wmis.SquareImpOptions{}, &wsc) }))

	// join: the benchmark's own sharded index, the replayed queries (with
	// spans), one batch probe for the paper's T_τ / V_τ counts, then
	// mutations across the rebuild threshold.
	start = time.Now()
	if ref, err = buildReference(s, c, records); err != nil {
		return nil, err
	}
	put("join.build_s", time.Since(start).Seconds())
	view := ref.index.Snapshot()
	ctx := context.Background()
	probes := strutil.NewCollection(queries)
	per := func(v float64) float64 { return ratio(v, float64(nq)) }
	// The first probe of a fresh index is planned by the static cost model
	// alone — no latency feedback yet — so its counts (the paper's T_τ and
	// V_τ, per probe) depend on the inputs only and repeat exactly for a seed.
	_, st := view.Probe(probes)
	put("join.postings_per_probe", per(float64(st.ProcessedPairs)))
	put("join.candidates_per_probe", per(float64(st.Candidates)))
	put("join.verified_per_probe", per(float64(st.VerifiedCandidates)))
	put("join.pruned_per_probe", per(float64(st.PrunedByBound)))
	put("join.memo_hits_per_probe", per(float64(st.MemoHits)))
	put("join.results_per_probe", per(float64(st.Results)))
	put("join.verify_useful_ratio", ratio(float64(st.Results), float64(st.VerifiedCandidates)))
	put("core.bound_prune_ratio", ratio(float64(st.PrunedByBound), float64(st.Candidates)))
	// One untimed pass warms the index's caches, as the served engine's
	// warm-up pass did. The replay then runs tokenize → prepare → plan →
	// select itself and lets the engine do the same inside QueryTopKCtx;
	// join.query_us is the engine call alone.
	qopts := s.queryOpts()
	for _, toks := range tokens {
		view.QueryTopKCtx(ctx, toks, topK, qopts)
	}
	queryUs := make([]float64, nq)
	for i, q := range queries {
		req := -1 - i // replayed requests count down, served ones up
		root := tr.begin(0, req, "replay")
		sp := tr.begin(root, req, "strutil.tokenize")
		toks := strutil.Tokenize(q)
		tr.end(sp)
		sp = tr.begin(root, req, "pebble.prepare")
		pre := sel.Prepare(toks)
		tr.end(sp)
		sp = tr.begin(root, req, "planner.plan")
		d := pl.Plan(sel, pre, inv.ListLength, len(records))
		tr.end(sp)
		sp = tr.begin(root, req, "pebble.select")
		sel.Select(pre, d.Method, d.Tau)
		tr.end(sp)
		sp = tr.begin(root, req, "join.query")
		start = time.Now()
		hits, _ := view.QueryTopKCtx(ctx, toks, topK, qopts)
		queryUs[i] = us(time.Since(start))
		tr.end(sp)
		tr.setCounts(sp, map[string]int64{"results": int64(len(hits))})
		tr.end(root)
	}
	put("join.query_us", metrics.Percentile(queryUs, 50))
	// The stage times come from a second, warm probe.
	_, st = view.Probe(probes)
	put("join.sig_us", per(us(st.SignatureTime)))
	put("join.filter_us", per(us(st.FilterTime)))
	put("join.verify_us", per(us(st.VerifyTime)))
	dst := ref.index.Stats()
	put("planner.fallback_ratio", ratio(float64(dst.PlanFallbacks), float64(dst.Plans)))

	// The snapshot is captured before the mutations below, so restore works
	// on the catalog as built.
	start = time.Now()
	snapBytes := ref.index.CaptureSnapshot().Encode()
	put("store.snapshot_encode_s", time.Since(start).Seconds())
	put("store.snapshot_mb", float64(len(snapBytes))/(1<<20))
	start = time.Now()
	snap, err := store.Decode(snapBytes)
	if err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	if _, err := jn.RestoreShardedIndex(snap, join.DynamicOptions{}); err != nil {
		return nil, fmt.Errorf("restore snapshot: %w", err)
	}
	put("store.restore_s", time.Since(start).Seconds())

	// Mutations: the same batches twice over, so the second half of the
	// inserts finds its records in the prepared-record cache.
	batches := make([][]string, mutationRounds)
	for i := range batches {
		for k := 0; k < insertBatch; k++ {
			batches[i] = append(batches[i], c.fromTail(i/2*insertBatch+k))
		}
	}
	ids := make([][]int, len(batches))
	put("join.insert_us", meanUs(len(batches), func(i int) { ids[i] = ref.index.InsertBatch(batches[i]) }))
	put("join.remove_us", meanUs(len(batches), func(i int) { ref.index.RemoveBatch(ids[i]) }))
	pauses := ref.index.RebuildPauses()
	var pauseMax, pauseSum float64
	for _, p := range pauses {
		pauseMax = max(pauseMax, ms(p))
		pauseSum += ms(p)
	}
	put("join.rebuilds", float64(len(pauses)))
	put("join.rebuild_pause_ms_max", pauseMax)
	put("join.rebuild_pause_ms_sum", pauseSum)
	dst = ref.index.Stats()
	put("core.cache_hit_ratio", ratio(float64(dst.CacheHits), float64(dst.CacheHits+dst.CacheMisses)))

	// estimator: recorded so an AutoTau change has a baseline.
	es, et := records[:min(len(records), estimatorCap)], strutil.NewCollection(c.pool[:min(len(c.pool), estimatorCap)])
	start = time.Now()
	rec, err := estimator.SuggestCtx(ctx, jn, es, et, join.Options{Theta: s.theta, Method: s.method()}, estimator.Config{Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("estimator: %w", err)
	}
	put("estimator.suggest_s", time.Since(start).Seconds())
	put("estimator.suggested_tau", float64(rec.BestTau))

	if err := storeLayer(cfg, batches, ids, put); err != nil {
		return nil, err
	}
	ndjsonLayer(put)
	return ref, nil
}

// countFilter is the engine's per-record count filter written against
// invindex's public functions: fold the posting list of every distinct
// signature pebble into the accumulator and collect the records whose
// overlap reached τ.
func countFilter(inv *invindex.Index, acc *invindex.Accumulator, sig pebble.Signature, tau int) []int32 {
	acc.Begin(tau)
	peb := sig.Pebbles
	for a := 0; a < len(peb); {
		id := peb[a].ID
		b := a + 1
		for b < len(peb) && peb[b].ID == id {
			b++
		}
		mult := int32(b - a)
		a = b
		if id == pebble.NoID {
			continue
		}
		if bs := inv.Bitset(id); bs != nil {
			acc.AddBitset(bs, mult, inv.Records())
			acc.AddPostings(bs.Residual(), mult)
			continue
		}
		acc.AddPostings(inv.Postings(id), mult)
	}
	acc.FlushDense(inv.Records())
	return acc.Collect(nil)
}

// storeLayer replays the mutation batches into a write-ahead log on the
// sandbox's disk: encode, write and fsync per append.
func storeLayer(cfg runConfig, batches [][]string, ids [][]int, put func(string, float64)) error {
	dir, err := os.MkdirTemp(cfg.outDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, _, err := store.Open(store.OS, dir)
	if err != nil {
		return err
	}
	defer st.Close()
	var entries []store.WalEntry
	walBytes, userBytes := 0, 0
	for i, b := range batches {
		wire := make([]uint64, len(ids[i]))
		for k, id := range ids[i] {
			wire[k] = uint64(id)
		}
		entries = append(entries, store.WalEntry{Op: store.OpInsert, Raws: b}, store.WalEntry{Op: store.OpRemove, IDs: wire})
		for _, raw := range b {
			userBytes += len(raw)
		}
	}
	for _, e := range entries {
		frame, err := store.EncodeWalEntry(e)
		if err != nil {
			return err
		}
		walBytes += len(frame)
	}
	var appendErr error
	put("store.wal_append_us", meanUs(len(entries), func(i int) {
		if err := st.Append(entries[i]); err != nil {
			appendErr = err
		}
	}))
	put("store.wal_bytes_per_user_byte", ratio(float64(walBytes), float64(userBytes)))
	return appendErr
}

// ndjsonLayer times the response encoding of one top-k answer and its
// decoding on the client side.
func ndjsonLayer(put func(string, float64)) {
	answer := make([]aujoin.QueryMatch, topK)
	for i := range answer {
		answer[i] = aujoin.QueryMatch{Record: 1000 + 37*i, Similarity: 1 - 0.0123456789*float64(i)}
	}
	const rounds = 2000
	var body []byte
	put("cmdutil.ndjson_encode_us", meanUs(rounds, func(int) {
		rec := httptest.NewRecorder()
		nw := cmdutil.NewNDJSONWriter(rec)
		for _, m := range answer {
			nw.Write(m)
		}
		body = rec.Body.Bytes()
	}))
	put("cmdutil.ndjson_decode_us", meanUs(rounds, func(int) {
		cmdutil.DecodeNDJSON(bytes.NewReader(body), func(aujoin.QueryMatch) error { return nil })
	}))
}

// hops measures the network hops: one node, each worker for its groups, and
// the coordinator. node and cl are the workload's own engine where it has
// that shape, and a boot of the other shape over the same catalog otherwise.
// Timings are medians over the queries; an overhead is the median of the
// per-query differences between two calls made back to back, so a change of
// the machine's speed between two phases of the run does not end up in it.
func hops(c *corpus, ref *reference, node, cl *target, queries []string, m metricSet) error {
	put := func(name string, v float64) { m.put(perLayerMetrics, name, v) }
	if len(queries) > hopQueries {
		queries = queries[:hopQueries]
	}
	var hopErr error
	get := func(tg *target, base, q, extra string, epoch int64) time.Duration {
		start := time.Now()
		if _, err := tg.query(base, q, extra, epoch); err != nil {
			hopErr = err
		}
		return time.Since(start)
	}
	view, qopts, ctx := ref.index.Snapshot(), ref.spec.queryOpts(), context.Background()
	for _, q := range queries { // warm the connection and the node's caches
		get(node, node.url, q, "", -1)
	}
	var nodeUs, overheadUs []float64
	for i, q := range queries {
		inProcess := func() time.Duration {
			start := time.Now()
			view.QueryTopKCtx(ctx, strutil.Tokenize(q), topK, qopts)
			return time.Since(start)
		}
		// Whichever call comes second finds the query's data in the caches,
		// so the two take turns going first.
		var direct, served time.Duration
		if i%2 == 0 {
			direct, served = inProcess(), get(node, node.url, q, "", -1)
		} else {
			served, direct = get(node, node.url, q, "", -1), inProcess()
		}
		nodeUs = append(nodeUs, us(served))
		overheadUs = append(overheadUs, us(served-direct))
	}
	put("cluster.node_query_us", metrics.Percentile(nodeUs, 50))
	put("cluster.http_overhead_us", metrics.Percentile(overheadUs, 50))

	ring := cluster.NewRing(clusterWorkers, clusterReplicas)
	epoch := cl.coord.Stats().Epoch
	for _, q := range queries {
		get(cl, cl.url, q, "", -1)
	}
	var workerUs, coordUs, scatterUs []float64
	for _, q := range queries {
		var slowest time.Duration
		for g := 0; g < ring.Workers(); g++ {
			d := get(cl, cl.workers[ring.GroupReplicas(g)[0]], q, fmt.Sprintf("&group=%d", g), epoch)
			workerUs = append(workerUs, us(d))
			slowest = max(slowest, d)
		}
		d := get(cl, cl.url, q, "", -1)
		coordUs = append(coordUs, us(d))
		scatterUs = append(scatterUs, us(d-slowest))
	}
	put("cluster.worker_query_us", metrics.Percentile(workerUs, 50))
	put("cluster.coord_query_us", metrics.Percentile(coordUs, 50))
	put("cluster.scatter_overhead_us", metrics.Percentile(scatterUs, 50))
	cst := cl.coord.Stats()
	put("cluster.merge_ms_p50", cst.MergeMsP50)
	put("cluster.merge_ms_p95", cst.MergeMsP95)

	const inserts = 20
	put("cluster.insert_us", meanUs(inserts, func(i int) {
		recs := make([]string, insertBatch)
		for k := range recs {
			recs[k] = c.fromTail(i*insertBatch + k)
		}
		body, _ := json.Marshal(cluster.InsertRequest{Records: recs})
		resp, err := cl.client.Post(cl.url+"/insert", "application/json", bytes.NewReader(body))
		if err != nil {
			hopErr = err
			return
		}
		if r := decodeResponse(opInsert, resp, 0); r.err != nil {
			hopErr = r.err
		}
	}))
	start := time.Now()
	if err := cl.coord.BumpEpoch("benchmark"); err != nil {
		return fmt.Errorf("epoch bump: %w", err)
	}
	put("cluster.epoch_bump_ms", ms(time.Since(start)))
	if hopErr != nil {
		return fmt.Errorf("hop measurement: %w", hopErr)
	}
	return nil
}

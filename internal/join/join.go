// Package join implements the unified string similarity join of Section 3:
// filter-and-verification joins that generate pebble signatures for both
// collections, find candidate pairs sharing enough signature pebbles
// (Algorithm 3 for U-Filter, Algorithm 6 for AU-Filter), and verify the
// survivors with the unified similarity measure of internal/core.
//
// The pipeline is built once and probed many times: building interns every
// pebble into a dense uint32 ID (global frequency order), selects
// signatures, and materialises the ID-indexed inverted index; a probe then
// generates a record's candidates with a count array (classic count
// filtering) — no string hashing and no map[pair]int in the hot path — and
// verifies them before the next record is taken. Join and SelfJoin build
// a one-shard index and run that loop over a snapshot of it (stream.go),
// and FilterProfile re-derives signatures for many τ values from one
// prepared pebble set (used by the Section 4 estimator).
//
// ShardedIndex is the one index, and the one that serves online: a router
// over N ≥ 1 private shards that share one pebble order. Each shard is a
// frozen base (records, signature IDs and their inverted index) plus
// immutable delta segments for inserted records and a tombstone bitmap for
// removed ones, and publishes snapshot views by atomic pointer swap so
// queries run lock-free while the catalog mutates (the paper fixes both
// collections up front; the dynamic layer is this implementation's extension
// for the serving workload — see ARCHITECTURE.md).
package join

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/invindex"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// Pair is one join result: the identifiers of the matched records and their
// unified similarity. It is the one definition of a join result: the public
// aujoin.Match and the serving layer's cluster.ProbeMatch are aliases of it,
// and its JSON tags are the /probe line format.
type Pair struct {
	S          int     `json:"s"`
	T          int     `json:"t"`
	Similarity float64 `json:"similarity"`
}

// Stats records what happened during one join execution; the experiment
// harness uses it to regenerate the paper's tables and figures.
type Stats struct {
	// SignatureTime is the wall-clock duration of everything done once per
	// collection before the first record is probed: preparation, signature
	// selection and, on a one-shot join, order and index building.
	// FilterTime and VerifyTime split what follows. A join takes one probe
	// record at a time — count filter, then verification — so each worker
	// sums the durations of its records' filter stages and of their verify
	// stages, and the two fields report the sums of the slowest worker (the
	// one whose two sums add up to the most). With one worker that is the
	// time the call spent in each stage; with W workers it is still
	// wall-clock on one goroutine, NOT CPU time summed across workers, so
	// the three values add up to at most the end-to-end latency a caller
	// observed, and comparing them across runs with different worker counts
	// compares wall-clock speed, not total work.
	SignatureTime time.Duration
	FilterTime    time.Duration
	VerifyTime    time.Duration
	// ProcessedPairs is T_τ of the cost model: the number of (S, T)
	// occurrences touched while traversing common posting lists. For
	// self-joins this counts each unordered pair at most once (mirrored and
	// diagonal pairs are never generated).
	ProcessedPairs int64
	// Candidates is V_τ: the number of distinct pairs that reached
	// verification (distinct unordered pairs for self-joins).
	Candidates int
	// ShardCandidates breaks Candidates down per shard (one entry per shard
	// of the probed view); its entries sum to Candidates. A one-shot join
	// probes the one-shard index it built, so it reports a single entry.
	ShardCandidates []int
	// BitsetTokens and SliceTokens split the probe-token lookups of the
	// filter stage by posting representation: tokens whose base posting list
	// was served from the packed bitmap form versus the sorted slice. Their
	// sum is the number of (probe record, known token) lookups; a zero
	// BitsetTokens means no list reached the density cutoff.
	BitsetTokens int64
	SliceTokens  int64
	// Results is the number of pairs whose unified similarity reached θ.
	Results int
	// VerifyStats counts the verify work. VerifiedCandidates is Candidates
	// minus the pairs a sound upper bound dismissed before their msim matrix
	// was filled: the PrunedByBound pairs, dismissed by the O(1)
	// partition-size ratio or the cover stage, of which PrunedByCover is the
	// cover stage's share. VerifiedCandidates + PrunedByBound equals
	// Candidates for a request that ran to completion (a candidate with
	// out-of-range ids counts as neither). The msim rows MemoHits reads live
	// in the verifying scratch and are keyed by the indexed side's segment
	// IDs. One worker verifies all of a probe record's candidates, so neither
	// MemoHits nor MSimEvals depends on the worker count.
	core.VerifyStats
	// Tau is the overlap constraint the filter ran at: the τ the index was
	// built with (1 under the U-Filter, whatever Options.Tau asked for).
	Tau int
	// AvgSignatureS / AvgSignatureT are the mean signature lengths.
	AvgSignatureS float64
	AvgSignatureT float64
}

// TotalTime returns the end-to-end join time recorded in the stats.
func (s Stats) TotalTime() time.Duration {
	return s.SignatureTime + s.FilterTime + s.VerifyTime
}

// Options configures a join execution.
type Options struct {
	// Theta is the join threshold θ ∈ [0, 1].
	Theta float64
	// Tau is the overlap constraint τ ≥ 1 (ignored by the U-Filter method,
	// which always uses 1).
	Tau int
	// Method selects the signature-selection algorithm.
	Method pebble.Method
	// Workers is the number of goroutines used for signature generation,
	// candidate filtering and verification; 0 means GOMAXPROCS.
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) tau() int {
	if o.Method == pebble.UFilter || o.Tau < 1 {
		return 1
	}
	return o.Tau
}

// Joiner joins two collections of records under a fixed similarity context.
type Joiner struct {
	Ctx *sim.Context

	gen  *pebble.Generator
	calc *core.Calculator
}

// NewJoiner creates a Joiner for the given context.
func NewJoiner(ctx *sim.Context) *Joiner {
	if ctx != nil && ctx.Tax != nil {
		// Build the LCA index up front so that concurrent verification
		// goroutines only ever read the taxonomy.
		ctx.Tax.Finalize()
	}
	return &Joiner{Ctx: ctx, gen: pebble.NewGenerator(ctx), calc: core.NewCalculator(ctx)}
}

// Generator exposes the pebble generator (shared with the estimator).
func (j *Joiner) Generator() *pebble.Generator { return j.gen }

// Calculator exposes the unified-similarity calculator.
func (j *Joiner) Calculator() *core.Calculator { return j.calc }

// BuildOrder is orderOf for bare collections: their records are prepared
// here, without a dictionary, so every gram key is counted by string.
func (j *Joiner) BuildOrder(collections ...[]strutil.Record) *pebble.Order {
	prepared := make([][]*core.PreparedRecord, len(collections))
	for i, coll := range collections {
		prepared[i] = prepareRecords(coll, nil, j.calc.PrepareProbe)
	}
	return j.orderOf(nil, prepared...).Order()
}

// orderOf constructs the global pebble frequency order over the given
// collections of records prepared against d, counting their keys by key
// number (pebble.KeyCount), and returns it with its IDs by key number, which
// the order generation's probe table is built from (install).
func (j *Joiner) orderOf(d *core.SegDict, collections ...[]*core.PreparedRecord) *pebble.KeyIDs {
	count := j.gen.NewKeyCount(d)
	for _, coll := range collections {
		for _, pr := range coll {
			count.Add(pr)
		}
	}
	return count.Freeze()
}

// probeScratch is the state of one request on one shard: the block
// accumulator holding the arena-allocated overlap counters and touched list,
// and the verification scratch of the prepared similarity engine.
type probeScratch struct {
	acc   *invindex.Accumulator
	sim   *core.Scratch
	lists [][]invindex.Posting // one ID's delta-chain posting lists (deltas.walk)
}

// scratchFromPool borrows a probe scratch from pool (allocating on a cold
// pool) with its accumulator arena sized for numRecords.
func scratchFromPool(pool *sync.Pool, numRecords int) *probeScratch {
	sc, _ := pool.Get().(*probeScratch)
	if sc == nil {
		sc = &probeScratch{acc: invindex.NewAccumulator()}
	}
	sc.acc.Reset(numRecords)
	return sc
}

// release returns a scratch to its pool.
func (sc *probeScratch) release(pool *sync.Pool) { pool.Put(sc) }

// simScratch lazily builds the similarity scratch of the verification step
// (a FilterProfile's sweep never needs one).
func (sc *probeScratch) simScratch() *core.Scratch {
	if sc.sim == nil {
		sc.sim = core.NewScratch()
	}
	return sc.sim
}

// counters are the engine's work counters: the filter stage's — ProbePostings
// is T_τ of the cost model (posting entries and bitmap bits accumulated), and
// ProbeBitsetTokens/ProbeSliceTokens split the token lookups by posting
// representation — and the verify stage's. They are what one request did on
// one shard, what one worker of the batch loop did on a shard, and what a
// shard has done over its lifetime; DynamicStats embeds them. Adding a counter
// is one field here or in core.VerifyStats, and its increment.
type counters struct {
	ProbePostings     int64 `json:"probe_postings"`
	ProbeBitsetTokens int64 `json:"probe_bitset_tokens"`
	ProbeSliceTokens  int64 `json:"probe_slice_tokens"`
	core.VerifyStats
}

func (c *counters) add(o counters) {
	c.ProbePostings += o.ProbePostings
	c.ProbeBitsetTokens += o.ProbeBitsetTokens
	c.ProbeSliceTokens += o.ProbeSliceTokens
	c.VerifyStats.Add(o.VerifyStats)
}

// newInverted builds the hybridized inverted index over per-record signature
// IDs. The full signature multiset is in hand before the first Add — count it
// and reserve every posting list exactly, so the build is two arena
// allocations instead of per-list regrow churn (the dominant cost of a large
// build otherwise): one for the lists the hybrid conversion will turn into
// bitmaps, which it then leaves unreferenced, and one for the lists that stay
// in slice form. A signature holds its repeats side by side (the count filter
// reads them as runs), so counting a run once counts the postings exactly.
// tau is the index's τ, the largest any probe of it filters at.
func newInverted(sigIDs [][]uint32, order *pebble.Order, tau int) *invindex.Index {
	inv := invindex.New(order.NumKeys())
	caps := make([]int32, order.NumKeys())
	for _, ids := range sigIDs {
		for k, id := range ids {
			if int(id) < len(caps) && (k == 0 || ids[k-1] != id) {
				caps[id]++
			}
		}
	}
	cut := hybridCutoff(len(sigIDs), order, tau)
	inv.Presize(caps, cut)
	for i, ids := range sigIDs {
		inv.Add(i, ids)
	}
	if cut > 0 {
		inv.Hybridize(cut)
	}
	return inv
}

// minBitsetList is the floor of the hybrid density cutoff: below this list
// length the slice walk beats the fixed per-word costs of the bitmap path
// regardless of corpus size.
const minBitsetList = 16

// hybridCutoff is the density cutoff of the hybrid posting layout for an
// index of numRecords records signed under order at τ tau: lists at least
// this long (≈ 1/64 of the corpus, i.e. averaging one set bit per bitmap
// word, floored at minBitsetList) move to packed bitmap form. It is 0 — no
// conversion — for an empty index; above invindex.MaxBlockTau, where the
// count filter's register block cannot decide ≥ τ and slice form is exact
// at any τ; and when the order's maximum document frequency, which
// upper-bounds every frozen key's list length, cannot reach the cutoff; an
// order with a dynamic region has stale frequencies (inserted records are
// uncounted), so the conversion always runs there — a missed skip costs one
// pass over the postings, never correctness.
func hybridCutoff(numRecords int, order *pebble.Order, tau int) int {
	c := max(numRecords>>6, minBitsetList)
	if numRecords == 0 || tau > invindex.MaxBlockTau || (order.MaxFrequency() < c && order.DynamicCount() == 0) {
		return 0
	}
	return c
}

// collectPairs is the batch form of the streaming pipeline: it runs a
// streaming probe to completion, collecting every emitted pair, and orders
// the result by (S, T) identifiers.
func collectPairs(run func(emit func(Pair) bool) Stats) ([]Pair, Stats) {
	var results []Pair
	stats := run(func(p Pair) bool {
		results = append(results, p)
		return true
	})
	sortPairs(results)
	return results, stats
}

// sortPairs orders pairs by (S, T), the batch API's result order.
func sortPairs(pairs []Pair) {
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].S != pairs[b].S {
			return pairs[a].S < pairs[b].S
		}
		return pairs[a].T < pairs[b].T
	})
}

// QueryMatch is one result of a single-record probe: an indexed record and
// its unified similarity to the query.
type QueryMatch struct {
	Record     int
	Similarity float64
}

// countFilterRecord is the hybrid count filter for one probe record, the one
// function that walks a signature's posting lists into the accumulator: for
// every distinct ID among the probe signature's ids (with its multiplicity),
// it folds the ID's posting list — word-parallel through the block
// accumulator for bitmap-form lists, entry-at-a-time for slice-form lists,
// then the always-sparse lists of the delta segments — into per-record
// overlap counters, considering only base records < limit. The chain's
// links lead to exactly the segments that hold a list for an ID, oldest
// first, so the walk skips only lookups that would have returned nil and
// added no postings, and the candidates and counters are the ones a walk of
// every segment gives. It returns the records whose overlap reached τ and
// are not tombstoned in dead (aliasing the accumulator arena, valid until
// the next call) and the filter counters. The counters are left zeroed for
// reuse. A shard passes its delta chain, its tombstone bitmap and limit =
// inv.Records(); a self-join, whose shard has neither segments nor
// tombstones, passes the probe's own position as limit; the τ sweep of a
// FilterProfile passes the empty chain and no tombstones.
func countFilterRecord(inv *invindex.Index, chain deltas, dead []uint64, ids []uint32, tau, limit int, sc *probeScratch) ([]int32, counters) {
	acc := sc.acc
	acc.Begin(tau)
	var tally counters
	prefix := limit < inv.Records()
	for a := 0; a < len(ids); {
		id := ids[a]
		b := a + 1
		for b < len(ids) && ids[b] == id {
			b++
		}
		mult := int32(b - a)
		a = b
		if id == pebble.NoID {
			continue // unknown key: no indexed record can carry it
		}
		if bs := inv.Bitset(id); bs != nil {
			tally.ProbeBitsetTokens++
			tally.ProbePostings += acc.AddBitset(bs, mult, limit)
			if res := bs.Residual(); len(res) != 0 {
				if prefix {
					res = res[:sort.Search(len(res), func(k int) bool { return res[k].Record >= limit })]
				}
				// The residual carries only the surplus counts of records
				// whose bitmap bit was already accumulated (and already
				// tallied as processed postings), so its entries add overlap
				// but no new T_τ cost.
				acc.AddPostings(res, mult)
			}
		} else {
			tally.ProbeSliceTokens++
			postings := inv.Postings(id)
			if prefix {
				// Posting lists are sorted by record, so the self-join
				// restriction to records < limit is a prefix.
				postings = postings[:sort.Search(len(postings), func(k int) bool { return postings[k].Record >= limit })]
			}
			tally.ProbePostings += acc.AddPostings(postings, mult)
		}
		if chain.holds(id) {
			sc.lists = chain.walk(id, sc.lists[:0])
			for _, l := range sc.lists {
				tally.ProbePostings += acc.AddPostings(l, mult)
			}
		}
	}
	tally.ProbePostings += acc.FlushDense(limit)
	return acc.Collect(dead), tally
}

// Join executes the filter-and-verification join between two record
// collections and returns the matching pairs together with execution
// statistics. The result pairs are sorted by (S, T) identifiers. Join builds
// a one-shard index over s under a global order spanning both collections
// and probes it with t, one record at a time; workloads joining against the
// same collection repeatedly should hold on to a ShardedIndex instead.
func (j *Joiner) Join(s, t []strutil.Record, opts Options) ([]Pair, Stats) {
	return collectPairs(func(emit func(Pair) bool) Stats {
		stats, _ := j.joinStream(context.Background(), s, t, opts, emit)
		return stats
	})
}

// SelfJoin joins a collection with itself, returning each unordered pair
// (i < j) at most once and never pairing a record with itself. Unlike
// Join(s, s), candidate generation never materialises mirrored or diagonal
// pairs, and Stats reflects the deduplicated work.
func (j *Joiner) SelfJoin(s []strutil.Record, opts Options) ([]Pair, Stats) {
	return collectPairs(func(emit func(Pair) bool) Stats {
		stats, _ := j.selfStream(context.Background(), s, opts, emit)
		return stats
	})
}

// selectSignatures signs every prepared record under g in parallel, through
// the generation's probe table (pebble.Signer, one a worker), and returns
// their signature IDs.
func selectSignatures(prepared []*core.PreparedRecord, g *orderGen, method pebble.Method, tau int) [][]uint32 {
	out := make([][]uint32, len(prepared))
	signers := make([]*pebble.Signer, runtime.GOMAXPROCS(0))
	_ = parallelForWorkersCtx(context.Background(), len(prepared), len(signers), func(w, i int) {
		if signers[w] == nil {
			signers[w] = g.sel.NewSigner(g.probes)
		}
		out[i] = signers[w].Sign(prepared[i], method, tau)
	})
	return out
}

// pairKey identifies one candidate pair of a FilterProfile, by position: an
// indexed record and a probe record.
type pairKey struct{ s, t int }

// prepareRecords prepares every record in parallel, with a calculator's
// PrepareIn for the records of an index (segments interned into its
// dictionary d) or its PrepareProbe for a probe collection (d read, never
// written; nil for none).
func prepareRecords(recs []strutil.Record, d *core.SegDict, prepare func(*core.SegDict, []string) *core.PreparedRecord) []*core.PreparedRecord {
	out := make([]*core.PreparedRecord, len(recs))
	parallelFor(len(recs), 0, func(i int) {
		out[i] = prepare(d, recs[i].Tokens)
	})
	return out
}

// FilterProfile holds the τ-independent state of the filtering stage for
// two collections: every record prepared once, the shared interned order and
// every record's interned, sorted pebble list. Stats re-derives
// signatures and candidate counts for any τ without regenerating or
// re-sorting pebbles — the Section 4 estimator calls it for every τ in its
// universe on each Bernoulli sample — and VerifyStats additionally verifies
// the surviving candidates through the same prepared-record engine the join
// uses, over the same prepared records. A FilterProfile
// is not safe for concurrent use: signature re-selection mutates shared
// per-record accumulation scratch (and VerifyStats its verdict memo), so
// sweep τ values sequentially.
type FilterProfile struct {
	calc    *core.Calculator
	sel     *pebble.Selector
	order   *pebble.Order
	method  pebble.Method
	theta   float64
	workers int
	// S is the left operand of every verification, so it is the side whose
	// segments get IDs (the profile's own dictionary), and cover is its cover
	// column, which bounds every candidate before VerifyPrepared, as a
	// shard's does.
	prepS, prepT []*core.PreparedRecord
	cover        core.CoverColumn
	preS, preT   []pebble.Presig
	scratch      sync.Pool // *probeScratch, reused across the τ sweep

	// verdicts memoises per-pair verification outcomes across the τ sweep:
	// the verdict depends only on the pair and θ, and candidate sets for
	// different τ overlap heavily.
	verdicts map[pairKey]bool
}

// NewFilterProfile prepares both collections under a shared global order.
func (j *Joiner) NewFilterProfile(s, t []strutil.Record, opts Options) *FilterProfile {
	dict := core.NewSegDict()
	prepS := prepareRecords(s, dict, j.calc.PrepareIn)
	prepT := prepareRecords(t, dict, j.calc.PrepareProbe)
	ids := j.orderOf(dict, prepS, prepT)
	order := ids.Order()
	sel := pebble.NewSelector(j.gen, order, opts.Theta)
	probes := ids.ProbeTable()
	return &FilterProfile{
		calc:    j.calc,
		sel:     sel,
		order:   order,
		method:  opts.Method,
		theta:   opts.Theta,
		workers: opts.workers(),
		prepS:   prepS,
		prepT:   prepT,
		cover:   core.NewCoverColumn(dict, prepS),
		preS:    presigs(prepS, sel, probes),
		preT:    presigs(prepT, sel, probes),
	}
}

// presigs runs Selector.PrepareProbe for every record in parallel, through
// the profile's probe table.
func presigs(prepared []*core.PreparedRecord, sel *pebble.Selector, probes *pebble.ProbeTable) []pebble.Presig {
	out := make([]pebble.Presig, len(prepared))
	parallelFor(len(prepared), 0, func(i int) {
		out[i] = sel.PrepareProbe(prepared[i], probes)
	})
	return out
}

// Stats runs the filtering stage (Lines 1–8 of Algorithm 6) for one τ and
// returns the number of processed posting pairs (T_τ) and candidates (V_τ).
func (fp *FilterProfile) Stats(tau int) (processed int64, candidates int) {
	cands, p := fp.filter(tau)
	return p, len(cands)
}

// VerifyStats is Stats plus verification: it runs the filtering stage for
// one τ and decides every candidate as a shard does — bounded from the S
// side's cover column, then, past the bound, verified by VerifyPrepared —
// returning the number of results (R_τ) alongside T_τ and V_τ.
func (fp *FilterProfile) VerifyStats(tau int) (processed int64, candidates, results int) {
	cands, processed := fp.filter(tau)
	if len(cands) == 0 {
		return processed, 0, 0
	}
	// A pair's verdict is τ-independent, and the candidate sets of the τ
	// sweep overlap heavily, so only pairs never seen before are verified.
	if fp.verdicts == nil {
		fp.verdicts = make(map[pairKey]bool)
	}
	var todo []pairKey
	for _, c := range cands {
		if _, ok := fp.verdicts[c]; !ok {
			todo = append(todo, c)
		}
	}
	if len(todo) > 0 {
		scratches := make([]*core.Scratch, fp.workers)
		keep := make([]bool, len(todo))
		// Nothing cancels the background context, so there is no error to report.
		_ = parallelForWorkersCtx(context.Background(), len(todo), fp.workers, func(w, i int) {
			sc := scratches[w]
			if sc == nil {
				sc = core.NewScratch()
				scratches[w] = sc
			}
			c := todo[i]
			if fp.calc.CoverBound(&fp.cover, int32(c.s), fp.prepT[c.t], fp.theta, sc) >= fp.theta-core.BoundSlack {
				_, keep[i] = fp.calc.VerifyPrepared(fp.prepS[c.s], fp.prepT[c.t], fp.theta, sc)
			}
		})
		for i, c := range todo {
			fp.verdicts[c] = keep[i]
		}
	}
	for _, c := range cands {
		if fp.verdicts[c] {
			results++
		}
	}
	return processed, len(cands), results
}

// filter runs signature selection and count filtering for one τ, returning
// the candidate pairs and the processed posting count. The sweep compares
// candidate sets across τ, so — unlike a join, which verifies a record's
// candidates and forgets them — it keeps every pair.
func (fp *FilterProfile) filter(tau int) ([]pairKey, int64) {
	if fp.method == pebble.UFilter || tau < 1 {
		tau = 1
	}
	inv := newInverted(fp.selectAll(fp.preS, tau), fp.order, tau)
	sc := scratchFromPool(&fp.scratch, len(fp.preS))
	defer sc.release(&fp.scratch)
	var cands []pairKey
	var processed int64
	for t, ids := range fp.selectAll(fp.preT, tau) {
		recs, tally := countFilterRecord(inv, deltas{}, nil, ids, tau, len(fp.preS), sc)
		processed += tally.ProbePostings
		for _, r := range recs {
			cands = append(cands, pairKey{int(r), t})
		}
	}
	return cands, processed
}

// selectAll derives the τ-specific signature IDs from the prepared pebble
// lists in parallel.
func (fp *FilterProfile) selectAll(pre []pebble.Presig, tau int) [][]uint32 {
	out := make([][]uint32, len(pre))
	parallelFor(len(pre), 0, func(i int) {
		out[i] = fp.sel.Select(pre[i], fp.method, tau).IDs()
	})
	return out
}

// FilterStats runs only the signature and filtering stages of the join and
// returns T_τ and V_τ. One-shot convenience over NewFilterProfile; callers
// sweeping several τ values should build the profile once and call Stats
// per τ.
func (j *Joiner) FilterStats(s, t []strutil.Record, opts Options) (processed int64, candidates int) {
	return j.NewFilterProfile(s, t, opts).Stats(opts.tau())
}

// BruteForce computes the join by verifying every pair through the prepared
// thresholded engine (each side prepared once); it is the oracle the
// integration tests compare the filtered joins against and the degenerate
// baseline of the scalability experiments.
func (j *Joiner) BruteForce(s, t []strutil.Record, theta float64, calc *core.Calculator) []Pair {
	out, _ := j.BruteForceCtx(context.Background(), s, t, theta, calc)
	return out
}

// BruteForceCtx is BruteForce with cooperative cancellation: verification
// workers stop between pairs once ctx is done and the partial result is
// discarded (a truncated oracle would silently weaken every comparison made
// against it).
func (j *Joiner) BruteForceCtx(ctx context.Context, s, t []strutil.Record, theta float64, calc *core.Calculator) ([]Pair, error) {
	if calc == nil {
		calc = j.calc
	}
	// Both sides without a dictionary: the oracle verifies on the direct path,
	// with no row reuse to be wrong about.
	prepS := prepareRecords(s, nil, calc.PrepareProbe)
	prepT := prepareRecords(t, nil, calc.PrepareProbe)
	type cell struct {
		pair Pair
		ok   bool
	}
	cells := make([]cell, len(s)*len(t))
	workers := runtime.GOMAXPROCS(0)
	scratches := make([]*core.Scratch, workers)
	err := parallelForWorkersCtx(ctx, len(s)*len(t), workers, func(w, k int) {
		i, l := k/len(t), k%len(t)
		sc := scratches[w]
		if sc == nil {
			sc = core.NewScratch()
			scratches[w] = sc
		}
		if v, ok := calc.VerifyPrepared(prepS[i], prepT[l], theta, sc); ok {
			cells[k] = cell{pair: Pair{S: s[i].ID, T: t[l].ID, Similarity: v}, ok: true}
		}
	})
	if err != nil {
		return nil, err
	}
	var out []Pair
	for _, c := range cells {
		if c.ok {
			out = append(out, c.pair)
		}
	}
	sortPairs(out)
	return out, nil
}

// parallelFor runs fn(i) for i in [0, n) across the given number of workers
// (GOMAXPROCS when workers ≤ 0), to the end: parallelForWorkersCtx under a
// context nothing cancels, which therefore reports no error.
func parallelFor(n, workers int, fn func(int)) {
	_ = parallelForWorkersCtx(context.Background(), n, workers, func(_, i int) { fn(i) })
}

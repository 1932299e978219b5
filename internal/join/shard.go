package join

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/invindex"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/planner"
	"github.com/aujoin/aujoin/internal/strutil"
)

// shard is one partition of a ShardedIndex, the private building block the
// router fans requests out over: a frozen base index plus a chain of small
// immutable delta segments for records inserted since the last rebuild, and
// a tombstone bitmap for removed records. It exposes only shard-local
// primitives — count-filter candidates, verification of a ready-made
// signature, mutation, compaction — and owns neither an order nor a planner:
// the pebble order is the router's and shared with every sibling, so signature
// keys first seen after the base was built land in that order's append-only
// dynamic region, and planning happens once per request, on the router.
//
// Writers (insertRecords, removeBatch) serialize on an internal mutex, mutate
// writer-owned state, and publish a fresh immutable shardView via an atomic
// pointer swap — copy-on-write at the granularity of slice headers and the
// tombstone bitmap. Readers run entirely against the view the router's
// Snapshot handed them: no locks, no retries, and a consistent picture of the
// shard no matter how many mutations land mid-query.
//
// Correctness under mutation rests on two invariants:
//
//  1. The pebble order is append-only (pebble.Order.InternDynamic), so the
//     relative position of any two interned keys never changes and every
//     signature ever selected remains a valid prefix under every later
//     order state. Signatures of base records and of each segment therefore
//     stay comparable with signatures of new probes.
//  2. Published views are never mutated: records/prepared/segment slices
//     only ever grow past the published length, and the tombstone bitmap is
//     cloned before a bit is set. A view observes removals only if they
//     were published before the view was taken.
//
// Once the keys this shard appended, its tombstones, or its segment chain
// cross their threshold (RebuildFraction, MaxSegments), the writer compacts:
// live records move into a fresh dense base under the *same* shared order
// (reusing their prepared verification records), and the segment chain
// resets to empty. Re-freezing the order is the router's business alone — a
// private re-freeze would re-assign IDs the siblings' signatures reference.
type shard struct {
	joiner *Joiner
	opts   Options
	tau    int
	calc   *core.Calculator
	cache  *core.PreparedCache

	rebuildFraction float64
	maxSegments     int

	mu  sync.Mutex // serializes writers; never held by readers
	cur atomic.Pointer[shardView]

	// Writer-owned state. records, prepared and segs are append-only while
	// a base is live (published views hold shorter headers); dead is cloned
	// before every bit set. All of it is replaced wholesale on rebuild.
	base      *Index
	segs      []*segment
	records   []strutil.Record
	prepared  []*core.PreparedRecord
	dead      []uint64
	deadCount int
	positions map[int]int // stable record ID -> position
	rebuilds  int
	inserts   int
	// sigLens holds each position's signature length and sigLenLive the
	// total over live positions, so snapshots report the true mean
	// indexed-side signature length even between rebuilds.
	sigLens    []int
	sigLenLive int
	// dynAtBuild is the shared order's dynamic-region size when the current
	// base was adopted, and dynAdded counts the keys *this* shard appended
	// since then. The rebuild trigger fires on dynAdded: the region grows
	// from all shards and resets only at a router re-freeze, so neither its
	// absolute size nor its growth is attributable to one shard — only the
	// shard's own interning is.
	dynAtBuild int
	dynAdded   int
	// pauses records the wall-clock duration of every rebuild, i.e. how long
	// this shard's writers stalled; readers never pause. The serve benchmark
	// reports their percentiles.
	pauses []time.Duration
	// gen is the router's order generation this shard's base was built
	// under. A global re-finalize bumps it on every shard while holding
	// every writer lock, and snapshots use it to detect mixed-generation
	// view sets.
	gen int

	// Cumulative filter-phase work over every probe served against this
	// shard's views (single-record, top-k and batch alike), surfaced
	// through DynamicStats so a serving process can watch the
	// bitmap-versus-slice mix live. Atomics: probes run concurrently with
	// each other and with writers.
	probePostings     atomic.Int64
	probeBitsetTokens atomic.Int64
	probeSliceTokens  atomic.Int64

	// Cumulative verify-phase work, the same way: candidates whose msim
	// matrix was computed, candidates rejected by the sound upper bounds
	// (size-ratio bound or the rising top-k floor), and msim memo hits.
	verifyVerified atomic.Int64
	verifyPruned   atomic.Int64
	verifyMemoHits atomic.Int64

	pool sync.Pool // *probeScratch shared across views and generations
}

// noteProbe folds one probe's filter tally into the cumulative counters.
func (sh *shard) noteProbe(t filterTally) {
	sh.probePostings.Add(t.postings)
	sh.probeBitsetTokens.Add(t.bitsetTokens)
	sh.probeSliceTokens.Add(t.sliceTokens)
}

// noteVerify folds one operation's verify tally into the cumulative counters.
func (sh *shard) noteVerify(t verifyTally) {
	sh.verifyVerified.Add(t.verified)
	sh.verifyPruned.Add(t.pruned)
	sh.verifyMemoHits.Add(t.memoHits)
}

// segment is one immutable batch of inserted records: a sparse inverted
// index over their signatures, keyed by global record positions.
type segment struct {
	inv *invindex.Delta
}

// DynamicOptions tunes the mutation behaviour of a ShardedIndex on top of
// the join Options fixed at build time.
type DynamicOptions struct {
	// RebuildFraction triggers a shard's compaction rebuild when the pebble
	// keys it appended exceed this fraction of the keys known when its base
	// was built, or its tombstoned records this fraction of its catalog.
	// 0 selects the default 0.25; negative disables size-triggered rebuilds
	// and the router's global re-finalize.
	RebuildFraction float64
	// MaxSegments caps the delta-segment chain length (every insert batch
	// appends one segment per touched shard); crossing it triggers a
	// rebuild. 0 selects the default 64.
	MaxSegments int
	// CacheSize bounds the prepared-record cache consulted on insert
	// (core.PreparedCache, one per index, shared by its shards). 0 selects
	// core.DefaultPreparedCacheSize; negative disables the cache.
	CacheSize int
}

const (
	defaultRebuildFraction = 0.25
	defaultMaxSegments     = 64
)

// newShard wraps a base index — freshly built over one partition, or
// restored from a snapshot — as a shard and publishes its first view. The
// base was built under the router's shared order; cache is the router's one
// prepared-record cache (nil when disabled), shared so delete/re-insert churn
// hits whichever shard the record lands on. deadIDs re-applies a restored
// shard's tombstones: the restored base holds every record — live and dead —
// at its original position, so the bits land where the captured index had
// them and the posting lists match entry for entry.
func newShard(base *Index, dopts DynamicOptions, cache *core.PreparedCache, deadIDs []int) *shard {
	sh := &shard{
		joiner:          base.joiner,
		opts:            base.opts,
		tau:             base.tau,
		calc:            base.calc,
		cache:           cache,
		rebuildFraction: dopts.RebuildFraction,
		maxSegments:     dopts.MaxSegments,
	}
	if sh.rebuildFraction == 0 {
		sh.rebuildFraction = defaultRebuildFraction
	}
	if sh.maxSegments <= 0 {
		sh.maxSegments = defaultMaxSegments
	}
	sh.adoptBaseLocked(base)
	for _, id := range deadIDs {
		pos := sh.positions[id]
		delete(sh.positions, id)
		sh.dead[pos>>6] |= 1 << (uint(pos) & 63)
		sh.deadCount++
		sh.sigLenLive -= sh.sigLens[pos]
	}
	sh.publishLocked()
	return sh
}

// adoptBaseLocked installs a freshly built base index as the writer state.
func (sh *shard) adoptBaseLocked(base *Index) {
	sh.base = base
	sh.segs = nil
	sh.records = base.records
	sh.prepared = base.prepared
	sh.dead = make([]uint64, (len(base.records)+63)/64)
	sh.deadCount = 0
	sh.positions = make(map[int]int, len(base.records))
	for pos, rec := range base.records {
		sh.positions[rec.ID] = pos
	}
	sh.sigLens = make([]int, base.sigCount())
	sh.sigLenLive = 0
	for i := range sh.sigLens {
		sh.sigLens[i] = base.sigLenAt(i)
		sh.sigLenLive += sh.sigLens[i]
	}
	sh.dynAtBuild = base.order.DynamicCount()
	sh.dynAdded = 0
}

// publishLocked snapshots the writer state into a fresh immutable view and
// swaps it in for readers.
func (sh *shard) publishLocked() {
	v := &shardView{
		sh:       sh,
		base:     sh.base,
		segs:     sh.segs,
		records:  sh.records,
		prepared: sh.prepared,
		dead:     sh.dead,
		gen:      sh.gen,
		live:     len(sh.records) - sh.deadCount,
		rebuilds: sh.rebuilds,
		inserts:  sh.inserts,
	}
	if v.live > 0 {
		v.avgSig = float64(sh.sigLenLive) / float64(v.live)
	}
	sh.cur.Store(v)
}

// snapshot returns the current immutable view.
func (sh *shard) snapshot() *shardView { return sh.cur.Load() }

// insertRecords appends records under the stable IDs the router assigned
// (IDs are allocated centrally so they stay unique across shards and
// hash-routable). New signature keys are interned into the shared order's
// dynamic region, the batch's postings become one immutable delta segment,
// and a new view is published; a rebuild is triggered first when the
// mutation thresholds are crossed.
func (sh *shard) insertRecords(recs []strutil.Record) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delta := invindex.NewDelta()
	// Generate each record's pebbles once: the whole batch is interned in a
	// single InternDynamic call (at most one dynamic-table clone), and the
	// same slices then feed signature selection via PreparePebbles.
	pebs := make([][]pebble.Pebble, len(recs))
	segs := make([][]core.Segment, len(recs))
	for i := range recs {
		pebs[i], segs[i] = sh.joiner.gen.Pebbles(recs[i].Tokens)
	}
	sh.dynAdded += sh.base.order.InternDynamic(pebs...)
	var idbuf []uint32
	for i := range recs {
		pos := len(sh.records)
		pre := sh.base.sel.PreparePebbles(pebs[i], segs[i], recs[i].Tokens)
		sig := sh.base.sel.Select(pre, sh.opts.Method, sh.tau)
		idbuf = appendSignatureIDs(idbuf[:0], sig)
		delta.Add(pos, idbuf)
		sh.sigLens = append(sh.sigLens, sig.Len())
		sh.sigLenLive += sig.Len()
		sh.records = append(sh.records, recs[i])
		sh.prepared = append(sh.prepared, sh.calc.PrepareCached(sh.cache, recs[i].Tokens))
		sh.positions[recs[i].ID] = pos
	}
	for len(sh.dead)*64 < len(sh.records) {
		sh.dead = append(sh.dead, 0)
	}
	sh.segs = append(sh.segs, &segment{inv: delta})
	sh.inserts += len(recs)
	sh.maybeRebuildLocked()
	sh.publishLocked()
}

// removeBatch tombstones every given stable ID, reporting per ID whether it
// was present and live. The writer lock is taken once and the tombstone
// bitmap cloned at most once, before the first bit set (clone-before-set:
// published views keep observing the old bitmap), so bulk deletions cost one
// publish instead of one per record; nothing is published when every id
// misses. The records' postings stay in place until the next rebuild; count
// filtering may still touch them, but candidates are discarded before
// verification.
func (sh *shard) removeBatch(ids []int) []bool {
	out := make([]bool, len(ids))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var nd []uint64
	for i, id := range ids {
		pos, ok := sh.positions[id]
		if !ok {
			continue
		}
		delete(sh.positions, id)
		if nd == nil {
			nd = make([]uint64, len(sh.dead))
			copy(nd, sh.dead)
		}
		nd[pos>>6] |= 1 << (uint(pos) & 63)
		sh.deadCount++
		sh.sigLenLive -= sh.sigLens[pos]
		out[i] = true
	}
	if nd != nil {
		sh.dead = nd
		sh.maybeRebuildLocked()
		sh.publishLocked()
	}
	return out
}

// maybeRebuildLocked compacts the shard when the appended pebble mass, the
// tombstone mass, or the segment chain crosses its threshold.
func (sh *shard) maybeRebuildLocked() {
	if len(sh.segs) > sh.maxSegments {
		sh.rebuildLocked()
		return
	}
	if sh.rebuildFraction < 0 {
		return
	}
	// The trigger compares the keys this shard interned since adoption
	// (dynAdded) against the keys known at adoption. Counting only our own
	// interning matters: the shared dynamic region grows from every
	// sibling's inserts, and triggering on global growth would make all
	// shards cross the threshold on the same batch and stall its caller on N
	// correlated rebuilds — exactly the stop-the-world pause sharding exists
	// to bound.
	known := sh.base.order.FrozenKeys() + sh.dynAtBuild
	if known < 1 {
		known = 1
	}
	if sh.dynAdded > 0 && float64(sh.dynAdded) >= sh.rebuildFraction*float64(known) {
		sh.rebuildLocked()
		return
	}
	if n := len(sh.records); sh.deadCount > 0 && float64(sh.deadCount) >= sh.rebuildFraction*float64(n) {
		sh.rebuildLocked()
	}
}

// rebuildLocked compacts the live records into a fresh base index under the
// shared order's current append-only state, reusing each survivor's prepared
// verification record and re-selecting its signature — the compaction win is
// the dense base (segments merged, tombstones dropped), not a fresher
// frequency ranking, which only the router's re-freeze delivers. Stable IDs
// are preserved; positions are reassigned. The pause is recorded for the
// serve benchmark's percentiles.
func (sh *shard) rebuildLocked() {
	start := time.Now()
	live, prep := sh.liveLocked()
	sh.adoptBaseLocked(sh.joiner.buildIndex(live, sh.base.order, sh.opts, prep))
	sh.rebuilds++
	sh.pauses = appendPause(sh.pauses, time.Since(start))
}

// maxPauseLog bounds each pause history: a long-running daemon rebuilds
// indefinitely, and the log exists for recent-percentile reporting, not as
// an unbounded archive.
const maxPauseLog = 1024

// appendPause appends a pause, dropping the older half of the log once it
// outgrows maxPauseLog (amortized O(1), keeps the recent window).
func appendPause(log []time.Duration, d time.Duration) []time.Duration {
	if len(log) >= maxPauseLog {
		log = append(log[:0], log[len(log)/2:]...)
	}
	return append(log, d)
}

// liveLocked collects the live records and their prepared verification
// records in position order.
func (sh *shard) liveLocked() ([]strutil.Record, []*core.PreparedRecord) {
	live := make([]strutil.Record, 0, len(sh.records)-sh.deadCount)
	prep := make([]*core.PreparedRecord, 0, len(sh.records)-sh.deadCount)
	for pos, rec := range sh.records {
		if sh.dead[pos>>6]&(1<<(uint(pos)&63)) != 0 {
			continue
		}
		live = append(live, rec)
		prep = append(prep, sh.prepared[pos])
	}
	return live, prep
}

// refreezeLocked rebuilds this shard's base under the freshly frozen order
// of a router re-freeze, stamping the new generation. The caller (the
// router) holds sh.mu — and every sibling's — for the whole refreeze, so no
// view mixing old-order bases with the new selector can be published; it
// also supplies the live records it already collected and logs the whole
// refreeze as one router-level pause (per-shard entries here would both
// double-count the stall and hide its corpus-sized total).
func (sh *shard) refreezeLocked(order *pebble.Order, gen int, live []strutil.Record, prep []*core.PreparedRecord) {
	sh.gen = gen
	sh.adoptBaseLocked(sh.joiner.buildIndex(live, order, sh.opts, prep))
	sh.rebuilds++
	sh.publishLocked()
}

// rebuildPauses returns the wall-clock durations of recent rebuilds — the
// history is capped at maxPauseLog entries — (writer stall per rebuild;
// readers keep serving the previous view).
func (sh *shard) rebuildPauses() []time.Duration {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return append([]time.Duration(nil), sh.pauses...)
}

// DynamicStats describes one snapshot of a ShardedIndex.
type DynamicStats struct {
	// Records is the catalog length including tombstones; Live and Dead
	// split it.
	Records, Live, Dead int
	// Segments is the length of the delta-segment chains (one segment per
	// insert batch and touched shard since that shard's last rebuild),
	// summed over the shards.
	Segments int
	// Shards is the number of index partitions.
	Shards int
	// FrozenKeys and DynamicKeys count the interned pebble keys in the
	// shared order's frozen prefix and its append-only dynamic region.
	FrozenKeys, DynamicKeys int
	// Rebuilds counts shard compactions and re-freeze rebuilds, summed over
	// the shards; Inserts the records appended over the index lifetime.
	Rebuilds, Inserts int
	// DenseKeys and SparseKeys split the base indexes' non-empty posting
	// lists by representation: packed bitmap form (lists past the hybrid
	// density cutoff) versus sorted slice form. Summed over the shards (each
	// shard hybridizes its own base).
	DenseKeys, SparseKeys int
	// ProbePostings counts posting entries processed by the count filter
	// over every probe served since the index was built;
	// ProbeBitsetTokens and ProbeSliceTokens split the probe signature
	// tokens by the representation their base posting list was served
	// from. Summed over the shards.
	ProbePostings     int64
	ProbeBitsetTokens int64
	ProbeSliceTokens  int64
	// VerifiedCandidates, PrunedByBound and MemoHits are the cumulative
	// verify-phase counters over every query served since the index was
	// built: candidates whose msim matrix was computed, candidates skipped
	// by the sound upper bounds (O(1) size-ratio bound or the rising top-k
	// floor), and segment-pair msim evaluations answered from the memo.
	// Summed over the shards.
	VerifiedCandidates int64
	PrunedByBound      int64
	MemoHits           int64
	// CacheHits and CacheMisses are the cumulative prepared-record cache
	// counters (one cache is shared across all shards; zero when the cache
	// is disabled).
	CacheHits, CacheMisses uint64
	// Theta and Tau are the join parameters fixed at build time.
	Theta float64
	Tau   int
	// SuggestedTau is the planner's live τ suggestion: the build-time τ
	// until the first re-anchor, the observed workload's most-chosen τ
	// afterwards (0 when planning is disabled).
	SuggestedTau int
	// Plans, PlanFallbacks and PlanReanchors count adaptive planning
	// decisions, planner fallbacks to the fixed configuration, and feedback
	// re-anchors after re-freezes; PlanDecisions splits Plans by chosen
	// configuration ("ufilter/t1", "auheur/t2", "audp/t3", ...). All zero
	// when planning is disabled. The planner belongs to the router, so these
	// are request-level counters, not per-shard.
	Plans         int64
	PlanFallbacks int64
	PlanReanchors int64
	PlanDecisions map[string]int64
	// BuildTime is the construction time of the current base indexes: the
	// slowest shard's build (shards build in parallel).
	BuildTime time.Duration
}

// shardView is one immutable snapshot of a shard. All its methods are
// read-only, lock-free and safe for unbounded concurrency; results reflect
// exactly the mutations published before the router's Snapshot captured it.
type shardView struct {
	sh       *shard
	base     *Index
	segs     []*segment
	records  []strutil.Record
	prepared []*core.PreparedRecord
	dead     []uint64
	avgSig   float64 // mean signature length over live records
	gen      int     // order generation of the base (see shard.gen)
	live     int     // len(records) minus tombstones
	rebuilds int
	inserts  int
}

// addStats folds this shard's share into the router's aggregate: the
// snapshot's catalog shape, and the live index-lifetime probe and verify
// tallies (read fresh, so they include queries served after the view was
// published).
func (v *shardView) addStats(st *DynamicStats) {
	st.Records += len(v.records)
	st.Live += v.live
	st.Dead += len(v.records) - v.live
	st.Segments += len(v.segs)
	st.Rebuilds += v.rebuilds
	st.Inserts += v.inserts
	st.DenseKeys += v.base.inv.DenseKeys()
	st.SparseKeys += v.base.inv.SparseKeys()
	st.ProbePostings += v.sh.probePostings.Load()
	st.ProbeBitsetTokens += v.sh.probeBitsetTokens.Load()
	st.ProbeSliceTokens += v.sh.probeSliceTokens.Load()
	st.VerifiedCandidates += v.sh.verifyVerified.Load()
	st.PrunedByBound += v.sh.verifyPruned.Load()
	st.MemoHits += v.sh.verifyMemoHits.Load()
	st.BuildTime = max(st.BuildTime, v.base.BuildTime)
}

// record returns the record with the given stable ID, if it is live in this
// snapshot.
func (v *shardView) record(id int) (strutil.Record, bool) {
	// Positions are writer state, so scan is by stable ID; the method is a
	// convenience for serving layers, not a hot path.
	for pos := range v.records {
		if v.records[pos].ID == id && v.alive(pos) {
			return v.records[pos], true
		}
	}
	return strutil.Record{}, false
}

// alive reports whether the record at a position is not tombstoned in this
// snapshot.
func (v *shardView) alive(pos int) bool {
	return v.dead[pos>>6]&(1<<(uint(pos)&63)) == 0
}

// appendLive appends the snapshot's live records, in position order.
func (v *shardView) appendLive(out []strutil.Record) []strutil.Record {
	for pos := range v.records {
		if v.alive(pos) {
			out = append(out, v.records[pos])
		}
	}
	return out
}

// scratch borrows a probe scratch from the shard-wide pool, its arena sized
// to this snapshot's record count.
func (v *shardView) scratch() *probeScratch {
	return scratchFromPool(&v.sh.pool, len(v.records))
}

// candidatesRecord runs the count filter for one probe signature across the
// base index and every delta segment, returning the positions of live
// records whose overlap reached tau (aliasing the accumulator arena, valid
// until the next use of sc) and the filter tally, which it also folds into
// the shard's cumulative counters. tau is the request's planned overlap
// constraint — any value in [1, build-τ] is sound against the build-time
// indexed signatures.
func (v *shardView) candidatesRecord(sig pebble.Signature, tau int, sc *probeScratch) ([]int32, filterTally) {
	cands, tally := countFilterRecord(v.base.inv, v.segs, v.dead, sig, tau, v.base.inv.Records(), sc)
	v.sh.noteProbe(tally)
	return cands, tally
}

// lazyPrepared derives the prepared verification record of a query on first
// use and shares it across consumers — the sharded fan-out hands one to
// every shard, so the query is prepared at most once per request and not at
// all when no shard yields a candidate.
type lazyPrepared struct {
	once   sync.Once
	calc   *core.Calculator
	tokens []string
	pr     *core.PreparedRecord
}

func (lp *lazyPrepared) get() *core.PreparedRecord {
	lp.once.Do(func() { lp.pr = lp.calc.Prepare(lp.tokens) })
	return lp.pr
}

// minParallelVerify is the candidate count below which a per-query
// verification request ignores QueryOpts.Workers: spawning goroutines for a
// handful of candidates costs more than it saves.
const minParallelVerify = 64

// floorTracker is the shared rising floor of one top-k operation: the best
// k-th-place similarity any participant (verify worker or shard) has proven
// so far, maintained as a CAS-max over float bits. Every full k-heap's root
// lower-bounds the global k-th best match, so a candidate whose upper bound
// sits below the tracker can be skipped without changing the result.
// Similarities are non-negative, so the float ordering matches the unsigned
// bit ordering and the zero value is a no-op floor.
type floorTracker struct {
	bits atomic.Uint64
}

func (f *floorTracker) floor() float64 {
	return math.Float64frombits(f.bits.Load())
}

func (f *floorTracker) raise(v float64) {
	if v <= 0 {
		return
	}
	nb := math.Float64bits(v)
	for {
		cur := f.bits.Load()
		if math.Float64frombits(cur) >= v {
			return
		}
		if f.bits.CompareAndSwap(cur, nb) {
			return
		}
	}
}

// orderByUpperBound fills sc.ubs with the candidates paired with their O(1)
// partition-size upper bound, ordered best-first (ties by position for
// determinism). Verifying in this order lets the scheduler stop at the first
// candidate whose bound falls under the rising floor: all later bounds are
// no larger.
func (v *shardView) orderByUpperBound(sc *probeScratch, cands []int32, pq *core.PreparedRecord) []candUB {
	ubs := sc.ubs[:0]
	for _, r := range cands {
		ubs = append(ubs, candUB{r: r, ub: core.SizeRatioUpper(v.prepared[r], pq)})
	}
	sc.ubs = ubs
	slices.SortFunc(ubs, func(a, b candUB) int {
		if a.ub != b.ub {
			if a.ub > b.ub {
				return -1
			}
			return 1
		}
		if a.r != b.r {
			if a.r < b.r {
				return -1
			}
			return 1
		}
		return 0
	})
	return ubs
}

// verifyCandidatesParallel verifies the candidates across qo.Workers workers
// with one lazily built similarity scratch each, feeding every confirmed
// match to sink. sink is called from worker w only (no synchronisation
// needed on per-worker accumulators); the error is the context error when
// the run was cut short. The returned tally folds the workers' verify
// counters.
func (v *shardView) verifyCandidatesParallel(ctx context.Context, cands []int32, pq *core.PreparedRecord, theta float64, workers int, sink func(w int, m QueryMatch)) (verifyTally, error) {
	scratches := make([]*core.Scratch, workers)
	noMemo := v.sh.opts.NoVerifyMemo
	err := parallelForWorkersCtx(ctx, len(cands), workers, func(w, i int) {
		wsc := scratches[w]
		if wsc == nil {
			wsc = core.NewScratch()
			wsc.DisableMemo = noMemo
			scratches[w] = wsc
		}
		r := cands[i]
		if val, ok := v.sh.calc.VerifyPrepared(v.prepared[r], pq, theta, wsc); ok {
			sink(w, QueryMatch{Record: v.records[r].ID, Similarity: val})
		}
	})
	var vt verifyTally
	for _, wsc := range scratches {
		vt.addScratch(wsc)
	}
	return vt, err
}

// verifyTopKParallel is the rising-floor analogue of verifyCandidatesParallel
// for top-k requests: candidates arrive in upper-bound order, every worker
// keeps its own k-bounded heap in heaps[w], and the shared tracker carries
// the best proven floor across workers (and shards). A candidate is skipped
// when its bound sits below the live floor minus the verify slack — by then
// k matches at least that good are known to exist, so the skip is exact.
func (v *shardView) verifyTopKParallel(ctx context.Context, ubs []candUB, pq *core.PreparedRecord, theta float64, k, workers int, ft *floorTracker, heaps []topKHeap) (verifyTally, error) {
	scratches := make([]*core.Scratch, workers)
	noMemo := v.sh.opts.NoVerifyMemo
	var pruned atomic.Int64
	err := parallelForWorkersCtx(ctx, len(ubs), workers, func(w, i int) {
		wsc := scratches[w]
		if wsc == nil {
			wsc = core.NewScratch()
			wsc.DisableMemo = noMemo
			scratches[w] = wsc
		}
		h := &heaps[w]
		floor := theta
		if f := ft.floor(); f > floor {
			floor = f
		}
		if len(h.entries) == k {
			if hf := h.entries[0].Similarity; hf > floor {
				floor = hf
			}
		}
		if ubs[i].ub < floor-core.BoundSlack {
			pruned.Add(1)
			return
		}
		r := ubs[i].r
		// floor, not theta: a candidate below the floor cannot enter any
		// final top-k, and one exactly at it still passes (ok is ≥).
		if val, ok := v.sh.calc.VerifyPrepared(v.prepared[r], pq, floor, wsc); ok {
			h.offer(QueryMatch{Record: v.records[r].ID, Similarity: val}, k)
			if len(h.entries) == k {
				ft.raise(h.entries[0].Similarity)
			}
		}
	})
	var vt verifyTally
	for _, wsc := range scratches {
		vt.addScratch(wsc)
	}
	vt.pruned += pruned.Load()
	return vt, err
}

// probeRecordPrepared is this shard's share of a threshold probe: the count
// filter and verification for a ready-made probe signature, its planned
// overlap constraint and a lazily shared prepared query. Results are
// unordered (the router merges every shard's results, then sorts once). ex
// accumulates the observed candidate count and verification wall time for the
// planner's feedback loop (the fan-out hands one ex to every shard).
func (v *shardView) probeRecordPrepared(ctx context.Context, sig pebble.Signature, tau int, lp *lazyPrepared, qo QueryOpts, ex *planner.Exec) ([]QueryMatch, error) {
	theta := v.sh.opts.thetaFor(qo)
	sc := v.scratch()
	cands, _ := v.candidatesRecord(sig, tau, sc)
	ex.Candidates.Add(int64(len(cands)))
	var out []QueryMatch
	var err error
	var vt verifyTally
	if len(cands) > 0 {
		verifyStart := time.Now()
		defer func() { // the verify loop has several exits; one timer covers all
			ex.VerifyNs.Add(time.Since(verifyStart).Nanoseconds())
			ex.Pruned.Add(vt.pruned)
			v.sh.noteVerify(vt)
		}()
		pq := lp.get()
		if qo.Workers > 1 && len(cands) >= minParallelVerify {
			outs := make([][]QueryMatch, qo.Workers)
			vt, err = v.verifyCandidatesParallel(ctx, cands, pq, theta, qo.Workers, func(w int, m QueryMatch) {
				outs[w] = append(outs[w], m)
			})
			if err == nil {
				for _, part := range outs {
					out = append(out, part...)
				}
			}
		} else {
			sim := sc.simScratch()
			sim.DisableMemo = v.sh.opts.NoVerifyMemo
			before := sim.Stats
			for i, r := range cands {
				if i%ctxCheckStride == 0 && ctx.Err() != nil {
					err = ctx.Err()
					break
				}
				if val, ok := v.sh.calc.VerifyPrepared(v.prepared[r], pq, theta, sim); ok {
					out = append(out, QueryMatch{Record: v.records[r].ID, Similarity: val})
				}
			}
			// The sim scratch is pooled, so its counters span operations;
			// diff against the snapshot for this probe's share.
			vt.verified = sim.Stats.Verified - before.Verified
			vt.pruned = sim.Stats.PrunedByBound - before.PrunedByBound
			vt.memoHits = sim.Stats.MemoHits - before.MemoHits
		}
	}
	sc.release(&v.sh.pool)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// queryTopKPrepared runs the thresholded scan and bounded-heap verification
// for a ready-made signature and lazily shared prepared query, returning the
// unsorted heap (the router folds every shard's heap together before
// sorting once). With qo.Workers > 1 each worker keeps its own
// k-bounded heap and the heaps are folded at the end — sound because the
// top k of the union is contained in the union of per-worker top k's.
//
// Unless Options.NoVerifyPrune is set, candidates are verified in descending
// order of their O(1) similarity upper bound against a rising floor: the
// larger of θ, this scan's heap root once full, and the shared tracker ft
// (which carries the best floor observed by concurrent workers and sibling
// shards). A candidate whose bound falls below the floor — and, in the
// ordered sequential scan, every candidate after it — is provably outside
// the final top k, so the pruned scan returns bit-identical results.
func (v *shardView) queryTopKPrepared(ctx context.Context, sig pebble.Signature, tau int, lp *lazyPrepared, k int, qo QueryOpts, ex *planner.Exec, ft *floorTracker) (topKHeap, error) {
	theta := v.sh.opts.thetaFor(qo)
	sc := v.scratch()
	cands, _ := v.candidatesRecord(sig, tau, sc)
	ex.Candidates.Add(int64(len(cands)))
	var heap topKHeap
	var err error
	var vt verifyTally
	if len(cands) > 0 {
		verifyStart := time.Now()
		defer func() {
			ex.VerifyNs.Add(time.Since(verifyStart).Nanoseconds())
			ex.Pruned.Add(vt.pruned)
			v.sh.noteVerify(vt)
		}()
		pq := lp.get()
		prune := !v.sh.opts.NoVerifyPrune
		switch {
		case qo.Workers > 1 && len(cands) >= minParallelVerify && prune:
			heaps := make([]topKHeap, qo.Workers)
			ubs := v.orderByUpperBound(sc, cands, pq)
			vt, err = v.verifyTopKParallel(ctx, ubs, pq, theta, k, qo.Workers, ft, heaps)
			if err == nil {
				for _, h := range heaps {
					for _, m := range h.entries {
						heap.offer(m, k)
					}
				}
			}
		case qo.Workers > 1 && len(cands) >= minParallelVerify:
			heaps := make([]topKHeap, qo.Workers)
			vt, err = v.verifyCandidatesParallel(ctx, cands, pq, theta, qo.Workers, func(w int, m QueryMatch) {
				heaps[w].offer(m, k)
			})
			if err == nil {
				// The fold is O(workers·k·log k); a cancelled request skips
				// it — the result is discarded anyway.
				for _, h := range heaps {
					for _, m := range h.entries {
						heap.offer(m, k)
					}
				}
			}
		case prune:
			sim := sc.simScratch()
			sim.DisableMemo = v.sh.opts.NoVerifyMemo
			before := sim.Stats
			ubs := v.orderByUpperBound(sc, cands, pq)
			for i := range ubs {
				if i%ctxCheckStride == 0 && ctx.Err() != nil {
					err = ctx.Err()
					break
				}
				floor := theta
				if f := ft.floor(); f > floor {
					floor = f
				}
				if len(heap.entries) == k {
					if hf := heap.entries[0].Similarity; hf > floor {
						floor = hf
					}
				}
				if ubs[i].ub < floor-core.BoundSlack {
					// Bounds only shrink from here (ubs is sorted) and the
					// floor only rises: the whole tail is pruned.
					vt.pruned += int64(len(ubs) - i)
					break
				}
				r := ubs[i].r
				if val, ok := v.sh.calc.VerifyPrepared(v.prepared[r], pq, floor, sim); ok {
					heap.offer(QueryMatch{Record: v.records[r].ID, Similarity: val}, k)
					if len(heap.entries) == k {
						ft.raise(heap.entries[0].Similarity)
					}
				}
			}
			vt.verified += sim.Stats.Verified - before.Verified
			vt.pruned += sim.Stats.PrunedByBound - before.PrunedByBound
			vt.memoHits += sim.Stats.MemoHits - before.MemoHits
		default:
			sim := sc.simScratch()
			sim.DisableMemo = v.sh.opts.NoVerifyMemo
			before := sim.Stats
			for i, r := range cands {
				if i%ctxCheckStride == 0 && ctx.Err() != nil {
					err = ctx.Err()
					break
				}
				if val, ok := v.sh.calc.VerifyPrepared(v.prepared[r], pq, theta, sim); ok {
					heap.offer(QueryMatch{Record: v.records[r].ID, Similarity: val}, k)
				}
			}
			vt.verified = sim.Stats.Verified - before.Verified
			vt.pruned = sim.Stats.PrunedByBound - before.PrunedByBound
			vt.memoHits = sim.Stats.MemoHits - before.MemoHits
		}
	}
	sc.release(&v.sh.pool)
	if err != nil {
		return topKHeap{}, err
	}
	return heap, nil
}

// topKHeap is a bounded min-heap on similarity (ties broken towards keeping
// the smaller record ID), so the root is always the weakest retained match.
type topKHeap struct {
	entries []QueryMatch
}

// sorted returns the retained matches ordered by descending similarity with
// ascending-ID ties — the result order of QueryTopKCtx. The heap is consumed.
func (h *topKHeap) sorted() []QueryMatch {
	out := h.entries
	sort.Slice(out, func(a, b int) bool {
		if out[a].Similarity != out[b].Similarity {
			return out[a].Similarity > out[b].Similarity
		}
		return out[a].Record < out[b].Record
	})
	return out
}

// less orders the heap: the root must be the entry to evict first, i.e. the
// lowest similarity, and among equals the largest record ID.
func (h *topKHeap) less(a, b int) bool {
	ea, eb := h.entries[a], h.entries[b]
	if ea.Similarity != eb.Similarity {
		return ea.Similarity < eb.Similarity
	}
	return ea.Record > eb.Record
}

func (h *topKHeap) offer(m QueryMatch, k int) {
	if len(h.entries) < k {
		h.entries = append(h.entries, m)
		for i := len(h.entries) - 1; i > 0; {
			parent := (i - 1) / 2
			if !h.less(i, parent) {
				break
			}
			h.entries[i], h.entries[parent] = h.entries[parent], h.entries[i]
			i = parent
		}
		return
	}
	// Full: replace the root if m beats it, then sift down.
	root := h.entries[0]
	if m.Similarity < root.Similarity ||
		(m.Similarity == root.Similarity && m.Record > root.Record) {
		return
	}
	h.entries[0] = m
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.entries) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.entries) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.entries[i], h.entries[smallest] = h.entries[smallest], h.entries[i]
		i = smallest
	}
}

package join

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// PlanMode, PlanAuto and PlanFixed are kept only because
// benchmark/engine.go:162 writes join.QueryOpts{Plan: join.PlanFixed}; the
// values select nothing.
type PlanMode int

const (
	PlanAuto PlanMode = iota
	PlanFixed
)

// ShardedIndex is the mutable, concurrently servable join index — the only
// one: a router over N ≥ 1 private shards, every request taking the same
// fan-out path whatever N is. Records are routed by hashing their stable ID;
// every shard has its own writer mutex, snapshot view, tombstone bitmap and
// rebuild thresholds, so inserts and removes on different shards proceed in
// parallel and a threshold-crossing rebuild compacts one shard while the
// other N−1 keep serving unchanged. With N = 1 the same holds with one box in
// the diagram: the router still owns the order and the cache, and the single
// shard still only compacts.
//
// All shards share one global pebble frequency order (pebble.Order), which
// is what keeps signatures comparable across shards: signature selection and
// the ≥τ-overlap count filter depend only on the order, so a record's
// signature is the same whichever shard holds it, and the union of per-shard
// probe results is exactly the one-shard result. InternDynamic calls from
// concurrently mutating shards serialize on the order's own small mutex,
// decoupled from the shard writer locks. A consequence of sharing is that
// per-shard rebuilds never re-freeze the order — the dynamic region is
// append-only between router re-freezes and frequency selectivity degrades
// with it; what a shard rebuild restores is a dense compacted base (segments
// merged, tombstones dropped).
//
// Because per-shard rebuilds keep the shared order, its dynamic region
// would otherwise grow for the router's lifetime (degrading filter
// selectivity and inflating every shard's dense posting-array universe).
// A rare *global re-finalize* bounds that: once the dynamic region grows
// as large as the frozen prefix, the router takes every shard's writer
// lock, freezes a fresh order over all live records and rebuilds every
// shard under it — the one deliberate stop-the-world pause for writers,
// amortized over at least a doubling of the key universe. Generations make
// it safe for concurrent readers: every shard view is stamped with the
// order generation of its base and Snapshot only returns
// single-generation view sets, so a fan-out query never mixes signatures
// of one order with posting lists of another; while the re-finalize is in
// flight, readers are served the cached pre-refreeze snapshot instead of
// blocking.
//
// One core.PreparedCache is shared across all shards: delete/re-insert
// churn routes a re-ingested record by its new ID, which may hash to a
// different shard, and a per-shard cache would miss there.
type ShardedIndex struct {
	joiner *Joiner
	opts   Options
	tau    int
	// dopts are the thresholds every shard's compaction trigger reads, with
	// the defaults filled in.
	dopts  DynamicOptions
	shards []*shard
	cache  *core.PreparedCache
	// dict is the index's one segment dictionary, shared by every shard, the
	// cache and restore; rebuilds and re-freezes pass prepared records through
	// unchanged, so it lives exactly as long as the index.
	dict *core.SegDict

	// gen is the current order generation, replaced wholesale by a global
	// re-finalize or AdoptOrder; refreezeMu serializes those. lastView is
	// the freshest generation-consistent snapshot, refreshed at the start
	// of every re-freeze (under all writer locks, so it is exactly the
	// pre-refreeze state) — readers are served from it while the
	// re-freeze runs instead of blocking.
	gen            atomic.Pointer[orderGen]
	refreezeMu     sync.Mutex
	refreezes      int             // guarded by refreezeMu
	refreezePauses []time.Duration // guarded by refreezeMu; whole-refreeze writer stalls
	noRefreeze     atomic.Bool     // set by AdoptOrder/DisableRefreeze
	lastView       atomic.Pointer[ShardedView]

	mu     sync.Mutex // guards nextID only; never held during shard work
	nextID int
}

// orderGen is one immutable generation of the shared global order: the
// order itself, the selector over it, and the probe table of the index's
// dictionary under it — the pebble IDs of every entry the dictionary held
// when the generation was made, which a probe signs from (sign). Every
// shard's base records the generation it was built under, and only install
// makes a new one, so two bases share an order exactly when they point at the
// same orderGen.
type orderGen struct {
	order  *pebble.Order
	sel    *pebble.Selector
	probes *pebble.ProbeTable
}

// sign returns the IDs of a probe's signature under the generation's order:
// a probe prepared against the index's dictionary (PrepareProbe), signed from
// the probe table where it holds the probe's segments and by key elsewhere.
func (g *orderGen) sign(pq *core.PreparedRecord, method pebble.Method, tau int) []uint32 {
	return g.sel.SignProbe(pq, g.probes, method, tau)
}

// outgrown reports whether the order's append-only dynamic region has grown
// as large as its frozen prefix — the key universe at least doubled since
// the last freeze, so a stop-the-world re-freeze is amortized over that
// growth.
func (g *orderGen) outgrown() bool {
	return g.order.DynamicCount() >= max(g.order.FrozenKeys(), 1)
}

// newRouter creates a ShardedIndex without shards: the options, the
// defaulted DynamicOptions, and the shared dictionary and cache.
func (j *Joiner) newRouter(opts Options, dopts DynamicOptions) *ShardedIndex {
	if dopts.rebuildFraction <= 0 {
		dopts.rebuildFraction = defaultRebuildFraction
	}
	if dopts.maxSegments <= 0 {
		dopts.maxSegments = defaultMaxSegments
	}
	dopts.maxSegments = min(dopts.maxSegments, maxChainSegments-1)
	return &ShardedIndex{joiner: j, opts: opts, tau: opts.tau(), dopts: dopts, dict: core.NewSegDict(),
		cache: core.NewPreparedCache(core.DefaultPreparedCacheSize)}
}

// BuildShardedIndex builds the mutable index over the records, partitioned
// across the given number of shards (≤ 0 selects GOMAXPROCS). The join
// Options (θ, τ, filter method) are fixed for the life of the index;
// DynamicOptions apply to every shard (thresholds are evaluated against
// per-shard sizes, so rebuild work is bounded by the shard).
func (j *Joiner) BuildShardedIndex(records []strutil.Record, shards int, opts Options, dopts DynamicOptions) *ShardedIndex {
	start := time.Now()
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return j.assemble(records, nil, shards, opts, dopts, j.orderOf, start)
}

// freezer turns an index's records, prepared against its dictionary d, into
// the order they are signed under and its IDs by key number: a counted order
// (Joiner.orderOf) for a build or a re-freeze, a given one for a restore or
// AdoptOrder.
type freezer func(d *core.SegDict, live ...[]*core.PreparedRecord) *pebble.KeyIDs

// assemble makes a new index over the records, the one path of a build and a
// restore: it routes them to their shards — tombstoning those whose bit is
// set in dead, a bitmap over the records' positions (nil for none) — and
// sets the next ID past the largest. One preparation of the corpus against
// the index's dictionary, shard after shard, feeds freeze and every shard's
// signatures, and install adopts the shards under the order freeze returns.
// A counted order spans the whole corpus, so document frequencies — and
// therefore signatures — do not depend on the shard count.
func (j *Joiner) assemble(records []strutil.Record, dead []uint64, shards int, opts Options, dopts DynamicOptions, freeze freezer, start time.Time) *ShardedIndex {
	sx := j.newRouter(opts, dopts)
	parts := make([]part, shards)
	for i, rec := range records {
		p := &parts[shardOf(rec.ID, shards)]
		p.records = append(p.records, rec)
		if dead != nil && dead[i>>6]&(1<<(uint(i)&63)) != 0 {
			p.deadIDs = append(p.deadIDs, rec.ID)
		}
		sx.nextID = max(sx.nextID, rec.ID+1)
	}
	prepared := make([][]*core.PreparedRecord, shards)
	for w := range parts {
		parts[w].prepared = prepareRecords(parts[w].records, sx.dict, j.calc.PrepareIn)
		prepared[w] = parts[w].prepared
	}
	sx.install(freeze(sx.dict, prepared...), parts, start)
	return sx
}

// part is one shard's share of an install: positional records and their
// prepared verification records, and the stable IDs of those that are
// tombstoned.
type part struct {
	records  []strutil.Record
	prepared []*core.PreparedRecord
	deadIDs  []int
}

// install is the one assembly of a router's shards, shared by a build, a
// restore, a one-shot join and a re-freeze: it makes a generation of the
// order ids are of — building, from ids, the probe table of every entry the
// dictionary held when they were numbered — and, shard by shard in
// parallel, signs a part's records through that table, adopts the part as
// the shard's base under that generation, re-applies its tombstones and
// publishes the shard's view; then the generation becomes the router's. ids is dropped with the call. The shards
// are created on the first install; a re-freeze holds every writer lock
// across it. start is when the caller began the work the bases' build time
// reports.
func (sx *ShardedIndex) install(ids *pebble.KeyIDs, parts []part, start time.Time) {
	order := ids.Order()
	g := &orderGen{order: order, sel: pebble.NewSelector(sx.joiner.gen, order, sx.opts.Theta), probes: ids.ProbeTable()}
	if sx.shards == nil {
		sx.shards = make([]*shard, len(parts))
		for w := range sx.shards {
			sx.shards[w] = &shard{sx: sx}
		}
	}
	parallelFor(len(parts), len(parts), func(w int) {
		p, sh := &parts[w], sx.shards[w]
		sh.adoptBaseLocked(g, p.records, p.prepared, selectSignatures(p.prepared, g, sx.opts.Method, sx.tau), start)
		for _, id := range p.deadIDs {
			sh.tombstoneLocked(id, sh.positions[id])
		}
		sh.publishLocked()
	})
	sx.gen.Store(g)
}

// shardOf routes a stable record ID to its shard. IDs are allocated
// sequentially by the router, so a multiplicative hash (Fibonacci hashing)
// spreads both sequential ingest and arbitrary survivor sets evenly without
// letting any stride pattern alias a shard.
func shardOf(id, shards int) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15 >> 33) % uint64(shards))
}

// Shards returns the number of partitions.
func (sx *ShardedIndex) Shards() int { return len(sx.shards) }

// InsertBatch appends records to the catalog and returns their stable IDs
// (assigned centrally, so they are unique across shards). The batch is
// grouped by destination shard and the groups are inserted concurrently,
// each taking its shard's writer lock exactly once; shards untouched by the
// batch never block, and neither do readers anywhere.
func (sx *ShardedIndex) InsertBatch(raw []string) []int {
	if len(raw) == 0 {
		return nil
	}
	sx.mu.Lock()
	startID := sx.nextID
	sx.nextID += len(raw)
	sx.mu.Unlock()

	ids := make([]int, len(raw))
	for i := range ids {
		ids[i] = startID + i
	}
	sx.insertRouted(ids, raw)
	return ids
}

// insertRouted inserts the records under the given stable IDs, one
// concurrent group per destination shard, and then checks the re-freeze
// trigger (inserts are the only source of new keys).
func (sx *ShardedIndex) insertRouted(ids []int, raw []string) {
	groups := make([][]strutil.Record, len(sx.shards))
	for i, s := range raw {
		w := shardOf(ids[i], len(sx.shards))
		groups[w] = append(groups[w], strutil.NewRecord(ids[i], s))
	}
	sx.runShards(func(w int) bool { return len(groups[w]) > 0 }, func(w int) {
		sx.shards[w].insertRecords(groups[w])
	})
	sx.maybeRefreeze()
}

// maybeRefreeze triggers a global re-finalize of the shared order once its
// dynamic region has outgrown the frozen prefix: every shard's writer lock
// is held while a fresh order is frozen over all live records (true document
// frequencies, empty dynamic region) and every shard rebuilt under it.
func (sx *ShardedIndex) maybeRefreeze() {
	if sx.noRefreeze.Load() || !sx.gen.Load().outgrown() {
		return
	}
	sx.refreezeMu.Lock()
	defer sx.refreezeMu.Unlock()
	// Re-check against the current generation: a concurrent InsertBatch may
	// have completed the refreeze while this one waited on the mutex.
	if sx.noRefreeze.Load() || !sx.gen.Load().outgrown() {
		return
	}
	start := time.Now()
	sx.refreezeLocked(sx.joiner.orderOf)
	// The whole stop-the-world window — live scans, order freeze and every
	// shard rebuild — is one writer stall; log it whole so the pause
	// percentiles cannot understate the one corpus-sized pause the design
	// admits.
	sx.refreezePauses = appendPause(sx.refreezePauses, time.Since(start))
}

// refreezeLocked is the index's one stop-the-world step, shared by the
// self-triggered global re-finalize and AdoptOrder; the caller holds
// refreezeMu. Every shard's writer lock is held while the live records are
// collected, freeze turns them — prepared against the index's dictionary —
// into the next frozen order and its IDs by key number, and install
// rebuilds every shard under it from the prepared records the shards hold,
// so a re-freeze segments nothing and signs every record through the new
// generation's probe table. Readers never stall: with all writer locks held
// the current per-shard views are the exact pre-refreeze state and
// necessarily one generation, so they are cached for Snapshot to serve until
// the new generation is fully published.
func (sx *ShardedIndex) refreezeLocked(freeze freezer) {
	defer sx.lockShards()()
	start := time.Now()
	pre := make([]*shardView, len(sx.shards))
	// One live scan serves both the order build and the per-shard base
	// rebuilds.
	parts := make([]part, len(sx.shards))
	live := make([][]*core.PreparedRecord, len(sx.shards))
	for w, sh := range sx.shards {
		pre[w] = sh.snapshot()
		parts[w].records, live[w], _ = sh.liveLocked()
		parts[w].prepared = live[w]
		sh.rebuilds++
	}
	sx.lastView.Store(&ShardedView{sx: sx, gen: sx.gen.Load(), views: pre})
	sx.install(freeze(sx.dict, live...), parts, start)
	// The pre-refreeze view has served its purpose; dropping it releases
	// the superseded generation's bases for collection (readers that
	// already hold it keep it alive only as long as they keep it).
	sx.lastView.Store(nil)
	sx.refreezes++
}

// lockShards takes every shard's writer lock — one atomic cut across the
// index — and returns the function that releases them.
func (sx *ShardedIndex) lockShards() (unlock func()) {
	for _, sh := range sx.shards {
		sh.mu.Lock()
	}
	return func() {
		for _, sh := range sx.shards {
			sh.mu.Unlock()
		}
	}
}

// Refreezes returns the number of global re-freezes of the shared order.
func (sx *ShardedIndex) Refreezes() int {
	sx.refreezeMu.Lock()
	defer sx.refreezeMu.Unlock()
	return sx.refreezes
}

// Remove tombstones the record with the given stable ID on its shard,
// reporting whether it was present and live.
func (sx *ShardedIndex) Remove(id int) bool {
	return sx.shards[shardOf(id, len(sx.shards))].removeBatch([]int{id})[0]
}

// RemoveBatch tombstones every given stable ID, reporting per ID whether it
// was present and live. IDs are grouped by shard and the groups removed
// concurrently, each taking its shard's writer lock exactly once.
func (sx *ShardedIndex) RemoveBatch(ids []int) []bool {
	if len(ids) == 0 {
		return nil
	}
	type group struct{ ids, at []int }
	groups := make([]group, len(sx.shards))
	for i, id := range ids {
		g := &groups[shardOf(id, len(sx.shards))]
		g.ids, g.at = append(g.ids, id), append(g.at, i)
	}
	out := make([]bool, len(ids))
	sx.runShards(func(w int) bool { return len(groups[w].ids) > 0 }, func(w int) {
		for i, ok := range sx.shards[w].removeBatch(groups[w].ids) {
			out[groups[w].at[i]] = ok
		}
	})
	return out
}

// runShards runs fn(w) for every shard a batch touches (used reports which),
// concurrently when there are several, inline when there is one — a small
// mutation never pays goroutine spawns for uninvolved shards.
func (sx *ShardedIndex) runShards(used func(w int) bool, fn func(w int)) {
	var ws []int
	for w := range sx.shards {
		if used(w) {
			ws = append(ws, w)
		}
	}
	parallelFor(len(ws), len(ws), func(i int) { fn(ws[i]) })
}

// Snapshot captures every shard's current view into one ShardedView. Each
// per-shard view is individually consistent and immutable; the combination
// is not a single atomic cut across shards (a concurrent InsertBatch
// spanning several shards may be partially visible), which is the standard
// relaxation partitioned serving systems make in exchange for lock-free
// writes on disjoint shards. What IS guaranteed is order-generation
// consistency: all N views belong to one generation of the shared order,
// so a fan-out query never mixes signatures of one order with posting
// lists of another. While a re-freeze is publishing the next generation,
// Snapshot serves the cached pre-refreeze view — exact as of the moment
// every writer stalled — so readers never block on the stop-the-world
// rebuild.
func (sx *ShardedIndex) Snapshot() *ShardedView {
	for {
		g := sx.gen.Load()
		views := make([]*shardView, len(sx.shards))
		consistent := true
		for w, sh := range sx.shards {
			views[w] = sh.snapshot()
			if views[w].gen != g {
				consistent = false
				break
			}
		}
		if consistent {
			// Construction is deliberately trivial — Snapshot sits on the
			// per-query serving path, so the stats aggregation (which touches
			// the shared cache mutex) is deferred to the first Stats call.
			return &ShardedView{sx: sx, gen: g, views: views}
		}
		if sx.gen.Load() != g {
			// The re-freeze completed between loading g and reading the
			// shard views; retry against the new generation.
			continue
		}
		// A re-freeze is mid-flight: serve the pre-refreeze snapshot it
		// cached under all writer locks. (nil only before the first
		// re-freeze, when every view is still generation-consistent, so
		// this branch cannot be reached then — the barrier is a safety net.)
		if sv := sx.lastView.Load(); sv != nil {
			return sv
		}
		sx.refreezeMu.Lock()
		sx.refreezeMu.Unlock() //nolint:staticcheck // empty critical section: barrier only
	}
}

// Stats returns the statistics of a fresh snapshot.
func (sx *ShardedIndex) Stats() DynamicStats { return sx.Snapshot().Stats() }

// RebuildPauses returns every writer stall so far: the per-shard rebuild
// durations (shard-local stalls; with N shards the expected maximum is the
// full-corpus rebuild pause divided by N) plus one entry per global
// re-finalize covering its whole stop-the-world window, so the rare
// corpus-sized pause shows up in the percentiles rather than hiding behind
// its per-shard components.
func (sx *ShardedIndex) RebuildPauses() []time.Duration {
	var out []time.Duration
	for _, sh := range sx.shards {
		out = append(out, sh.rebuildPauses()...)
	}
	sx.refreezeMu.Lock()
	out = append(out, sx.refreezePauses...)
	sx.refreezeMu.Unlock()
	return out
}

// ShardedView is one fan-out snapshot: per-shard immutable views of a
// single order generation and the statistics captured on first request.
// All methods are read-only and safe for unbounded concurrency.
type ShardedView struct {
	sx    *ShardedIndex
	gen   *orderGen // the views' shared-order generation
	views []*shardView

	statsOnce sync.Once
	stats     DynamicStats
}

// Stats aggregates the snapshot's statistics, computed once on first call
// and immutable afterwards (the per-shard components were fixed when the
// snapshot was taken; the global key split, the cache counters and the
// cumulative probe tallies are read on that first call). Catalog, segment,
// rebuild, insert and tally counts are summed over the shards; the
// interned-key split, the dictionary length and the cache counters are global
// (shared order, shared dictionary, shared cache) and reported once.
func (sv *ShardedView) Stats() DynamicStats {
	sv.statsOnce.Do(func() {
		sx := sv.sx
		st := DynamicStats{
			Shards:           len(sv.views),
			FrozenKeys:       sv.gen.order.FrozenKeys(),
			DynamicKeys:      sv.gen.order.DynamicCount(),
			Theta:            sx.opts.Theta,
			Tau:              sx.tau,
			DistinctSegments: sx.dict.Len(),
			DistinctGrams:    sx.dict.NumGrams(),
		}
		for _, v := range sv.views {
			v.addStats(&st)
		}
		if sx.cache != nil {
			st.CacheHits, st.CacheMisses = sx.cache.Stats()
		}
		sv.stats = st
	})
	return sv.stats
}

// Live returns the snapshot's live records across all shards, in ascending
// stable-ID order. The slice is freshly allocated; the records themselves
// are shared and immutable.
func (sv *ShardedView) Live() []strutil.Record {
	var out []strutil.Record
	for _, v := range sv.views {
		out = v.appendLive(out)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// QueryOpts carries per-request overrides of parameters that are otherwise
// fixed when an index is built. The zero value changes nothing.
type QueryOpts struct {
	// Theta overrides the verification threshold for this request; 0 keeps
	// the build-time θ. Values above the build θ are exact (the filter
	// over-admits, verification tightens). Values below it are rejected
	// with ErrThetaBelowBuild: the candidate set is bounded by the
	// build-time filter, so no complete answer exists at a lower threshold.
	Theta float64
	// Plan is accepted and ignored: every request runs the configuration the
	// index was built with. Kept for benchmark/engine.go:162.
	Plan PlanMode
	// ProbeTau (with ProbeMethod) pins this request's probe-side
	// configuration instead of using the build configuration: the request
	// selects its probe signature with ProbeMethod at min(ProbeTau, τ_build)
	// and count-filters at that τ. Any such configuration is sound against
	// the build-time index (τ′ ≤ τ_build only over-admits; verification is
	// exact). 0 runs the build configuration. The pinned-configuration
	// property grid and the benchmark's oracle use this to compare
	// configurations on one index.
	ProbeTau    int
	ProbeMethod pebble.Method
}

// ErrThetaBelowBuild rejects a request whose QueryOpts.Theta is below the θ
// the index was built with. The indexed signatures only guarantee the
// τ-overlap for pairs reaching the build θ, so the filter may drop matches
// between the two thresholds; the index refuses rather than return an
// answer it cannot know to be complete.
var ErrThetaBelowBuild = errors.New("join: requested threshold is below the index's build threshold")

// thetaFor resolves the verification threshold a request runs at.
func (o Options) thetaFor(qo QueryOpts) float64 {
	if qo.Theta > 0 {
		return qo.Theta
	}
	return o.Theta
}

// maxInlineShards is the fan-out width whose per-shard result slots fit
// inside the request itself; wider indexes pay one more allocation.
const maxInlineShards = 4

// request is the state of one single-record request: a threshold probe or a
// top-k query across its shard fan-out, or one probe record of a batch, which
// its worker runs shard after shard and then reuses for the next record. It
// holds the prepared query every shard verifies against, the IDs of the probe
// signature selected from it and its overlap constraint, and per shard the
// matches it found.
type request struct {
	sv  *ShardedView
	pq  *core.PreparedRecord
	ids []uint32 // the probe signature, as countFilterRecord reads it
	tau int
	qo  QueryOpts
	k   int // the k best matches per shard; unboundedK: every match reaching θ
	// limit restricts the count filter to base positions below it — a
	// self-join's probe record, which is itself the record at that position;
	// noLimit otherwise.
	limit int

	// tally and matches belong to the batch loop, whose worker runs a
	// request's shards one after the other: every shard adds its work to
	// *tally when that is set, and builds its result in matches' backing
	// array. A fan-out, whose shards run side by side, leaves both nil.
	tally   *probeTally
	matches []QueryMatch

	wg    sync.WaitGroup
	parts [][]QueryMatch

	partBuf [maxInlineShards][]QueryMatch
}

// serve runs one single-record request against every shard and returns the
// per-shard matches: the query is prepared once, reading the index's
// dictionary without writing it, and signed from that — one signature for
// the whole request (the shards share the order, so one signature is valid
// everywhere).
func (sv *ShardedView) serve(ctx context.Context, tokens []string, k int, qo QueryOpts) ([][]QueryMatch, error) {
	sx := sv.sx
	if qo.Theta > 0 && qo.Theta < sx.opts.Theta {
		return nil, fmt.Errorf("%w: %v < %v", ErrThetaBelowBuild, qo.Theta, sx.opts.Theta)
	}
	method, tau := sx.opts.Method, sx.tau
	if qo.ProbeTau > 0 {
		method, tau = pinnedConfig(qo, sx.tau)
	}
	pq := sx.joiner.calc.PrepareProbe(sx.dict, tokens)
	ids := sv.gen.sign(pq, method, tau)
	rq := &request{sv: sv, pq: pq, ids: ids, tau: tau, qo: qo, k: k, limit: noLimit}
	if n := len(sv.views); n <= maxInlineShards {
		rq.parts = rq.partBuf[:n]
	} else {
		rq.parts = make([][]QueryMatch, n)
	}
	if err := rq.fanout(ctx); err != nil {
		return nil, err
	}
	return rq.parts, nil
}

// fanout runs the request on every shard — shard 0 on the calling goroutine,
// every sibling on its own — so a fan-out of one is a plain call, and returns
// ctx.Err() once every shard is done. That is the whole error contract: a
// shard's only failure is the ctx.Err() its verify loop returns (forCtx), and
// every shard runs under the caller's ctx, so a shard has failed only if ctx
// has ended — and then every sibling sees it too and stops at its next check,
// with no child context to cancel them. Since ctx.Err() never goes back to
// nil, the one read after the wait reports every shard's failure, bare.
func (rq *request) fanout(ctx context.Context) error {
	if n := len(rq.parts); n > 1 {
		rq.wg.Add(n - 1)
		for w := 1; w < n; w++ {
			goPipeline(func() {
				defer rq.wg.Done()
				rq.shard(ctx, w)
			})
		}
	}
	rq.shard(ctx, 0)
	rq.wg.Wait()
	return ctx.Err()
}

// shard is one shard's share of the request. Its error is ctx.Err(), which
// fanout reports.
func (rq *request) shard(ctx context.Context, w int) {
	rq.parts[w], _ = rq.sv.views[w].serve(ctx, rq)
}

// ProbeRecordCtx runs the filter-and-verify pipeline for one tokenised query
// against every shard concurrently and returns the matching live records —
// identified by their stable IDs — in ascending ID order. Verification
// checks ctx between candidates; the first shard to observe the cancelled
// context aborts the whole fan-out and the context error is returned. A
// qo.Theta below the build θ is rejected with ErrThetaBelowBuild. An empty
// token slice returns an empty result without touching any shard (there is
// no zero-signature probe to run).
func (sv *ShardedView) ProbeRecordCtx(ctx context.Context, tokens []string, qo QueryOpts) ([]QueryMatch, error) {
	if len(tokens) == 0 {
		return nil, ctx.Err()
	}
	parts, err := sv.serve(ctx, tokens, unboundedK, qo)
	if err != nil {
		return nil, err
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out = append(out, p...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Record < out[b].Record })
	return out, nil
}

// QueryTopKCtx is ProbeRecordCtx restricted to the k highest-similarity
// matches, ordered by descending similarity (ascending ID on ties). Every
// shard verifies each of its candidates at θ into a bounded min-heap, sharing
// nothing with its siblings, so memory stays O(k) per shard however many
// records clear θ, and the per-shard heaps are folded through one more
// k-bounded heap — sound
// because the global top k under the total order is contained in the union
// of per-shard top k's. An empty token slice or k ≤ 0 returns an empty result
// without touching any shard.
func (sv *ShardedView) QueryTopKCtx(ctx context.Context, tokens []string, k int, qo QueryOpts) ([]QueryMatch, error) {
	if k <= 0 || len(tokens) == 0 {
		return nil, ctx.Err()
	}
	parts, err := sv.serve(ctx, tokens, k, qo)
	if err != nil {
		return nil, err
	}
	merged := topKHeap{entries: parts[0]}
	for _, p := range parts[1:] {
		for _, m := range p {
			merged.offer(m, k)
		}
	}
	return merged.sorted(), nil
}

// pinnedConfig resolves a QueryOpts probe-side override into a sound
// configuration: τ clamps into [1, τ_build] (larger values would demand
// overlap the indexed τ_build-signatures never promise) and the U-Filter
// fixes τ at 1, exactly as a build with that method would.
func pinnedConfig(qo QueryOpts, buildTau int) (pebble.Method, int) {
	tau := qo.ProbeTau
	if tau > buildTau {
		tau = buildTau
	}
	if tau < 1 || qo.ProbeMethod == pebble.UFilter {
		tau = 1
	}
	return qo.ProbeMethod, tau
}

// Probe joins a probe collection against the snapshot: probe signatures and
// prepared records are computed once, and then every probe record is one
// request (probeAll) — the count filter and verification of each shard in
// turn, exactly what ProbeRecordCtx runs for that record. Pair.S carries
// stable record IDs, Pair.T the probe records' IDs; results are sorted by
// (S, T) and independent of the shard count. Stats.ShardCandidates breaks the
// candidate count down per shard (its entries sum to Stats.Candidates), and
// every shard's cumulative counters grow by the work done on that shard; the
// stage durations are the slowest worker's (see Stats).
func (sv *ShardedView) Probe(records []strutil.Record) ([]Pair, Stats) {
	return collectPairs(func(emit func(Pair) bool) Stats {
		stats, _ := sv.probeStream(context.Background(), records, emit)
		return stats
	})
}

// ProbeSeq is the streaming form of Probe: matches are yielded in
// verification-completion order, a probe record's as soon as that record has
// been filtered and verified; a consumer break stops the pipeline, and a ctx
// cancellation stops every worker before surfacing as one final error.
func (sv *ShardedView) ProbeSeq(ctx context.Context, records []strutil.Record) iter.Seq2[Pair, error] {
	return pairSeq(ctx, func(ctx context.Context, emit func(Pair) bool) error {
		_, err := sv.probeStream(ctx, records, emit)
		return err
	})
}

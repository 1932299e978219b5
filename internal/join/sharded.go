package join

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"slices"
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
// every shard has its own writer mutex, tombstone bitmap and rebuild
// thresholds, so inserts and removes on different shards proceed in parallel
// and a threshold-crossing rebuild compacts one shard while the other N−1
// keep serving unchanged. With N = 1 the same holds with one box in the
// diagram: the router still owns the order and the cache, and the single
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
// amortized over at least a doubling of the key universe.
//
// The index publishes one thing: a ShardedView, the order generation and
// every shard's immutable view under it, behind one atomic pointer. A shard
// write swaps its own slot in (publish); a new generation — a build, a
// restore, a re-freeze, AdoptOrder — is stored whole, once, by install. So a
// fan-out query never mixes signatures of one order with posting lists of
// another, and readers never block on a re-freeze: until its one store they
// keep being served the generation before it.
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
	// unchanged. A build, a restore and a one-shot join make it new, and it
	// lives exactly as long as the index; an index PrepareShardedIndexWithIDs
	// starts shares its joiner's HostedDict with every other such index, and
	// it lives as long as the joiner.
	dict *core.SegDict

	// view is the published state (Snapshot). refreezeMu serializes the
	// re-freezes and AdoptOrder, the installs after the build.
	view           atomic.Pointer[ShardedView]
	refreezeMu     sync.Mutex
	refreezes      int             // guarded by refreezeMu
	refreezePauses []time.Duration // guarded by refreezeMu; whole-refreeze writer stalls
	noRefreeze     atomic.Bool     // set by AdoptOrder/DisableRefreeze

	// signed and counted are DynamicStats' Signed and Counted.
	signed, counted atomic.Int64

	lookups sync.Pool // *lookup, the scratch of single-record reads

	mu     sync.Mutex // guards nextID only; never held during shard work
	nextID int
}

// orderGen is one immutable generation of the shared global order: the
// order itself, the selector over it, and the probe table of the index's
// dictionary under it — the pebble IDs of every entry the dictionary held
// when the generation was made, which every record and probe is signed
// from (pebble.Signer). Every
// shard's base records the generation it was built under, and only install
// makes a new one, so two bases share an order exactly when they point at the
// same orderGen.
type orderGen struct {
	order  *pebble.Order
	sel    *pebble.Selector
	probes *pebble.ProbeTable
}

// outgrown reports whether the order's append-only dynamic region has grown
// as large as its frozen prefix — the key universe at least doubled since
// the last freeze, so a stop-the-world re-freeze is amortized over that
// growth.
func (g *orderGen) outgrown() bool {
	return g.order.DynamicCount() >= max(g.order.FrozenKeys(), 1)
}

// newRouter creates a ShardedIndex without shards: the options, the
// defaulted DynamicOptions, the dictionary its records intern into (a new
// one, or the joiner's HostedDict) and its cache.
func (j *Joiner) newRouter(dict *core.SegDict, opts Options, dopts DynamicOptions) *ShardedIndex {
	if dopts.rebuildFraction <= 0 {
		dopts.rebuildFraction = defaultRebuildFraction
	}
	if dopts.maxSegments <= 0 {
		dopts.maxSegments = defaultMaxSegments
	}
	dopts.maxSegments = min(dopts.maxSegments, maxChainSegments-1)
	return &ShardedIndex{joiner: j, opts: opts, tau: opts.tau(), dopts: dopts, dict: dict,
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
	return j.assemble(core.NewSegDict(), records, nil, shards, opts, dopts, start).finish((*ShardedIndex).countedOrder)
}

// freezer turns an index's records, prepared against its dictionary, into
// the order they are signed under and its IDs by key number: a counted order
// (countedOrder) for a build or a re-freeze, a given one for a restore, a
// pending build's install or AdoptOrder.
type freezer func(sx *ShardedIndex, live ...[]*core.PreparedRecord) *pebble.KeyIDs

// countedOrder is the order counted over the records (Joiner.orderOf).
func (sx *ShardedIndex) countedOrder(live ...[]*core.PreparedRecord) *pebble.KeyIDs {
	return sx.countKeys(live...).Freeze()
}

// countKeys counts the keys of the records, prepared against the index's
// dictionary, by key number (Joiner.keyCount), and adds them to the records
// the index has counted (DynamicStats.Counted).
func (sx *ShardedIndex) countKeys(live ...[]*core.PreparedRecord) *pebble.KeyCount {
	for _, coll := range live {
		sx.counted.Add(int64(len(coll)))
	}
	return sx.joiner.keyCount(sx.dict, live...)
}

// build is a new index between the two halves of a build: its records routed
// to their shards and prepared against its dictionary, and nothing frozen or
// signed yet. finish ends it under an order.
type build struct {
	sx    *ShardedIndex
	parts []part
	start time.Time
}

// assemble is the first half of a new index over the records, the one path
// of a build, a restore and a pending build: it routes them to their shards —
// tombstoning those whose bit is set in dead, a bitmap over the records'
// positions (nil for none) — sets the next ID past the largest, and prepares
// the corpus against dict, the index's dictionary, shard after shard.
func (j *Joiner) assemble(dict *core.SegDict, records []strutil.Record, dead []uint64, shards int, opts Options, dopts DynamicOptions, start time.Time) *build {
	sx := j.newRouter(dict, opts, dopts)
	parts := make([]part, shards)
	in := make([][]strutil.Record, shards) // each part's records, tokens and all
	for i, rec := range records {
		w := shardOf(rec.ID, shards)
		in[w] = append(in[w], rec)
		if dead != nil && dead[i>>6]&(1<<(uint(i)&63)) != 0 {
			parts[w].deadIDs = append(parts[w].deadIDs, rec.ID)
		}
		sx.nextID = max(sx.nextID, rec.ID+1)
	}
	for w := range parts {
		// A shard keeps a record's ID and Raw, at exact size; the tokens die
		// with in.
		parts[w].prepared = prepareRecords(in[w], sx.dict, j.calc.PrepareInBuf)
		parts[w].records = storedRecords(in[w])
	}
	return &build{sx: sx, parts: parts, start: start}
}

// prepared returns the build's prepared records, shard by shard.
func (b *build) prepared() [][]*core.PreparedRecord {
	out := make([][]*core.PreparedRecord, len(b.parts))
	for w := range b.parts {
		out[w] = b.parts[w].prepared
	}
	return out
}

// finish is the second half of a build: install adopts the shards under the
// order freeze returns. A counted order spans the whole corpus, so document
// frequencies — and therefore signatures — do not depend on the shard count.
func (b *build) finish(freeze freezer) *ShardedIndex {
	b.sx.install(freeze(b.sx, b.prepared()...), b.parts, b.start)
	return b.sx
}

// part is one shard's share of an install: positional records and their
// prepared verification records, and the stable IDs of those that are
// tombstoned.
type part struct {
	records  []storedRecord
	prepared []*core.PreparedRecord
	deadIDs  []int
}

// install is the one assembly of a router's shards, shared by a build, a
// restore, a one-shot join, a pending build, a re-freeze and AdoptOrder: it
// makes a generation of the order ids are of — building, from ids, the probe
// table of every entry the dictionary held when they were numbered — and,
// shard by shard in parallel, signs a part's records through that table,
// adopts the part as the shard's base under that generation and re-applies
// its tombstones; then one store publishes the generation with every shard's
// view. ids is dropped with the call. The shards are created on the first
// install; a re-freeze holds every writer lock across it, so no shard
// publishes in between. start is when the caller began the work the bases'
// build time reports. Every record installed counts in DynamicStats.Signed.
func (sx *ShardedIndex) install(ids *pebble.KeyIDs, parts []part, start time.Time) {
	order := ids.Order()
	g := &orderGen{order: order, sel: pebble.NewSelector(sx.joiner.gen, order, sx.opts.Theta), probes: ids.ProbeTable()}
	if sx.shards == nil {
		sx.shards = make([]*shard, len(parts))
		for w := range sx.shards {
			sx.shards[w] = &shard{sx: sx, slot: w}
		}
	}
	for w := range parts {
		sx.signed.Add(int64(len(parts[w].prepared)))
	}
	views := make([]*shardView, len(parts))
	parallelFor(len(parts), len(parts), func(w int) {
		p, sh := &parts[w], sx.shards[w]
		sh.adoptBaseLocked(g, p.records, p.prepared, selectSignatures(p.prepared, g, sx.opts.Method, sx.tau), start)
		for _, id := range p.deadIDs {
			sh.tombstoneLocked(id, sh.positions[id])
		}
		views[w] = sh.viewLocked()
	})
	sx.view.Store(&ShardedView{sx: sx, gen: g, views: views})
}

// publish makes v shard w's published view, keeping the generation and every
// other shard's. The shard's writer holds its lock, so the generation cannot
// change under it; the compare-and-swap retries only past a sibling's
// publish.
func (sx *ShardedIndex) publish(w int, v *shardView) {
	for {
		old := sx.view.Load()
		views := slices.Clone(old.views)
		views[w] = v
		if sx.view.CompareAndSwap(old, &ShardedView{sx: sx, gen: old.gen, views: views}) {
			return
		}
	}
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
	groups := make([][]storedRecord, len(sx.shards))
	for i, s := range raw {
		w := shardOf(ids[i], len(sx.shards))
		groups[w] = append(groups[w], storedRecord{ID: ids[i], Raw: s}) // prepared by PrepareCached
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
	if sx.noRefreeze.Load() || !sx.view.Load().gen.outgrown() {
		return
	}
	sx.refreezeMu.Lock()
	defer sx.refreezeMu.Unlock()
	// Re-check against the current generation: a concurrent InsertBatch may
	// have completed the refreeze while this one waited on the mutex.
	if sx.noRefreeze.Load() || !sx.view.Load().gen.outgrown() {
		return
	}
	start := time.Now()
	sx.refreezeLocked((*ShardedIndex).countedOrder)
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
// generation's probe table. Readers never stall: with every writer lock held
// nothing is published until install's one store, so Snapshot serves the
// pre-refreeze generation until then and the new one after.
func (sx *ShardedIndex) refreezeLocked(freeze freezer) {
	defer sx.lockShards()()
	start := time.Now()
	// One live scan serves both the order build and the per-shard base
	// rebuilds.
	parts := make([]part, len(sx.shards))
	live := make([][]*core.PreparedRecord, len(sx.shards))
	for w, sh := range sx.shards {
		parts[w].records, live[w], _ = sh.liveLocked()
		parts[w].prepared = live[w]
		sh.rebuilds++
	}
	sx.install(freeze(sx, live...), parts, start)
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

// Snapshot returns the published view: one generation of the shared order
// and every shard's immutable view under it. Each per-shard view is
// individually consistent; the combination is not a single atomic cut across
// shards (a concurrent InsertBatch spanning several shards may be partially
// visible, each shard publishing its own part), which is the standard
// relaxation partitioned serving systems make in exchange for lock-free
// writes on disjoint shards. While a re-freeze runs, it is the generation
// before it.
func (sx *ShardedIndex) Snapshot() *ShardedView { return sx.view.Load() }

// Stats returns the statistics of the published snapshot.
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
// single order generation. It is never written after it is published, so
// all methods are read-only and safe for unbounded concurrency.
type ShardedView struct {
	sx    *ShardedIndex
	gen   *orderGen // the views' shared-order generation
	views []*shardView
}

// Stats aggregates the snapshot's statistics. The catalog, segment, rebuild
// and insert counts are the snapshot's own, summed over the shards; the
// interned-key split, the dictionary, the signed and counted records, the
// cache counters and the cumulative probe tallies are global (shared order,
// dictionary and cache) and read at the call, so a view held across requests
// reports the work done since it was taken.
func (sv *ShardedView) Stats() DynamicStats {
	sx := sv.sx
	st := DynamicStats{
		Shards:           len(sv.views),
		FrozenKeys:       sv.gen.order.FrozenKeys(),
		DynamicKeys:      sv.gen.order.DynamicCount(),
		Theta:            sx.opts.Theta,
		Tau:              sx.tau,
		DistinctSegments: sx.dict.Len(),
		DistinctGrams:    sx.dict.NumGrams(),
		Signed:           sx.signed.Load(),
		Counted:          sx.counted.Load(),
	}
	for _, v := range sv.views {
		v.addStats(&st)
	}
	st.CacheHits, st.CacheMisses = sx.cache.Stats()
	return st
}

// Live returns the snapshot's live records across all shards, in ascending
// stable-ID order. A shard keeps a record's ID and Raw, so each record is
// re-tokenized from Raw on every call; the slice and the tokens are fresh.
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
	// with ErrThetaBelowBuild, and so are negative and NaN values: the
	// candidate set is bounded by the build-time filter, so no complete
	// answer exists at a lower threshold.
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

// lookup is the scratch of one single-record read, taken from its index's
// pool (ShardedIndex.lookups) for the read and put back once the fan-out has
// joined every shard: the request, the storage the query is prepared into
// and the signer it is signed through. Nothing the read returns points into
// it.
type lookup struct {
	rq     request
	probe  core.ProbeScratch
	signer pebble.Signer
}

// sign prepares the query against the index's dictionary, reading it without
// writing it, into the lookup's storage and signs it under the view's order
// generation through the lookup's signer — one signature for the whole
// request (the shards share the order, so one signature is valid
// everywhere). The record and the IDs are the lookup's until it is released.
func (lk *lookup) sign(sv *ShardedView, tokens []string, method pebble.Method, tau int) (*core.PreparedRecord, []uint32) {
	sx := sv.sx
	pq := sx.joiner.calc.PrepareProbeInto(&lk.probe, sx.dict, tokens)
	lk.signer.Bind(sv.gen.sel, sv.gen.probes)
	return pq, lk.signer.Sign(pq, method, tau)
}

// release empties the lookup — the shards' matches are the caller's now —
// and puts it back into pool.
func (lk *lookup) release(pool *sync.Pool) {
	rq := &lk.rq
	rq.sv, rq.pq, rq.ids, rq.parts = nil, nil, nil, nil
	clear(rq.partBuf[:])
	lk.probe.Reset()
	lk.signer.Reset()
	pool.Put(lk)
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

// QueryTopKCtx is the one single-record read: it runs the filter-and-verify
// pipeline for one tokenised query against every shard concurrently and
// returns the k highest-similarity live records — identified by their stable
// IDs — ordered by descending similarity (ascending ID on ties); k ≤ 0 returns
// every match reaching θ, in the same order. Every shard verifies each of its
// candidates at θ into a bounded min-heap, sharing nothing with its siblings,
// so memory stays O(k) per shard however many records clear θ, and the
// per-shard heaps are folded through one more k-bounded heap — sound because
// the global top k under the total order is contained in the union of
// per-shard top k's. The read runs on a lookup of the index's pool, which it
// puts back once the fan-out has joined every shard. Verification checks ctx
// between candidates; the first shard to observe the cancelled context
// aborts the whole fan-out and the context error is returned.
//
// A qo.Theta other than 0 that is not at least the build θ — a negative or
// NaN one included — is rejected with ErrThetaBelowBuild before anything
// else; then an empty token slice returns an empty result without touching
// any shard (there is no zero-signature probe to run).
func (sv *ShardedView) QueryTopKCtx(ctx context.Context, tokens []string, k int, qo QueryOpts) ([]QueryMatch, error) {
	sx := sv.sx
	if build := sx.opts.Theta; qo.Theta != 0 && !(qo.Theta >= build) {
		return nil, fmt.Errorf("%w: %v < %v", ErrThetaBelowBuild, qo.Theta, build)
	}
	if len(tokens) == 0 {
		return nil, ctx.Err()
	}
	if k <= 0 {
		k = unboundedK
	}
	method, tau := sx.opts.Method, sx.tau
	if qo.ProbeTau > 0 {
		method, tau = pinnedConfig(qo, sx.tau)
	}
	lk, _ := sx.lookups.Get().(*lookup)
	if lk == nil {
		lk = new(lookup)
	}
	defer lk.release(&sx.lookups)
	rq := &lk.rq
	rq.pq, rq.ids = lk.sign(sv, tokens, method, tau)
	rq.sv, rq.tau, rq.qo, rq.k, rq.limit = sv, tau, qo, k, noLimit
	if n := len(sv.views); n <= maxInlineShards {
		rq.parts = rq.partBuf[:n]
	} else {
		rq.parts = make([][]QueryMatch, n)
	}
	if err := rq.fanout(ctx); err != nil {
		return nil, err
	}
	merged := topKHeap{entries: rq.parts[0]}
	for _, p := range rq.parts[1:] {
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
// turn, exactly what QueryTopKCtx runs for that record at k ≤ 0. Pair.S carries
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

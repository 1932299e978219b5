package join

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/invindex"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// shard is one partition of a ShardedIndex, the private building block the
// router fans requests out over, and the whole index of its records: a
// frozen base (records, prepared records, signature IDs and the inverted
// index over them) plus a chain of small immutable delta segments for
// records inserted since the last rebuild, and a tombstone bitmap for
// removed records. It exposes only shard-local primitives — count-filter
// candidates, verification of a ready-made signature, mutation, compaction
// — and owns no order: the pebble order is the router's and shared with
// every sibling, so signature keys first seen after the base was built land
// in that order's append-only dynamic region, and the probe signature is
// selected once per request, on the router.
//
// Writers (insertRecords, removeBatch) serialize on an internal mutex, mutate
// writer-owned state, and publish a fresh immutable shardView into the
// router's published view (ShardedIndex.publish) — copy-on-write at the
// granularity of slice headers and the tombstone bitmap. Readers run entirely
// against the view the router's Snapshot handed them: no locks, no retries,
// and a consistent picture of the shard no matter how many mutations land
// mid-query.
//
// Correctness under mutation rests on two invariants:
//
//  1. The pebble order is append-only (pebble.Order.InternDynamic), so the
//     relative position of any two interned keys never changes and every
//     signature ever selected remains a valid prefix under every later
//     order state. Signatures of base records and of each segment therefore
//     stay comparable with signatures of new probes.
//  2. Published views are never mutated: records/prepared/segment slices
//     only ever grow past the published length, and the tombstone bitmap and
//     the delta chain's last links are cloned before they are written. A view
//     observes removals only if they were published before the view was
//     taken.
//
// Once the keys this shard appended, its tombstones, or its segment chain
// cross their threshold (rebuildFraction, maxSegments), the writer compacts:
// live records move into a fresh dense base under the *same* shared order
// (reusing their prepared verification records and, by invariant 1, their
// stored signatures), and the segment chain resets to empty. Re-freezing the
// order is the router's business alone — a private re-freeze would re-assign
// IDs the siblings' signatures reference.
type shard struct {
	// sx is the router: the joiner, options, τ, dictionary, cache and
	// DynamicOptions the shard works under are its.
	sx *ShardedIndex
	// slot is the shard's index in the router's shards and in every
	// ShardedView's views.
	slot int

	mu sync.Mutex // serializes writers; never held by readers

	// Writer-owned state. The base is gen, the order generation it was built
	// under, inv, the inverted index over its signature IDs, buildTime, and
	// the first inv.Records() positions of records, prepared, cover and
	// sigIDs; adoptBaseLocked replaces all of it wholesale. records,
	// prepared, cover, sigIDs and deltas.segs are append-only while a base
	// is live (published views hold shorter headers); dead and deltas.last
	// are cloned before every write. A record is kept as its ID and Raw,
	// with no tokens: its prepared record is all that verification reads,
	// and Live re-tokenizes Raw.
	gen       *orderGen
	inv       *invindex.Index
	buildTime time.Duration
	deltas    deltas
	records   []storedRecord
	prepared  []*core.PreparedRecord
	dead      []uint64
	deadCount int
	positions map[int]int // stable record ID -> position
	rebuilds  int
	inserts   int
	// sigIDs holds each position's signature IDs, parallel to records — the
	// base's, then one exact-size entry per inserted record: what the count
	// filter's postings were built from, what a snapshot stores and what a
	// compaction hands to the next base. Entries are never written after
	// they are appended. sigLenLive is their total length over live
	// positions, so snapshots report the true mean indexed-side signature
	// length even between rebuilds.
	sigIDs     [][]uint32
	sigLenLive int
	// cover is the bound pass's flat copy of prepared (core.CoverColumn),
	// parallel to it: made by adoptBaseLocked, appended to by
	// insertRecords, and written nowhere else.
	cover core.CoverColumn
	// dynAtBuild is the shared order's dynamic-region size when the current
	// base was adopted, and dynAdded counts the keys *this* shard appended
	// since then. The rebuild trigger fires on dynAdded: the region grows
	// from all shards and resets only at a router re-freeze, so neither its
	// absolute size nor its growth is attributable to one shard — only the
	// shard's own interning is.
	dynAtBuild int
	dynAdded   int
	// pauses records the wall-clock duration of every rebuild, i.e. how long
	// this shard's writers stalled; readers never pause (RebuildPauses).
	pauses []time.Duration

	// work is the cumulative work of every request served against this
	// shard's views (lookups and batch probes alike), surfaced through
	// DynamicStats so a serving process can watch it live. Requests run
	// concurrently with each other and with writers, so it has a lock of its
	// own.
	workMu sync.Mutex
	work   counters

	pool sync.Pool // *probeScratch shared across views and generations
}

// note adds one request's work to the shard's total.
func (sh *shard) note(c counters) {
	sh.workMu.Lock()
	sh.work.add(c)
	sh.workMu.Unlock()
}

// total returns the shard's cumulative work.
func (sh *shard) total() counters {
	sh.workMu.Lock()
	defer sh.workMu.Unlock()
	return sh.work
}

// deltas is a shard's delta-segment chain — one immutable sparse inverted
// index (invindex.Delta) per insert batch since the base was adopted, keyed
// by global record positions — linked per signature ID: the link table
// holds, for each ID, 1 + the index of the latest segment holding a posting
// list for it (0: none), and in each segment the ID's link
// (invindex.Delta.SetPrev) is 1 + the index of the previous one that holds
// it (0: none). The count filter follows the links (walk), so it visits only
// the segments that hold a probe ID instead of asking every segment of the
// chain, and an ID no inserted record carries costs one load. A link is a
// byte, so a chain holds at most maxChainSegments segments. The zero value
// is the empty chain.
//
// The segment array and the link table are shared by every view of one
// base, and a push writes both in place, so it costs only its batch:
// segs is allocated once, at the base's first push, with room for the
// longest chain the shard lets grow, so an append never moves it; links
// packs four one-byte links in a word, grows geometrically with the largest
// ID pushed (keys first seen after the base was built lie in the shared
// order's dynamic region, past the base's universe), and is written only for
// the batch's IDs, with atomic stores after the segment and its own links
// are complete. A view holds its chain's length, so a link it loads may name
// a segment pushed after it was published; that segment's own link for the
// ID leads back toward older segments, and the view follows it until the
// link is within its chain. A view published before the table grew keeps
// the old table, which no later push writes.
type deltas struct {
	segs  []*invindex.Delta
	links []atomic.Uint32
}

// maxChainSegments is the longest delta chain a link can address (255
// segments). A chain grows one segment past maxSegments before the
// compaction that segment triggers, so maxSegments is clamped one below it.
const maxChainSegments = math.MaxUint8

// link returns id's entry of the link table: 1 + the index of the latest
// segment holding id, which may be newer than this chain, or 0.
func (d deltas) link(id uint32) uint8 {
	if int(id>>2) >= len(d.links) {
		return 0
	}
	return uint8(d.links[id>>2].Load() >> (id & 3 * 8))
}

// walk appends the posting lists of id in the chain's segments that hold
// one to lists, oldest first — the order a walk of every segment meets them
// in — and returns the extended slice.
func (d deltas) walk(id uint32, lists [][]invindex.Posting) [][]invindex.Posting {
	k := d.link(id)
	for all := d.segs[:cap(d.segs)]; int(k) > len(d.segs); {
		_, k = all[k-1].Linked(id) // pushed after this view: step back
	}
	from := len(lists)
	for k != 0 {
		var l []invindex.Posting
		l, k = d.segs[k-1].Linked(id)
		lists = append(lists, l)
	}
	slices.Reverse(lists[from:])
	return lists
}

// push returns the chain with seg appended and every ID seg holds linked to
// the segment that held it last. room is the longest chain the shard lets
// grow (maxSegments + 1, at most maxChainSegments): the segment array is
// made that large at the first push and never outgrown.
func (d deltas) push(seg *invindex.Delta, room int) deltas {
	if d.segs == nil {
		d.segs = make([]*invindex.Delta, 0, room)
	}
	if len(d.segs) == cap(d.segs) {
		panic("join: a delta chain past the segments its base made room for")
	}
	words := len(d.links)
	for id := range seg.IDs() {
		seg.SetPrev(id, d.link(id))
		words = max(words, int(id>>2)+1)
	}
	if words > cap(d.links) {
		grown := make([]atomic.Uint32, words, max(words, 2*cap(d.links)))
		for i := range d.links {
			grown[i].Store(d.links[i].Load())
		}
		d.links = grown
	}
	d.links = d.links[:words]
	d.segs = append(d.segs, seg)
	k := uint32(len(d.segs))
	for id := range seg.IDs() {
		w, shift := &d.links[id>>2], id&3*8
		w.Store(w.Load()&^(0xff<<shift) | k<<shift)
	}
	return d
}

// DynamicOptions tunes the mutation behaviour of a ShardedIndex on top of
// the join Options fixed at build time. Every caller outside this package
// passes the zero value, the defaults; the package's tests set the fields to
// force compactions.
type DynamicOptions struct {
	// rebuildFraction triggers a shard's compaction rebuild when the pebble
	// keys it appended exceed this fraction of the keys known when its base
	// was built, or its tombstoned records this fraction of its catalog.
	// 0 selects the default 0.25.
	rebuildFraction float64
	// maxSegments caps the delta-segment chain length (every insert batch
	// appends one segment per touched shard); crossing it triggers a
	// rebuild. 0 selects the default 64; a value the chain's links cannot
	// address is lowered to maxChainSegments − 1.
	maxSegments int
}

const (
	defaultRebuildFraction = 0.25
	defaultMaxSegments     = 64
)

// adoptBaseLocked is the one constructor of a shard's base, used by a
// build, a restore, a compaction and a re-freeze: it makes the positional
// records, their prepared verification records and their signature IDs —
// selected under g by install, decoded from a snapshot, or carried over from
// the base a compaction replaces — the writer state, with the inverted index
// and its hybrid layout built over the IDs and the cover column over the
// prepared records, no segments and no tombstones. The three slices become
// the shard's own. start is when the work that made the base began (see
// DynamicStats.BuildTime).
func (sh *shard) adoptBaseLocked(g *orderGen, records []storedRecord, prepared []*core.PreparedRecord, sigIDs [][]uint32, start time.Time) {
	sh.gen = g
	sh.inv = newInverted(sigIDs, g.order, sh.sx.tau)
	sh.deltas = deltas{}
	sh.records, sh.prepared, sh.sigIDs = records, prepared, sigIDs
	sh.cover = core.NewCoverColumn(sh.sx.dict, prepared)
	sh.dead = make([]uint64, (len(records)+63)/64)
	sh.deadCount = 0
	sh.positions = make(map[int]int, len(records))
	for pos, rec := range records {
		sh.positions[rec.ID] = pos
	}
	sh.sigLenLive = 0
	for _, ids := range sigIDs {
		sh.sigLenLive += len(ids)
	}
	sh.dynAtBuild = g.order.DynamicCount()
	sh.dynAdded = 0
	sh.buildTime = time.Since(start)
}

// storedRecord is a record as a shard keeps it: its stable ID and its text,
// 24 bytes, with no tokens — verification reads its prepared record, and
// Live re-tokenizes Raw.
type storedRecord struct {
	ID  int
	Raw string
}

// storedRecords returns the column a shard keeps of the records.
func storedRecords(recs []strutil.Record) []storedRecord {
	out := make([]storedRecord, len(recs))
	for i, rec := range recs {
		out[i] = storedRecord{ID: rec.ID, Raw: rec.Raw}
	}
	return out
}

// tombstoneLocked removes the live record id at position pos: its bit is
// set in dead, which the caller has cloned if a published view holds it.
func (sh *shard) tombstoneLocked(id, pos int) {
	delete(sh.positions, id)
	sh.dead[pos>>6] |= 1 << (uint(pos) & 63)
	sh.deadCount++
	sh.sigLenLive -= len(sh.sigIDs[pos])
}

// viewLocked snapshots the writer state into a fresh immutable view.
func (sh *shard) viewLocked() *shardView {
	v := &shardView{
		sh:        sh,
		inv:       sh.inv,
		buildTime: sh.buildTime,
		deltas:    sh.deltas,
		records:   sh.records,
		prepared:  sh.prepared,
		cover:     sh.cover,
		sigIDs:    sh.sigIDs,
		dead:      sh.dead,
		live:      len(sh.records) - sh.deadCount,
		rebuilds:  sh.rebuilds,
		inserts:   sh.inserts,
	}
	if v.live > 0 {
		v.avgSig = float64(sh.sigLenLive) / float64(v.live)
	}
	return v
}

// insertRecords appends records under the stable IDs the router assigned
// (IDs are allocated centrally so they stay unique across shards and
// hash-routable). New signature keys are interned into the shared order's
// dynamic region, the batch's postings become one immutable delta segment,
// and a new view is published; a rebuild is triggered first when the
// mutation thresholds are crossed.
func (sh *shard) insertRecords(recs []storedRecord) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delta := invindex.NewDelta()
	// Prepare each record from its Raw, and intern the keys the generation's
	// order may lack — those of the segments its probe table does not hold —
	// in a single InternDynamic call for the whole batch (at most one
	// dynamic-table clone), which has to come before the first record is
	// signed; then sign each record through the probe table.
	g := sh.gen
	first := len(sh.records)
	var unheld []pebble.Pebble
	for _, rec := range recs {
		pr := sh.sx.joiner.calc.PrepareCached(sh.sx.cache, sh.sx.dict, rec.Raw)
		sh.positions[rec.ID] = len(sh.records)
		sh.records = append(sh.records, rec)
		sh.prepared = append(sh.prepared, pr)
		unheld = g.probes.AppendUnheld(g.sel, unheld, pr)
	}
	sh.cover.Append(sh.prepared[first:])
	sh.dynAdded += g.order.InternDynamic(unheld)
	var signer pebble.Signer
	signer.Bind(g.sel, g.probes)
	for pos := first; pos < len(sh.records); pos++ {
		ids := slices.Clone(signer.Sign(sh.prepared[pos], sh.sx.opts.Method, sh.sx.tau))
		delta.Add(pos, ids)
		sh.sigIDs = append(sh.sigIDs, ids)
		sh.sigLenLive += len(ids)
	}
	for len(sh.dead)*64 < len(sh.records) {
		sh.dead = append(sh.dead, 0)
	}
	sh.deltas = sh.deltas.push(delta, sh.sx.dopts.maxSegments+1)
	sh.inserts += len(recs)
	sh.sx.signed.Add(int64(len(recs)))
	sh.maybeRebuildLocked()
	sh.sx.publish(sh.slot, sh.viewLocked())
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
	cloned := false
	for i, id := range ids {
		pos, ok := sh.positions[id]
		if !ok {
			continue
		}
		if !cloned {
			sh.dead, cloned = slices.Clone(sh.dead), true
		}
		sh.tombstoneLocked(id, pos)
		out[i] = true
	}
	if cloned {
		sh.maybeRebuildLocked()
		sh.sx.publish(sh.slot, sh.viewLocked())
	}
	return out
}

// maybeRebuildLocked compacts the shard when the appended pebble mass, the
// tombstone mass, or the segment chain crosses its threshold.
func (sh *shard) maybeRebuildLocked() {
	if len(sh.deltas.segs) > sh.sx.dopts.maxSegments {
		sh.rebuildLocked()
		return
	}
	// The trigger compares the keys this shard interned since adoption
	// (dynAdded) against the keys known at adoption. Counting only our own
	// interning matters: the shared dynamic region grows from every
	// sibling's inserts, and triggering on global growth would make all
	// shards cross the threshold on the same batch and stall its caller on N
	// correlated rebuilds — exactly the stop-the-world pause sharding exists
	// to bound.
	known := sh.gen.order.FrozenKeys() + sh.dynAtBuild
	if known < 1 {
		known = 1
	}
	frac := sh.sx.dopts.rebuildFraction
	if sh.dynAdded > 0 && float64(sh.dynAdded) >= frac*float64(known) {
		sh.rebuildLocked()
		return
	}
	if n := len(sh.records); sh.deadCount > 0 && float64(sh.deadCount) >= frac*float64(n) {
		sh.rebuildLocked()
	}
}

// rebuildLocked compacts the live records into a fresh base under the
// shared order's current append-only state — a restore from memory: each
// survivor's prepared verification record and stored signature go to
// adoptBaseLocked as they are. Reusing the signature is exact, not an approximation: the
// order is append-only between re-freezes and every key of an indexed record
// was interned no later than its insert (invariant 1), so selecting again
// would sort the same pebbles into the same positions and cut the same
// prefix. The compaction win is the dense base (segments merged, tombstones
// dropped), not a fresher frequency ranking, which only the router's
// re-freeze delivers. Stable IDs are preserved; positions are reassigned.
// The pause is recorded for RebuildPauses.
func (sh *shard) rebuildLocked() {
	start := time.Now()
	live, prep, sigIDs := sh.liveLocked()
	sh.adoptBaseLocked(sh.gen, live, prep, sigIDs, start)
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

// liveLocked collects the live records, their prepared verification records
// and their stored signature IDs in position order.
func (sh *shard) liveLocked() ([]storedRecord, []*core.PreparedRecord, [][]uint32) {
	n := len(sh.records) - sh.deadCount
	live := make([]storedRecord, 0, n)
	prep := make([]*core.PreparedRecord, 0, n)
	sigIDs := make([][]uint32, 0, n)
	for pos, rec := range sh.records {
		if sh.dead[pos>>6]&(1<<(uint(pos)&63)) != 0 {
			continue
		}
		live = append(live, rec)
		prep = append(prep, sh.prepared[pos])
		sigIDs = append(sigIDs, sh.sigIDs[pos])
	}
	return live, prep, sigIDs
}

// rebuildPauses returns the wall-clock durations of recent rebuilds — the
// history is capped at maxPauseLog entries — (writer stall per rebuild;
// readers keep serving the previous view).
func (sh *shard) rebuildPauses() []time.Duration {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return append([]time.Duration(nil), sh.pauses...)
}

// DynamicStats describes one snapshot of a ShardedIndex: catalog size and
// tombstone counts, the delta-segment chains, the shard count, the
// interned-key split between the frozen order prefix and the dynamic region,
// the rebuild history, and the cumulative filter, verify and cache
// counters. It is the one definition of the statistics: the public
// aujoin.IndexStats is an alias of it, and its JSON tags are the /stats wire
// format.
type DynamicStats struct {
	// Records is the catalog length including tombstones; Live and Dead
	// split it.
	Records int `json:"records"`
	Live    int `json:"live"`
	Dead    int `json:"dead"`
	// Segments is the length of the delta-segment chains (one segment per
	// insert batch and touched shard since that shard's last rebuild),
	// summed over the shards.
	Segments int `json:"segments"`
	// Shards is the number of index partitions.
	Shards int `json:"shards"`
	// FrozenKeys and DynamicKeys count the interned pebble keys in the
	// shared order's frozen prefix and its append-only dynamic region.
	FrozenKeys  int `json:"frozen_keys"`
	DynamicKeys int `json:"dynamic_keys"`
	// Rebuilds counts shard compactions and re-freeze rebuilds, summed over
	// the shards; Inserts the records appended over the index lifetime.
	Rebuilds int `json:"rebuilds"`
	Inserts  int `json:"inserts"`
	// Signed counts the records the index has signed over its lifetime: once
	// each for a build, a restore or an insert, and once more each for every
	// re-freeze or AdoptOrder. Counted counts the records whose keys it
	// counted into a frequency table: a build's or a re-freeze's order,
	// KeyFrequencies, AdoptOrder's guard and a pending build's table.
	Signed  int64 `json:"signed"`
	Counted int64 `json:"counted"`
	// DenseKeys and SparseKeys split the bases' non-empty posting lists by
	// representation: packed bitmap form (lists past the hybrid density
	// cutoff) versus sorted slice form. Summed over the shards (each shard
	// hybridizes its own base).
	DenseKeys  int `json:"dense_keys"`
	SparseKeys int `json:"sparse_keys"`
	// counters are the cumulative work of every request served since the
	// index was built, summed over the shards: ProbePostings counts the
	// posting entries the count filter processed, and ProbeBitsetTokens and
	// ProbeSliceTokens split the probe signature tokens by the representation
	// their base posting list was served from. The verify counters are
	// candidates whose msim matrix was filled; candidates dismissed before it
	// by a sound upper bound (the O(1) size ratio or the cover stage) and the
	// share of them the cover stage dismissed; msim cells copied into a
	// matrix from a row the shard's scratch had already evaluated for the
	// same probe; and msim cells computed — every one at most once a (segment
	// text, probe, scratch), for a matrix or for the cover stage, which needs
	// no matrix, so the two do not add up to a hit ratio.
	counters
	// DistinctSegments is the length of the index's segment dictionary: the
	// distinct segment texts interned over its lifetime (append-only, so
	// texts only removed records held still count). On a cluster worker the
	// dictionary is the worker's, shared by every group it hosts
	// (Joiner.HostedDict), so each group reports the texts of them all.
	DistinctSegments int `json:"distinct_segments"`
	// DistinctGrams is the number of distinct q-grams the dictionary has
	// numbered for those texts (append-only likewise; on a worker, the
	// worker's dictionary too).
	DistinctGrams int `json:"distinct_grams"`
	// CacheHits and CacheMisses are the cumulative counters of the
	// prepared-record cache consulted on insert (one cache is shared across
	// all shards).
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Theta and Tau are the join parameters fixed at build time.
	Theta float64 `json:"theta"`
	Tau   int     `json:"tau"`
	// Plans and PlanFallbacks are always zero and off the wire: kept only
	// because benchmark/layers.go:253 reads them.
	Plans         int64 `json:"-"`
	PlanFallbacks int64 `json:"-"`
	// BuildTime is the construction time of the current bases, the slowest
	// shard's (shards build in parallel), each timed from when the work that
	// made it began: a built base from the start of the build (preparation,
	// order, signature selection, inverted index), a restored one from the
	// start of the restore (the snapshot already decoded: the stored order,
	// preparation, signature selection, inverted index), a compacted one
	// from the start of the compaction (live scan, inverted index), a
	// re-frozen one from the start of the re-freeze (live scan, order freeze,
	// signature selection, inverted index). Nanoseconds on the wire.
	BuildTime time.Duration `json:"build_time_ns"`
}

// shardView is one immutable snapshot of a shard. All its methods are
// read-only, lock-free and safe for unbounded concurrency; results reflect
// exactly the mutations the shard had made when it was published.
type shardView struct {
	sh        *shard
	inv       *invindex.Index
	buildTime time.Duration
	deltas    deltas
	records   []storedRecord
	prepared  []*core.PreparedRecord
	cover     core.CoverColumn // parallel to prepared
	sigIDs    [][]uint32
	dead      []uint64
	avgSig    float64 // mean signature length over live records
	live      int     // len(records) minus tombstones
	rebuilds  int
	inserts   int
}

// addStats folds this shard's share into the router's aggregate: the
// snapshot's catalog shape, and the shard's lifetime work (read fresh, so it
// includes queries served after the view was published).
func (v *shardView) addStats(st *DynamicStats) {
	st.Records += len(v.records)
	st.Live += v.live
	st.Dead += len(v.records) - v.live
	st.Segments += len(v.deltas.segs)
	st.Rebuilds += v.rebuilds
	st.Inserts += v.inserts
	st.DenseKeys += v.inv.DenseKeys()
	st.SparseKeys += v.inv.SparseKeys()
	st.counters.add(v.sh.total())
	st.BuildTime = max(st.BuildTime, v.buildTime)
}

// alive reports whether the record at a position is not tombstoned in this
// snapshot.
func (v *shardView) alive(pos int) bool {
	return v.dead[pos>>6]&(1<<(uint(pos)&63)) == 0
}

// appendLive appends the snapshot's live records, in position order, each
// re-tokenized from its Raw.
func (v *shardView) appendLive(out []strutil.Record) []strutil.Record {
	for pos, rec := range v.records {
		if v.alive(pos) {
			out = append(out, strutil.NewRecord(rec.ID, rec.Raw))
		}
	}
	return out
}

// scratch borrows a probe scratch from the shard-wide pool, its arena sized
// to this snapshot's record count.
func (v *shardView) scratch() *probeScratch {
	return scratchFromPool(&v.sh.pool, len(v.records))
}

// candidatesRecord runs the count filter for one probe signature's IDs across
// the base and every delta segment, returning the positions of live
// records whose overlap reached tau (aliasing the accumulator arena, valid
// until the next use of sc) and the filter counters. tau is the request's
// overlap constraint — any value in [1, build-τ] is sound against the
// build-time indexed signatures — and limit its position limit: a self-join
// counts only the base records below its probe record's own position, every
// other request passes noLimit.
func (v *shardView) candidatesRecord(ids []uint32, tau, limit int, sc *probeScratch) ([]int32, counters) {
	return countFilterRecord(v.inv, v.deltas, v.dead, ids, tau, min(limit, v.inv.Records()), sc)
}

// unboundedK is the k of a query asked for every match (QueryTopKCtx at
// k ≤ 0) and of every request of a join: a bound no heap ever reaches, so the
// heap never fills and every candidate reaching θ is kept.
const unboundedK = math.MaxInt

// noLimit is the position limit of a request that is no self-join: every
// position of a shard's base is below it.
const noLimit = math.MaxInt

// serve is this shard's share of a request — a lookup, or one probe record of
// a join: the count filter for the request's probe signature at its overlap
// constraint, then verification of the survivors. What the two stages did is
// added to the shard's total; a request of the batch loop (rq.tally set) is
// also told, and how long each stage took.
func (v *shardView) serve(ctx context.Context, rq *request) ([]QueryMatch, error) {
	start := time.Now()
	sc := v.scratch()
	defer sc.release(&v.sh.pool)
	cands, work := v.candidatesRecord(rq.ids, rq.tau, rq.limit, sc)
	n, filtered := len(cands), time.Now()
	matches, vs, err := v.verify(ctx, rq, cands, sc)
	work.VerifyStats = vs
	v.sh.note(work)
	if rq.tally != nil {
		rq.tally.add(probeTally{counters: work, candidates: n, filterTime: filtered.Sub(start), verifyTime: time.Since(filtered)})
	}
	return matches, err
}

// verify decides a request's candidates on this shard against its prepared
// query, keeping the rq.k best matches (every match reaching θ when k is
// unboundedK), and returns them with what the pass did. The matches come back
// unordered — the router merges every shard's share and sorts once. It is the
// one way the engine verifies candidates, a join's as much as a lookup's: one
// loop on the calling goroutine, into one heap, on the pooled scratch.
//
// Each candidate first gets its bound — the size ratio and, past it, the cover
// stage, which reads one row maximum a segment — from the shard's cover
// column; a candidate bounded below θ is dropped where it stands (the scratch
// counts it as pruned). Every other one is verified at θ and offered to the
// heap, which keeps the k best under its total order whatever order they
// arrive in, so the result is the one a plain scan at θ returns. Before the
// loop, AdoptProbe decides from the candidates how the row maxima are had:
// all in one pass over the dictionary when the candidates hold at least as
// many column words as the rows cover, or each row on first touch.
func (v *shardView) verify(ctx context.Context, rq *request, cands []int32, sc *probeScratch) ([]QueryMatch, core.VerifyStats, error) {
	if len(cands) == 0 {
		return nil, core.VerifyStats{}, nil
	}
	calc, theta, sim := v.sh.sx.joiner.calc, v.sh.sx.opts.thetaFor(rq.qo), sc.simScratch()
	sim.Stats = core.VerifyStats{} // the pooled scratch counts this request's work
	heap := topKHeap{entries: rq.matches[:0]}
	calc.AdoptProbe(&v.cover, cands, rq.pq, sim)
	err := forCtx(ctx, len(cands), func(i int) {
		r := cands[i]
		if calc.CoverBound(&v.cover, r, rq.pq, theta, sim) < theta-core.BoundSlack {
			return
		}
		if val, ok := calc.VerifyPrepared(v.prepared[r], rq.pq, theta, sim); ok {
			heap.offer(QueryMatch{Record: v.records[r].ID, Similarity: val}, rq.k)
		}
	})
	if err != nil {
		return nil, sim.Stats, err
	}
	return heap.entries, sim.Stats, nil
}

// topKHeap is a bounded min-heap on similarity (ties broken towards keeping
// the smaller record ID), so the root is always the weakest retained match.
type topKHeap struct {
	entries []QueryMatch
}

// sorted returns the retained matches ordered by descending similarity with
// ascending-ID ties — the result order of QueryTopKCtx. The heap is consumed.
func (h *topKHeap) sorted() []QueryMatch {
	slices.SortFunc(h.entries, func(a, b QueryMatch) int {
		if c := cmp.Compare(b.Similarity, a.Similarity); c != 0 {
			return c
		}
		return cmp.Compare(a.Record, b.Record)
	})
	return h.entries
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

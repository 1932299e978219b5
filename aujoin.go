// Package aujoin is the public API of the unified string similarity join
// framework, a from-scratch Go implementation of
//
//	Pengfei Xu and Jiaheng Lu: "Towards a Unified Framework for String
//	Similarity Joins", PVLDB 12(11), 2019.
//
// The framework measures how similar two strings are by combining three
// kinds of similarity at once — syntactic (q-gram Jaccard), synonym-rule
// based, and taxonomy (IS-A hierarchy) based — and joins large string
// collections under that unified measure with pebble-signature filtering
// (U-Filter and the adaptive AU-Filters) under a caller-chosen overlap
// constraint τ.
//
// # Quick start
//
//	j, err := aujoin.NewStrict(
//		aujoin.WithSynonym("coffee shop", "cafe", 1.0),
//		aujoin.WithTaxonomyPath("wikipedia", "food", "coffee", "coffee drinks", "espresso"),
//		aujoin.WithTaxonomyPath("wikipedia", "food", "coffee", "coffee drinks", "latte"),
//	)
//	if err != nil { ... }
//	sim := j.Similarity("coffee shop latte Helsingki", "espresso cafe Helsinki")
//	matches, _ := j.Join(left, right, aujoin.JoinOptions{Theta: 0.8, Tau: 2})
//
// NewStrict is the recommended constructor; New is the panic-on-error
// convenience wrapper for option lists known to be valid (tests, examples,
// hard-coded configuration).
//
// # Streaming and cancellation
//
// Every batch entry point has a streaming sibling that accepts a
// context.Context and yields matches one at a time, a probe record's as soon
// as that record has been filtered and verified (Go 1.23 range-over-func), so
// the first match does not wait for the rest of the collection, peak match
// buffering is bounded by the worker count rather than the result size, and a
// deadline or a disconnected client cancels the join mid-flight:
//
//	for m, err := range j.JoinSeq(ctx, left, right, opts) {
//		if err != nil { ... }   // ctx cancelled or deadline exceeded
//		consume(m)              // breaking out stops the pipeline
//	}
//
// QueryCtx and QueryTopKCtx serve single strings under the same contract and
// take per-request QueryOptions (threshold, k) that the batch API fixes at
// build time.
//
// # Build once, probe many
//
// Every pebble is interned into a dense integer ID ordered by global
// frequency, and the whole filtering pipeline (signatures, inverted index,
// candidate counting) runs on those IDs. Joiner.Index materialises that
// state once so that repeated joins and query-serving workloads skip it:
//
//	ix := j.Index(catalog, aujoin.JoinOptions{Theta: 0.8, Tau: 2})
//	matches, _ := ix.Probe(batch)          // join a batch against the catalog
//	hits := ix.Query("espresso cafe")      // serve a single lookup
//
// Join and SelfJoin are one-shot compositions of the same stages.
//
// # Dynamic serving
//
// An Index is mutable and concurrently servable: Insert and Remove change
// the catalog online, while Snapshot hands out immutable views that serve
// Query, QueryTopK and Probe lock-free and unaffected by concurrent
// writes. New signature keys land in an append-only dynamic region of the
// global pebble order; a shard compacts itself once its appended or
// tombstoned mass crosses a threshold, and the index re-freezes the order
// (rebuilding every shard) once the dynamic region outgrows the frozen one:
//
//	ids := ix.Insert([]string{"espresso bar Helsinki"})
//	view := ix.Snapshot()                  // consistent, lock-free reads
//	top := view.QueryTopK("espresso", 10)  // ranked serving
//	ix.Remove(ids[0])                      // tombstoned for later snapshots
//
// IndexWith partitions the catalog across shards that mutate in parallel
// and rebuild independently — queries fan out and merge, results do not
// depend on the shard count (Index is IndexWith at one shard):
//
//	ix := j.IndexWith(catalog, opts, aujoin.IndexOptions{Shards: 0}) // GOMAXPROCS shards
//
// cmd/aujoind wraps this in an HTTP server; benchmark/ load-tests it.
//
// See the examples/ directory for complete runnable programs and
// cmd/benchrun for the harness that regenerates the paper's tables and
// figures.
package aujoin

import (
	"context"
	"fmt"
	"io"
	"iter"
	"time"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// Filter selects the signature-selection algorithm used by Join.
type Filter int

const (
	// UFilter is the baseline prefix filter with a single-overlap guarantee
	// (Algorithm 2/3 of the paper).
	UFilter Filter = iota
	// AUFilterHeuristic is the adaptive filter with the heuristic slack
	// bound (Algorithm 4).
	AUFilterHeuristic
	// AUFilterDP is the adaptive filter with the dynamic-programming slack
	// bound (Algorithm 5); it produces the shortest signatures and is the
	// recommended default.
	AUFilterDP
)

// String returns the paper's name for the filter.
func (f Filter) String() string { return f.method().String() }

func (f Filter) method() pebble.Method {
	switch f {
	case UFilter:
		return pebble.UFilter
	case AUFilterHeuristic:
		return pebble.AUHeuristic
	default:
		return pebble.AUDP
	}
}

// Match is one join result: indices into the two input collections (for a
// probe against an Index, S is the indexed record's stable ID) and the
// unified similarity of the pair.
type Match = join.Pair

// Stats summarises one join execution.
type Stats struct {
	// Candidates is the number of pairs that survived filtering.
	Candidates int
	// ShardCandidates breaks Candidates down per shard: entry i counts the
	// candidates shard i contributed, and the entries always sum to
	// Candidates. A one-shot join runs against a one-shard index of its own
	// and reports a single entry.
	ShardCandidates []int
	// Results is the number of matches returned.
	Results int
	// FilterPostings is the number of posting entries (record IDs, whether
	// walked in a sorted list or popcounted out of a packed bitmap block)
	// the candidate phase processed — the T_τ cost measure of the paper.
	FilterPostings int64
	// BitsetTokens and SliceTokens split the signature tokens the candidate
	// phase looked up by posting-list representation: packed bitmap form
	// versus sorted slice form. Their sum is the number of distinct indexed
	// tokens across all probe signatures.
	BitsetTokens int64
	SliceTokens  int64
	// Tau is the overlap constraint the filter ran at: JoinOptions.Tau
	// clamped to at least 1, and always 1 under UFilter, which has no τ.
	Tau int
	// VerifyStats counts the verify work. VerifiedCandidates counts the
	// candidates whose segment-pair similarity matrix was filled;
	// PrunedByBound the candidates dismissed before that by a sound upper
	// bound — the O(1) partition-size ratio or the cover stage, which reads
	// one cached number per distinct segment text — and PrunedByCover the
	// cover stage's share. The two add up: VerifiedCandidates + PrunedByBound
	// == Candidates. MemoHits counts the segment-pair similarity cells copied
	// into a matrix from a row already evaluated for the same probe record,
	// MSimEvals the cells that were evaluated or decided to be zero (a row
	// that shares nothing the measures could score is decided whole) — at
	// most once per distinct segment text, probe record and shard, for a
	// matrix or for the cover stage alone, so the two are not the halves of
	// a hit ratio. One worker verifies all of a probe record's candidates,
	// so neither depends on Workers.
	core.VerifyStats
	// FilterTime and VerifyTime break the total down. FilterTime is
	// everything done once per collection (preparation, signatures, index
	// building) plus the count filter; VerifyTime is verification. A join filters and
	// verifies one probe record at a time, so the per-record durations of
	// the two stages are summed on the worker that ran the record and the
	// sums of the slowest worker are reported: wall-clock on one goroutine,
	// NOT CPU time summed over workers or shards. With one worker the two
	// are the time the call spent in each stage; with more they add up to at
	// most the end-to-end latency the caller observed.
	FilterTime time.Duration
	VerifyTime time.Duration
}

// Total returns the sum of the per-stage wall-clock durations: the call's
// end-to-end latency less what it spent handing matches over, on its slowest
// worker (not CPU time).
func (s Stats) Total() time.Duration { return s.FilterTime + s.VerifyTime }

// JoinOptions configures Join and SelfJoin.
type JoinOptions struct {
	// Theta is the unified-similarity threshold in [0, 1].
	Theta float64
	// Tau is the overlap constraint; values below 1 run at 1.
	Tau int
	// Filter selects the signature algorithm; the default is AUFilterDP.
	Filter Filter
	// Workers is how many probe records are filtered and verified at once
	// (0 = all CPUs); one record's candidates are always verified by one
	// worker.
	Workers int
}

// Option configures a Joiner at construction time.
type Option func(*builder) error

type builder struct {
	rules    *synonym.RuleSet
	tax      *taxonomy.Tree
	measures sim.MeasureSet
	q        int
	t        float64
	err      error
}

// WithSynonym adds one synonym (or abbreviation) rule lhs → rhs with the
// given closeness in (0, 1].
func WithSynonym(lhs, rhs string, closeness float64) Option {
	return func(b *builder) error {
		_, err := b.rules.Add(lhs, rhs, closeness)
		return err
	}
}

// WithSynonymsFrom loads tab-separated "lhs<TAB>rhs[<TAB>closeness]" rules.
func WithSynonymsFrom(r io.Reader) Option {
	return func(b *builder) error {
		rs, err := synonym.Read(r)
		if err != nil {
			return err
		}
		for _, rule := range rs.Rules() {
			if _, err := b.rules.Add(rule.LHSText(), rule.RHSText(), rule.C); err != nil {
				return err
			}
		}
		return nil
	}
}

// WithTaxonomyPath adds a root-to-leaf path of IS-A entities, creating any
// missing intermediate nodes. The first element must always be the same
// root name.
func WithTaxonomyPath(path ...string) Option {
	return func(b *builder) error {
		if len(path) == 0 {
			return fmt.Errorf("aujoin: empty taxonomy path")
		}
		if b.tax == nil {
			b.tax = taxonomy.NewTree(path[0])
		} else if _, ok := b.tax.Lookup(path[0]); !ok {
			return fmt.Errorf("aujoin: taxonomy path must start at the existing root %q", b.tax.Name(b.tax.Root()))
		}
		parent := b.tax.Root()
		for _, name := range path[1:] {
			id, err := b.tax.AddChild(parent, name)
			if err != nil {
				return err
			}
			parent = id
		}
		return nil
	}
}

// WithTaxonomyFrom loads a taxonomy in the "node<TAB>parent" format
// produced by the datagen tool.
func WithTaxonomyFrom(r io.Reader) Option {
	return func(b *builder) error {
		t, err := taxonomy.Read(r)
		if err != nil {
			return err
		}
		b.tax = t
		return nil
	}
}

// WithMeasures restricts the unified similarity to a combination of the
// base measures, given in the paper's letter notation ("J", "TS", "TJS",
// …). The default is all three.
func WithMeasures(combo string) Option {
	return func(b *builder) error {
		b.measures = sim.ParseMeasureSet(combo)
		return nil
	}
}

// WithGramLength sets the q-gram length of the Jaccard measure (default 2).
func WithGramLength(q int) Option {
	return func(b *builder) error {
		if q < 1 {
			return fmt.Errorf("aujoin: gram length %d < 1", q)
		}
		b.q = q
		return nil
	}
}

// WithApproximationT sets the t parameter of Algorithm 1 (larger t = finer
// local improvements, more work; default 50).
func WithApproximationT(t float64) Option {
	return func(b *builder) error {
		if t <= 1 {
			return fmt.Errorf("aujoin: t must be > 1")
		}
		b.t = t
		return nil
	}
}

// Joiner computes unified similarities and joins string collections. It is
// safe for concurrent use once constructed.
type Joiner struct {
	ctx    *sim.Context
	calc   *core.Calculator
	joiner *join.Joiner
}

// New constructs a Joiner from the given options, panicking on invalid
// ones. It is the convenience wrapper for option lists known to be valid
// (tests, examples, hard-coded configuration); code handling user-supplied
// configuration should call NewStrict, the documented default constructor,
// and handle the error.
func New(opts ...Option) *Joiner {
	j, err := NewStrict(opts...)
	if err != nil {
		panic(fmt.Sprintf("aujoin.New: %v", err))
	}
	return j
}

// NewStrict constructs a Joiner from the given options, reporting invalid
// options as an error. It is the recommended constructor.
func NewStrict(opts ...Option) (*Joiner, error) {
	b := &builder{rules: synonym.NewRuleSet(), measures: sim.SetAll, q: sim.DefaultQ, t: core.DefaultT}
	for _, opt := range opts {
		if err := opt(b); err != nil {
			return nil, err
		}
	}
	ctx := &sim.Context{Q: b.q, Rules: b.rules, Tax: b.tax, Measures: b.measures}
	if b.tax != nil {
		b.tax.Finalize()
	}
	calc := core.NewCalculator(ctx)
	calc.T = b.t
	return &Joiner{ctx: ctx, calc: calc, joiner: join.NewJoiner(ctx)}, nil
}

// Similarity computes the unified similarity of two strings with the
// polynomial-time approximation (Algorithm 1).
func (j *Joiner) Similarity(s, t string) float64 { return j.calc.Similarity(s, t) }

// SimilarityExact computes the exact unified similarity by enumerating all
// well-defined partitions. The boolean reports whether the enumeration
// completed within its budget; when false the value is a lower bound.
func (j *Joiner) SimilarityExact(s, t string) (float64, bool) {
	res := j.calc.SimilarityExact(s, t)
	return res.Similarity, res.Complete
}

// Join finds all pairs (i from s, j from t) whose unified similarity
// reaches opts.Theta.
func (j *Joiner) Join(s, t []string, opts JoinOptions) ([]Match, Stats) {
	pairs, jstats := j.joiner.Join(strutil.NewCollection(s), strutil.NewCollection(t), opts.internal())
	return pairs, publicStats(jstats)
}

// SelfJoin finds all unordered pairs within one collection.
func (j *Joiner) SelfJoin(s []string, opts JoinOptions) ([]Match, Stats) {
	pairs, jstats := j.joiner.SelfJoin(strutil.NewCollection(s), opts.internal())
	return pairs, publicStats(jstats)
}

// JoinSeq is the streaming form of Join: it returns a Go 1.23 range-over-func
// sequence that yields a probe record's matches as soon as that record has
// been filtered and verified, in completion order (collect and sort by (S, T)
// to reproduce Join's order). All work — signature generation, filtering,
// verification — runs inside the consumer's range loop, and peak match
// buffering is bounded by the worker count, not the result size.
//
// Cancellation is cooperative and prompt: when ctx is cancelled or its
// deadline passes, the pipeline stops between candidates and the sequence
// yields one final non-nil error. Breaking out of the loop early stops the
// pipeline too, and is not an error. In both cases every internal goroutine
// is released before the range statement returns.
func (j *Joiner) JoinSeq(ctx context.Context, s, t []string, opts JoinOptions) iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		j.joiner.JoinSeq(ctx, strutil.NewCollection(s), strutil.NewCollection(t), opts.internal())(yield)
	}
}

// SelfJoinSeq is the streaming form of SelfJoin, under the same contract as
// JoinSeq: each unordered pair (i < j) is yielded at most once, in
// completion order.
func (j *Joiner) SelfJoinSeq(ctx context.Context, s []string, opts JoinOptions) iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		j.joiner.SelfJoinSeq(ctx, strutil.NewCollection(s), opts.internal())(yield)
	}
}

// QueryOptions carries per-request overrides for QueryCtx and QueryTopKCtx —
// parameters the batch Query/QueryTopK freeze at index build time. The zero
// value changes nothing.
type QueryOptions struct {
	// MinSimilarity overrides the similarity threshold for this request;
	// 0 keeps the build-time Theta. Values above the build-time Theta are
	// exact (the filter over-admits and verification tightens). Values below
	// it are rejected with ErrThetaBelowBuild: the candidate set is bounded
	// by the build-time filter, so no complete answer exists down there.
	MinSimilarity float64
	// K bounds the number of matches QueryTopKCtx returns; it is ignored by
	// QueryCtx, which returns every match. K ≤ 0 returns an empty result.
	K int
}

// ErrThetaBelowBuild is returned by QueryCtx and QueryTopKCtx when
// QueryOptions.MinSimilarity is below the Theta the index was built with;
// test for it with errors.Is.
var ErrThetaBelowBuild = join.ErrThetaBelowBuild

// internal maps the public options onto the internal join options.
func (o JoinOptions) internal() join.Options {
	return join.Options{Theta: o.Theta, Tau: o.Tau, Method: o.Filter.method(), Workers: o.Workers}
}

// internal maps the public options onto the internal per-request options.
func (o QueryOptions) internal() join.QueryOpts {
	return join.QueryOpts{Theta: o.MinSimilarity}
}

// Index is a dynamic, concurrently servable join target over one
// collection: the interned pebble order, the collection's signatures and
// prepared verification records, and the ID-indexed inverted index. Built
// once, it serves any number of concurrent Probe/Query/QueryTopK calls
// while Insert and Remove mutate the catalog: writers publish immutable
// snapshots (Snapshot), so reads never block and always observe a
// consistent catalog state. Theta, Tau and Filter are fixed at build time.
//
// An Index may be partitioned (IndexOptions.Shards): records are hashed by
// stable ID across independent shards that share one global pebble order
// and one prepared-record cache, so mutations on different shards proceed
// in parallel, a rebuild pauses writers of one shard only, and queries fan
// out across all shards with results independent of the shard count. One
// shard is the same engine with a fan-out of one.
type Index struct {
	inner *join.ShardedIndex
}

// IndexOptions configures the construction of an Index beyond the join
// parameters.
type IndexOptions struct {
	// Shards is the number of partitions the catalog is hashed across.
	// 0 selects GOMAXPROCS; 1 builds a single-partition index.
	// More shards mean more parallel mutation throughput and shorter
	// per-rebuild writer stalls, at the cost of one inverted index and
	// posting-array header block per shard.
	Shards int
}

// QueryMatch is one result of a single-string Query: the stable ID of the
// matched record and its unified similarity to the query. For records
// present since the build, the ID equals the record's position in the
// original collection; records added later get fresh IDs from Insert.
type QueryMatch struct {
	Record     int     `json:"record"`
	Similarity float64 `json:"similarity"`
}

// Index builds a probe-ready dynamic index over the collection. Theta, Tau
// and Filter are fixed at build time; re-tuning τ means building a new
// index. Each record's stable ID is its position in the input collection. The index has one
// shard; IndexWith chooses the shard count.
func (j *Joiner) Index(records []string, opts JoinOptions) *Index {
	return j.IndexWith(records, opts, IndexOptions{Shards: 1})
}

// IndexWith is Index with explicit construction options; IndexOptions
// {Shards: 1} is Index, and Shards = 0 partitions across GOMAXPROCS shards.
func (j *Joiner) IndexWith(records []string, opts JoinOptions, iopts IndexOptions) *Index {
	recs := strutil.NewCollection(records)
	return &Index{inner: j.joiner.BuildShardedIndex(recs, iopts.Shards, opts.internal(), join.DynamicOptions{})}
}

// Insert adds a batch of records to the indexed catalog and returns their
// stable IDs. New signature keys are interned into an append-only dynamic
// region of the pebble order and the records become immediately visible to
// subsequent snapshots; once the appended mass (or tombstone mass, or
// segment-chain length) of a shard crosses an internal threshold that shard
// rebuilds, pausing only its own writers. The batch is grouped by
// destination shard and inserted in parallel, taking each shard's writer
// lock once. Insert is safe to call concurrently with reads and
// other writers.
func (ix *Index) Insert(records []string) []int { return ix.inner.InsertBatch(records) }

// Remove deletes the record with the given stable ID from the catalog,
// reporting whether it was present. The record is tombstoned — skipped by
// all subsequent snapshots — and physically dropped at its shard's next
// rebuild.
func (ix *Index) Remove(id int) bool { return ix.inner.Remove(id) }

// RemoveBatch deletes a batch of records by stable ID, reporting per ID
// whether it was present and live. IDs are grouped by shard and removed in
// parallel, each shard taking its writer lock — and publishing a snapshot —
// once for the whole batch.
func (ix *Index) RemoveBatch(ids []int) []bool { return ix.inner.RemoveBatch(ids) }

// Snapshot returns an immutable view of the catalog as of now. All View
// methods are lock-free and safe for unbounded concurrency; later Insert
// and Remove calls do not affect it. Probe/Query/QueryTopK on the Index are
// shorthands for the same calls on a fresh snapshot.
func (ix *Index) Snapshot() *View { return &View{inner: ix.inner.Snapshot()} }

// Stats summarises the current state of the dynamic index.
func (ix *Index) Stats() IndexStats { return ix.inner.Stats() }

// Probe joins a collection of strings against the current snapshot.
func (ix *Index) Probe(records []string) ([]Match, Stats) {
	return ix.Snapshot().Probe(records)
}

// ProbeSeq is the streaming form of Probe against the current snapshot,
// under the same contract as Joiner.JoinSeq: matches are yielded in
// completion order, breaking out stops the pipeline, and a ctx cancellation
// surfaces as one final error.
func (ix *Index) ProbeSeq(ctx context.Context, records []string) iter.Seq2[Match, error] {
	return ix.Snapshot().ProbeSeq(ctx, records)
}

// Query runs the filter-and-verify pipeline for a single string against
// the current snapshot and returns the matching records in ascending
// stable-ID order.
func (ix *Index) Query(q string) []QueryMatch { return ix.Snapshot().Query(q) }

// QueryCtx is Query with cooperative cancellation and per-request options;
// see View.QueryCtx.
func (ix *Index) QueryCtx(ctx context.Context, q string, opts QueryOptions) ([]QueryMatch, error) {
	return ix.Snapshot().QueryCtx(ctx, q, opts)
}

// QueryTopK returns the k best matches for q in the current snapshot,
// ordered by descending similarity.
func (ix *Index) QueryTopK(q string, k int) []QueryMatch {
	return ix.Snapshot().QueryTopK(q, k)
}

// QueryTopKCtx is QueryTopK with cooperative cancellation and per-request
// options; see View.QueryTopKCtx.
func (ix *Index) QueryTopKCtx(ctx context.Context, q string, opts QueryOptions) ([]QueryMatch, error) {
	return ix.Snapshot().QueryTopKCtx(ctx, q, opts)
}

// IndexStats describes one snapshot of a dynamic Index: catalog size and
// tombstone counts, the delta-segment chain, the shard count, the
// interned-key split between the frozen order prefix and the dynamic
// region, the rebuild history, and the cumulative filter, verify and
// prepared-record cache counters. Its JSON encoding is the daemons' /stats
// response.
type IndexStats = join.DynamicStats

// View is an immutable snapshot of an Index. Reads against a View are
// lock-free, safe for unbounded concurrency, and unaffected by concurrent
// Insert/Remove activity on the Index it came from.
type View struct {
	inner *join.ShardedView
}

// Stats returns the snapshot's statistics.
func (v *View) Stats() IndexStats { return v.inner.Stats() }

// Probe joins a collection of strings against the snapshot. Match.S is the
// stable ID of the indexed record, Match.T the position in the probe
// collection.
func (v *View) Probe(records []string) ([]Match, Stats) {
	pairs, jstats := v.inner.Probe(strutil.NewCollection(records))
	return pairs, publicStats(jstats)
}

// ProbeSeq is the streaming form of Probe, under the same contract as
// Joiner.JoinSeq: matches are yielded in completion order, a probe record's
// as soon as the worker that filtered it has verified its candidates,
// breaking out of the range loop stops the pipeline, and a ctx cancellation
// or deadline surfaces as one final non-nil error.
func (v *View) ProbeSeq(ctx context.Context, records []string) iter.Seq2[Match, error] {
	return v.inner.ProbeSeq(ctx, strutil.NewCollection(records))
}

// Query runs the filter-and-verify pipeline for a single string and
// returns the matching records in ascending stable-ID order. An empty (or
// all-whitespace) query returns no matches without touching the index.
func (v *View) Query(q string) []QueryMatch {
	hits, _ := v.QueryCtx(context.Background(), q, QueryOptions{})
	return hits
}

// QueryCtx is Query with cooperative cancellation and per-request overrides:
// verification checks ctx between candidates (aborting every shard on the
// first cancellation) and opts may raise the similarity threshold for this
// call only; a MinSimilarity below the build-time Theta fails with ErrThetaBelowBuild.
// opts.K is ignored — every match is returned; use QueryTopKCtx for a
// bounded result.
func (v *View) QueryCtx(ctx context.Context, q string, opts QueryOptions) ([]QueryMatch, error) {
	hits, err := v.inner.ProbeRecordCtx(ctx, strutil.Tokenize(q), opts.internal())
	if err != nil {
		return nil, err
	}
	return convertHits(hits), nil
}

// QueryTopK returns the k best matches for q, ordered by descending
// similarity (ascending ID on ties). The candidate scan is thresholded at
// the index θ and a bounded heap keeps memory O(k) per shard; the per-shard
// top-k streams are merged through one more k-bounded heap. k ≤ 0 and empty
// queries return an empty slice without touching the index.
func (v *View) QueryTopK(q string, k int) []QueryMatch {
	hits, _ := v.QueryTopKCtx(context.Background(), q, QueryOptions{K: k})
	return hits
}

// QueryTopKCtx is QueryTopK with cooperative cancellation and per-request
// overrides (the result size comes from opts.K). Verification checks ctx
// between candidates, aborting every shard on the first cancellation; opts
// may also raise the similarity threshold (lowering it below the build-time
// Theta fails with ErrThetaBelowBuild).
func (v *View) QueryTopKCtx(ctx context.Context, q string, opts QueryOptions) ([]QueryMatch, error) {
	if opts.K <= 0 {
		return []QueryMatch{}, ctx.Err()
	}
	hits, err := v.inner.QueryTopKCtx(ctx, strutil.Tokenize(q), opts.K, opts.internal())
	if err != nil {
		return nil, err
	}
	return convertHits(hits), nil
}

// convertHits maps internal query results onto the public type.
func convertHits(hits []join.QueryMatch) []QueryMatch {
	out := make([]QueryMatch, len(hits))
	for i, h := range hits {
		out[i] = QueryMatch{Record: h.Record, Similarity: h.Similarity}
	}
	return out
}

// publicStats maps the internal join statistics onto the public type.
func publicStats(jstats join.Stats) Stats {
	return Stats{
		Candidates:      jstats.Candidates,
		ShardCandidates: jstats.ShardCandidates,
		Results:         jstats.Results,
		FilterPostings:  jstats.ProcessedPairs,
		BitsetTokens:    jstats.BitsetTokens,
		SliceTokens:     jstats.SliceTokens,
		VerifyStats:     jstats.VerifyStats,
		Tau:             jstats.Tau,
		FilterTime:      jstats.SignatureTime + jstats.FilterTime,
		VerifyTime:      jstats.VerifyTime,
	}
}

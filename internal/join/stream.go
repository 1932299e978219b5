package join

import (
	"context"
	"iter"
	"runtime"
	"sync"
	"time"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/strutil"
)

// This file is the batch probe: a join is the single-record request of
// shard.go run once per probe record. probeAll hands the records of a
// prepared, signed collection to W workers; a worker runs its record's
// request on every shard of the view in turn (shardView.serve: count filter,
// bound pass, verification), turns the matches into pairs and pushes them into
// a bounded emit channel when the record is done, and a single collector
// goroutine (the caller's) hands them to an emit callback as they arrive. A
// record's candidates live in its shard's pooled scratch and are gone when
// the next record starts, so a join holds O(workers × one record's
// candidates) whatever the collections' sizes, peak Pair buffering is
// O(workers·emitBatch) whatever the result size, and the first match is out
// after one record's filter-and-verify. Every entry point — batch
// Join/Probe/SelfJoin as much as the iter.Seq2 streaming variants — is this
// loop; the batch forms collect what it emits and sort.
//
// Cancellation is cooperative and prompt: a worker checks the context before
// it takes a record, verification checks it between candidates, and a
// consumer abandoning an iter.Seq2 mid-stream cancels an internal context
// that unblocks every worker parked on the emit channel. No goroutine
// outlives its seq iteration.

// emitBatch is the most pairs a worker holds back before it hands them to the
// collector (it also hands over whatever it holds at the end of every probe
// record), which is what bounds the streaming path's Pair buffering at
// O(workers·emitBatch).
const emitBatch = 64

// ctxCheckStride bounds how many loop iterations a sequential stage runs
// between context checks; Err on an idle context is a few nanoseconds, so a
// small stride keeps cancellation prompt without measurable overhead.
const ctxCheckStride = 16

// forCtx runs fn(i) for i in [0, n) on the calling goroutine, checking ctx
// every ctxCheckStride iterations, and returns the context error if the run
// was cut short or the context ended with it.
func forCtx(ctx context.Context, n int, fn func(i int)) error {
	for i := 0; i < n; i++ {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		fn(i)
	}
	return ctx.Err()
}

// parallelForWorkersCtx is the package's one channel-fed worker loop: it runs
// fn(worker, i) for i in [0, n) across the given number of workers (GOMAXPROCS
// when workers ≤ 0; inline when there is one, or one item). The worker index
// lets callers keep per-worker scratch without synchronisation: each index in
// [0, workers) is used by exactly one goroutine. Cancellation is cooperative:
// once ctx is done, no new index is dispatched, workers skip whatever is
// still queued, and — crucially — the context error is reported even when
// the cancellation raced with the end of the dispatch loop, so a caller can
// never mistake a run with silently skipped items for a complete one.
func parallelForWorkersCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n <= 1 || workers == 1 {
		return forCtx(ctx, n, func(i int) { fn(0, i) })
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		goPipeline(func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() == nil {
					fn(w, i)
				}
			}
		})
	}
	done := ctx.Done()
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-done:
			break feed
		}
	}
	close(next)
	wg.Wait()
	// The final check (not the feed loop) is authoritative: a cancellation
	// landing after the last dispatch still made workers skip queued items.
	return ctx.Err()
}

// pairBatchPool recycles the emit batches flowing from the probe workers to
// the collector, so steady-state match emission allocates nothing.
var pairBatchPool = sync.Pool{
	New: func() any {
		s := make([]Pair, 0, emitBatch)
		return &s
	},
}

// probeTally is the work one worker of the batch loop did on one shard, summed
// over the requests it ran there: the counters of both stages, the candidates
// the filter admitted, and the time each stage took.
type probeTally struct {
	counters
	candidates int
	filterTime time.Duration
	verifyTime time.Duration
}

func (t *probeTally) add(o probeTally) {
	t.counters.add(o.counters)
	t.candidates += o.candidates
	t.filterTime += o.filterTime
	t.verifyTime += o.verifyTime
}

// probeWorker is what one worker of the batch loop owns: the request it
// reuses for every record it takes, its tallies (one a shard), and the pairs
// it has confirmed and not yet handed to the collector.
type probeWorker struct {
	rq      request
	tallies []probeTally
	batch   *[]Pair
}

// flush hands the worker's pending pairs to the collector, or recycles them
// when the run was cancelled.
func (pw *probeWorker) flush(ctx context.Context, out chan<- *[]Pair) {
	b := pw.batch
	if b == nil {
		return
	}
	pw.batch = nil
	select {
	case out <- b:
	case <-ctx.Done():
		*b = (*b)[:0]
		pairBatchPool.Put(b)
	}
}

// probe runs one probe record's request on every shard of the view in turn
// and hands the pairs it confirmed to the collector: at emitBatch, and
// whatever is left when the record is done, so a match never waits for a
// later record.
func (pw *probeWorker) probe(ctx context.Context, sv *ShardedView, id int, out chan<- *[]Pair) {
	rq := &pw.rq
	for w, v := range sv.views {
		rq.tally = &pw.tallies[w]
		matches, err := v.serve(ctx, rq)
		if err != nil {
			break // cancelled: the loop reports the context's error
		}
		for _, m := range matches {
			if pw.batch == nil {
				pw.batch = pairBatchPool.Get().(*[]Pair)
			}
			*pw.batch = append(*pw.batch, Pair{S: m.Record, T: id, Similarity: m.Similarity})
			if len(*pw.batch) >= emitBatch {
				pw.flush(ctx, out)
			}
		}
		rq.matches = matches[:0]
	}
	pw.flush(ctx, out)
}

// collectStream drives one producer goroutine that sends pair batches to a
// bounded channel and forwards each pair to emit on the caller's goroutine,
// returning consumed batches to the pool. When emit returns false the
// internal context is cancelled, the channel drained, and the producer
// joined — the consumer walking away mid-stream leaks nothing and is not an
// error. The returned count is the number of pairs emitted.
func collectStream(ctx context.Context, workers int, produce func(ctx context.Context, out chan<- *[]Pair) error, emit func(Pair) bool) (int, error) {
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make(chan *[]Pair, workers) // a slot a worker: none waits on a sibling's hand-over
	done := make(chan error, 1)
	goPipeline(func() {
		err := produce(ictx, out)
		close(out)
		done <- err
	})
	emitted := 0
	stopped := false
	for batch := range out {
		for _, p := range *batch {
			if stopped {
				break
			}
			if !emit(p) {
				stopped = true
				cancel()
				break
			}
			emitted++
		}
		*batch = (*batch)[:0]
		pairBatchPool.Put(batch)
	}
	err := <-done
	if stopped {
		// The consumer broke out of the stream; the induced cancellation is
		// bookkeeping, not a failure.
		return emitted, nil
	}
	return emitted, err
}

// probeAll is the batch probe loop: it runs one request a probe record —
// ready-made signature IDs and prepared record, at the build configuration,
// keeping every match reaching θ — against every shard of the view, on as many
// workers as the index's options ask for (no more than there are records), and
// invokes emit for every confirmed pair in completion order (unordered across
// workers) on the caller's goroutine. Workers take records as they come free,
// so a self-join's growing prefix stays balanced; one worker runs all of a
// record's shards and all of its candidates, so a record's msim rows are
// evaluated once whatever the worker count. In self mode the view is the one-shard
// view of a static base and the records are its own: record t is probed
// against the positions below t. It returns the statistics accumulated up to
// the point of return and the context error when the run was cancelled.
func (sv *ShardedView) probeAll(ctx context.Context, records []strutil.Record, sigs [][]uint32, prep []*core.PreparedRecord, self bool, sigTime time.Duration, emit func(Pair) bool) (Stats, error) {
	sx := sv.sx
	stats := Stats{Tau: sx.tau, SignatureTime: sigTime, ShardCandidates: make([]int, len(sv.views))}
	live, sigMass := 0, 0.0
	for _, v := range sv.views {
		live += v.live
		sigMass += v.avgSig * float64(v.live)
	}
	if live > 0 {
		stats.AvgSignatureS = sigMass / float64(live)
	}
	if len(records) == 0 {
		return stats, ctx.Err()
	}
	sigLen := 0
	for _, ids := range sigs {
		sigLen += len(ids)
	}
	stats.AvgSignatureT = float64(sigLen) / float64(len(records))

	workers := min(sx.opts.workers(), len(records))
	ws := make([]probeWorker, workers)
	for w := range ws {
		ws[w].tallies = make([]probeTally, len(sv.views))
		ws[w].rq = request{tau: sx.tau, k: unboundedK, limit: noLimit}
	}
	results, err := collectStream(ctx, workers, func(ictx context.Context, out chan<- *[]Pair) error {
		return parallelForWorkersCtx(ictx, len(records), workers, func(w, t int) {
			// The inline one-worker loop looks at the context only every
			// ctxCheckStride records; a cancelled join takes no further one.
			if ictx.Err() != nil {
				return
			}
			pw := &ws[w]
			pw.rq.pq, pw.rq.ids = prep[t], sigs[t]
			if self {
				pw.rq.limit = t
			}
			pw.probe(ictx, sv, records[t].ID, out)
		})
	}, emit)

	// The producer has returned: fold the workers' tallies. The stage times
	// reported are the slowest worker's.
	for w := range ws {
		var sum probeTally
		for s, t := range ws[w].tallies {
			sum.add(t)
			stats.ShardCandidates[s] += t.candidates
		}
		stats.Candidates += sum.candidates
		stats.ProcessedPairs += sum.ProbePostings
		stats.BitsetTokens += sum.ProbeBitsetTokens
		stats.SliceTokens += sum.ProbeSliceTokens
		stats.VerifyStats.Add(sum.VerifyStats)
		if sum.filterTime+sum.verifyTime > stats.FilterTime+stats.VerifyTime {
			stats.FilterTime, stats.VerifyTime = sum.filterTime, sum.verifyTime
		}
	}
	stats.Results = results
	return stats, err
}

// pairSeq adapts a streaming run function into an iter.Seq2: the run executes
// inside the consumer's range loop, forwarding pairs through yield; a
// consumer break stops the run (and its goroutines) before the range
// statement returns, and a cancellation surfaces as one final yielded error.
func pairSeq(ctx context.Context, run func(ctx context.Context, emit func(Pair) bool) error) iter.Seq2[Pair, error] {
	return func(yield func(Pair, error) bool) {
		stopped := false
		err := run(ctx, func(p Pair) bool {
			if !yield(p, nil) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil && !stopped {
			yield(Pair{}, err)
		}
	}
}

// JoinSeq is the streaming form of Join: it yields matching pairs in
// verification-completion order (sort by (S, T) for Join's order) as they are
// confirmed, instead of buffering the full result — the first as soon as the
// first matching probe record has been filtered and verified. The work —
// order construction, signatures, filtering, verification — runs inside the
// consumer's range loop; breaking out of the loop stops the pipeline and
// releases its goroutines, and a ctx cancellation or deadline surfaces as one
// final non-nil error.
func (j *Joiner) JoinSeq(ctx context.Context, s, t []strutil.Record, opts Options) iter.Seq2[Pair, error] {
	return pairSeq(ctx, func(ctx context.Context, emit func(Pair) bool) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		_, err := j.joinStream(ctx, s, t, opts, emit)
		return err
	})
}

// joinStream is the shared body of Join and JoinSeq: both collections are
// prepared once, the order counted over both by key number and every record
// of both signed through its probe table, and index building is folded into
// the reported SignatureTime.
func (j *Joiner) joinStream(ctx context.Context, s, t []strutil.Record, opts Options, emit func(Pair) bool) (Stats, error) {
	start := time.Now()
	sv, prepT, sigT := j.joinIndex(s, t, opts)
	return sv.probeAll(ctx, t, sigT, prepT, false, time.Since(start), emit)
}

// joinIndex is the build half of Join: a router of the join's own — its
// dictionary, its cache — with one shard over s under an order spanning both
// collections, and t prepared and signed for probing it.
func (j *Joiner) joinIndex(s, t []strutil.Record, opts Options) (*ShardedView, []*core.PreparedRecord, [][]uint32) {
	start, sx := time.Now(), j.newRouter(opts, DynamicOptions{})
	prepS := prepareRecords(s, sx.dict, j.calc.PrepareIn)
	prepT := prepareRecords(t, sx.dict, j.calc.PrepareProbe)
	sx.install(j.orderOf(sx.dict, prepS, prepT), []part{{records: s, prepared: prepS}}, start)
	sv := sx.Snapshot()
	return sv, prepT, selectSignatures(prepT, sv.gen, opts.Method, sx.tau)
}

// SelfJoinSeq is the streaming form of SelfJoin: each unordered pair (i < j)
// is yielded at most once, in completion order.
func (j *Joiner) SelfJoinSeq(ctx context.Context, s []strutil.Record, opts Options) iter.Seq2[Pair, error] {
	return pairSeq(ctx, func(ctx context.Context, emit func(Pair) bool) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		_, err := j.selfStream(ctx, s, opts, emit)
		return err
	})
}

// selfStream is the shared body of SelfJoin and SelfJoinSeq: it builds a
// one-shard index over s and runs the batch loop against the shard's own
// records, over the signatures and prepared records the build already made.
// The shard holds s in input order, so record t is probed against the
// positions below t.
func (j *Joiner) selfStream(ctx context.Context, s []strutil.Record, opts Options, emit func(Pair) bool) (Stats, error) {
	sv := j.BuildShardedIndex(s, 1, opts, DynamicOptions{}).Snapshot()
	v := sv.views[0]
	return sv.probeAll(ctx, v.records, v.sigIDs, v.prepared, true, v.buildTime, emit)
}

// probeStream prepares the probe records against the index's dictionary,
// selects their signatures under the build configuration and runs the batch
// loop; it is the shared body of Probe and ProbeSeq. The preparation and
// selection are folded into the reported SignatureTime: all of it is
// per-record preprocessing paid once per probe collection.
func (sv *ShardedView) probeStream(ctx context.Context, records []strutil.Record, emit func(Pair) bool) (Stats, error) {
	start := time.Now()
	sx := sv.sx
	prep := prepareRecords(records, sx.dict, sx.joiner.calc.PrepareProbe)
	sigs := selectSignatures(prep, sv.gen, sx.opts.Method, sx.tau)
	return sv.probeAll(ctx, records, sigs, prep, false, time.Since(start), emit)
}

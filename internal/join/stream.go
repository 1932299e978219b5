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

// This file is the streaming heart of the join pipeline. Every entry point —
// batch Join/Probe/SelfJoin as much as the iter.Seq2 streaming variants —
// runs through runProbeStream: candidate generation feeds a parallel
// verification stage whose workers push confirmed pairs into a bounded emit
// channel, and a single collector goroutine (the caller's) hands them to an
// emit callback as they arrive. Peak Match buffering is therefore
// O(workers·emitBatch) regardless of the result size; the batch wrappers
// simply collect and sort, so there is one pipeline, not two.
//
// Cancellation is cooperative and prompt: the candidate stage checks the
// context between probe records, verification workers between candidate
// pairs, and a consumer abandoning an iter.Seq2 mid-stream cancels an
// internal context that unblocks every worker parked on the emit channel.
// No goroutine outlives its seq iteration.

// emitBatch is the per-worker slack of the bounded emit channel: verification
// workers may run at most this many confirmed matches ahead of the consumer
// before they block, which is what bounds the streaming path's Match
// buffering at O(workers·emitBatch).
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

// parallelForWorkersCtx is parallelForWorkers with cooperative cancellation:
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

// verifyTally aggregates verify-phase work counters across the workers of
// one run; the values feed Stats and the cumulative index atomics.
type verifyTally struct {
	verified      int64
	pruned        int64
	prunedByCover int64
	memoHits      int64
	msimEvals     int64
}

func (t *verifyTally) addScratch(sc *core.Scratch) {
	if sc == nil {
		return
	}
	t.verified += sc.Stats.Verified
	t.pruned += sc.Stats.PrunedByBound
	t.prunedByCover += sc.Stats.PrunedByCover
	t.memoHits += sc.Stats.MemoHits
	t.msimEvals += sc.Stats.MSimEvals
}

// pairBatchPool recycles the emit batches flowing from verification workers
// to the collector, so steady-state match emission allocates nothing.
var pairBatchPool = sync.Pool{
	New: func() any {
		s := make([]Pair, 0, emitBatch)
		return &s
	},
}

// streamVerify runs the thresholded prepared-record verification of the
// candidate pairs in parallel, with one similarity scratch per worker, and
// sends every pair reaching theta to out in completion order, batched in
// pooled slices of up to emitBatch pairs. It returns nil after the last
// send, or the context error when cancelled; it never closes out (the caller
// owns the channel). When vt is non-nil, the workers' verify counters are
// accumulated into it before returning.
func streamVerify(ctx context.Context, s, t []strutil.Record, prepS, prepT []*core.PreparedRecord, candidates []pairKey, calc *core.Calculator, theta float64, workers int, out chan<- []Pair, vt *verifyTally) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	scratches := make([]*core.Scratch, workers)
	batches := make([]*[]Pair, workers)
	done := ctx.Done()
	flush := func(w int) {
		b := batches[w]
		if b == nil || len(*b) == 0 {
			return
		}
		batches[w] = nil
		select {
		case out <- *b:
		case <-done:
			*b = (*b)[:0]
			pairBatchPool.Put(b)
		}
	}
	err := parallelForWorkersCtx(ctx, len(candidates), workers, func(w, i int) {
		c := candidates[i]
		if c.s >= len(s) || c.t >= len(t) {
			return
		}
		sc := scratches[w]
		if sc == nil {
			sc = core.NewScratch()
			scratches[w] = sc
		}
		if v, ok := calc.VerifyPrepared(prepS[c.s], prepT[c.t], theta, sc); ok {
			b := batches[w]
			if b == nil {
				b = pairBatchPool.Get().(*[]Pair)
				batches[w] = b
			}
			*b = append(*b, Pair{S: s[c.s].ID, T: t[c.t].ID, Similarity: v})
			if len(*b) >= emitBatch {
				flush(w)
			}
		}
	})
	// Workers have all returned; hand their partial batches to the collector
	// and fold their counters.
	for w := range batches {
		flush(w)
	}
	if vt != nil {
		for _, sc := range scratches {
			vt.addScratch(sc)
		}
	}
	return err
}

// collectStream drives one producer goroutine that sends pair batches to a
// bounded channel and forwards each pair to emit on the caller's goroutine,
// returning consumed batches to the pool. When emit returns false the
// internal context is cancelled, the channel drained, and the producer
// joined — the consumer walking away mid-stream leaks nothing and is not an
// error. The returned count is the number of pairs emitted.
func collectStream(ctx context.Context, workers int, produce func(ctx context.Context, out chan<- []Pair) error, emit func(Pair) bool) (int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make(chan []Pair, workers)
	done := make(chan error, 1)
	goPipeline(func() {
		err := produce(ictx, out)
		close(out)
		done <- err
	})
	emitted := 0
	stopped := false
	for batch := range out {
		for _, p := range batch {
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
		batch = batch[:0]
		pairBatchPool.Put(&batch)
	}
	err := <-done
	if stopped {
		// The consumer broke out of the stream; the induced cancellation is
		// bookkeeping, not a failure.
		return emitted, nil
	}
	return emitted, err
}

// runProbeStream runs candidate generation and streaming verification for
// ready-made probe signatures against a probe target, invoking emit for every
// confirmed pair in completion order (unordered across workers) on the
// caller's goroutine. It returns the join statistics accumulated up to the
// point of return and the context error when the run was cancelled. The
// batch collectPairs wrappers and every Seq entry point ride this one
// pipeline.
func runProbeStream(ctx context.Context, calc *core.Calculator, opts Options, tgt probeTarget, records []strutil.Record, sigs [][]uint32, prep []*core.PreparedRecord, self bool, sigTime time.Duration, emit func(Pair) bool) (Stats, error) {
	var stats Stats
	stats.Tau = opts.tau()
	stats.SignatureTime = sigTime
	stats.AvgSignatureS = tgt.avgSig
	if self {
		stats.AvgSignatureT = tgt.avgSig
	} else if len(records) > 0 {
		total := 0
		for i := range sigs {
			total += len(sigs[i])
		}
		stats.AvgSignatureT = float64(total) / float64(len(records))
	}

	start := time.Now()
	candidates, tally, err := tgt.candidates(ctx, sigs, opts.workers())
	stats.ProcessedPairs = tally.postings
	stats.BitsetTokens = tally.bitsetTokens
	stats.SliceTokens = tally.sliceTokens
	stats.Candidates = len(candidates)
	stats.FilterTime = time.Since(start)
	if err != nil {
		return stats, err
	}

	start = time.Now()
	var vt verifyTally
	results, err := collectStream(ctx, opts.workers(), func(ictx context.Context, out chan<- []Pair) error {
		return streamVerify(ictx, tgt.records, records, tgt.prepared, prep, candidates, calc, opts.Theta, opts.workers(), out, &vt)
	}, emit)
	stats.VerifyTime = time.Since(start)
	stats.VerifiedCandidates = vt.verified
	stats.PrunedByBound = vt.pruned
	stats.PrunedByCover = vt.prunedByCover
	stats.MemoHits = vt.memoHits
	stats.MSimEvals = vt.msimEvals
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
// confirmed, instead of buffering the full result. The work — order
// construction, signatures, filtering, verification — runs inside the
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
// prepared once, the order counted and every signature selected from the
// prepared records, and index building is folded into the reported
// SignatureTime.
func (j *Joiner) joinStream(ctx context.Context, s, t []strutil.Record, opts Options, emit func(Pair) bool) (Stats, error) {
	start := time.Now()
	ix, prepT := j.joinIndex(s, t, opts)
	return ix.probePrepared(ctx, t, prepT, time.Since(start), emit)
}

// SelfJoinSeq is the streaming form of SelfJoin: each unordered pair (i < j)
// is yielded at most once, in completion order.
func (j *Joiner) SelfJoinSeq(ctx context.Context, s []strutil.Record, opts Options) iter.Seq2[Pair, error] {
	return pairSeq(ctx, func(ctx context.Context, emit func(Pair) bool) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		_, err := j.BuildIndex(s, opts).selfStream(ctx, emit)
		return err
	})
}

// ProbeSeq is the streaming form of Probe against the prebuilt index: matches
// are yielded in completion order as the parallel verify stage confirms them.
func (ix *Index) ProbeSeq(ctx context.Context, records []strutil.Record) iter.Seq2[Pair, error] {
	return pairSeq(ctx, func(ctx context.Context, emit func(Pair) bool) error {
		_, err := ix.probeStream(ctx, records, emit)
		return err
	})
}

// SelfJoinSeq is the streaming form of Index.SelfJoin.
func (ix *Index) SelfJoinSeq(ctx context.Context) iter.Seq2[Pair, error] {
	return pairSeq(ctx, func(ctx context.Context, emit func(Pair) bool) error {
		_, err := ix.selfStream(ctx, emit)
		return err
	})
}

// selfStream runs the streaming pipeline of the indexed collection against
// itself, over the signatures and prepared records the build already made.
func (ix *Index) selfStream(ctx context.Context, emit func(Pair) bool) (Stats, error) {
	return runProbeStream(ctx, ix.calc, ix.opts, ix.target(true), ix.records, ix.sigIDs, ix.prepared, true, ix.BuildTime, emit)
}

// probeStream prepares the probe records against the index's dictionary and
// runs the streaming pipeline; it is the shared body of Probe and ProbeSeq.
func (ix *Index) probeStream(ctx context.Context, records []strutil.Record, emit func(Pair) bool) (Stats, error) {
	start := time.Now()
	prep := prepareRecords(records, ix.dict, ix.calc.PrepareProbe)
	return ix.probePrepared(ctx, records, prep, time.Since(start), emit)
}

// probePrepared selects the prepared probe records' signatures and runs the
// streaming pipeline. prepTime is folded into the reported SignatureTime
// with the selection (the Join entry points count index building there too):
// all of it is per-record preprocessing paid once per probe collection.
func (ix *Index) probePrepared(ctx context.Context, records []strutil.Record, prep []*core.PreparedRecord, prepTime time.Duration, emit func(Pair) bool) (Stats, error) {
	start := time.Now()
	sigs := selectSignatures(prep, ix.sel, ix.opts.Method, ix.tau)
	return runProbeStream(ctx, ix.calc, ix.opts, ix.target(false), records, sigs, prep, false, prepTime+time.Since(start), emit)
}

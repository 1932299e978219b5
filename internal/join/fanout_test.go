package join

import (
	"context"
	"testing"
	"time"

	"github.com/aujoin/aujoin/internal/pebble"
)

// TestFanoutReturnsCallerContextError pins the fan-out's error contract on a
// 4-shard view: a shard fails only when the caller's context ends, so a
// withdrawn request — cancelled, or past its deadline — gets that context's
// error back bare, with every sibling goroutine gone, and a request that runs
// to the end gets no error at all.
func TestFanoutReturnsCallerContextError(t *testing.T) {
	j := NewJoiner(paperContext())
	corpus := denseCorpus(40, 3, 1)
	sv := j.BuildShardedIndex(corpus, 4, Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}, DynamicOptions{}).Snapshot()
	if len(sv.views) != 4 {
		t.Fatalf("%d shard views, want 4", len(sv.views))
	}
	q := corpus[0].Tokens

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, stop := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer stop()
	for _, ctx := range []context.Context{cancelled, expired} {
		if _, err := sv.QueryTopKCtx(ctx, q, 10, QueryOpts{}); err != ctx.Err() {
			t.Errorf("top-k under %v: error %v, want it bare", ctx.Err(), err)
		}
		if _, err := sv.QueryTopKCtx(ctx, q, 0, QueryOpts{}); err != ctx.Err() {
			t.Errorf("threshold query under %v: error %v, want it bare", ctx.Err(), err)
		}
	}
	checkGoroutines(t)

	matches, err := sv.QueryTopKCtx(context.Background(), q, 10, QueryOpts{})
	if err != nil || len(matches) == 0 {
		t.Fatalf("completed top-k: %d matches, error %v; want the record itself and no error", len(matches), err)
	}
	if _, err := sv.QueryTopKCtx(context.Background(), q, 0, QueryOpts{}); err != nil {
		t.Fatalf("completed threshold query: error %v", err)
	}
}

// TestQueryAllocsPinned keeps the fan-out honest: a fan-out of one must cost
// no more heap objects than the direct call it replaced. The ceilings are the
// measured allocations per default request, Snapshot included: one atomic
// load, which allocates nothing, so a one-shard read allocates nothing at
// all. Skipped with
// -short, which is how the race job runs: the race detector's sync.Pool drops
// items and inflates the counts.
func TestQueryAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are only meaningful without -race; skipped with -short")
	}
	j := NewJoiner(paperContext())
	probe := benchCorpus(64, 9)
	ctx, qo := context.Background(), QueryOpts{}
	for _, pin := range []struct{ shards, topK, probe int }{{1, 0, 0}, {3, 4, 4}} {
		sx := j.BuildShardedIndex(benchCorpus(400, 1), pin.shards, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
		i := 0
		topK := testing.AllocsPerRun(10*len(probe), func() {
			sx.Snapshot().QueryTopKCtx(ctx, probe[i%len(probe)].Tokens, 10, qo)
			i++
		})
		rec := testing.AllocsPerRun(10*len(probe), func() {
			sx.Snapshot().QueryTopKCtx(ctx, probe[i%len(probe)].Tokens, 0, qo)
			i++
		})
		t.Logf("shards=%d: %.0f allocs per top-k query, %.0f per threshold query", pin.shards, topK, rec)
		if topK > float64(pin.topK) || rec > float64(pin.probe) {
			t.Errorf("shards=%d: allocs per query top-k %.0f (ceiling %d), threshold %.0f (ceiling %d)",
				pin.shards, topK, pin.topK, rec, pin.probe)
		}
	}
}

// TestJoinBuildAllocsPinned caps the heap objects the build half of a
// one-shot join makes per record: joinIndex prepares both collections,
// counts the order over their key numbers, signs every record — the indexed
// side's and the probe side's — through the probe table with one reused
// pebble buffer and AccTable a worker, and builds the index. The ceiling is
// the measured count rounded up to the next 0.25 (AllocsPerRun runs at
// GOMAXPROCS 1, so the worker loops run inline whatever the machine), close
// enough that one more object a record on either selector's path — the
// DP's included, whose group tables share the selection's one arena — fails
// it.
// Skipped with -short, as the query pins are.
func TestJoinBuildAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are only meaningful without -race; skipped with -short")
	}
	j := NewJoiner(paperContext())
	s, u := benchCorpus(400, 1), benchCorpus(400, 2)
	for _, pin := range []struct {
		method  pebble.Method
		ceiling float64
	}{{pebble.AUDP, 3.75}, {pebble.AUHeuristic, 3.75}} {
		opts := Options{Theta: 0.8, Tau: 2, Method: pin.method}
		perRecord := testing.AllocsPerRun(5, func() { j.joinIndex(s, u, opts) }) / float64(len(s)+len(u))
		t.Logf("%v: %.2f allocs per record", pin.method, perRecord)
		if perRecord > pin.ceiling {
			t.Errorf("%v: %.2f allocs per record built and signed (ceiling %v)", pin.method, perRecord, pin.ceiling)
		}
	}
}

package join

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
)

// TestFanoutStructuredError pins the partial-failure contract of the shard
// fan-out: real shard failures surface as one *FanoutError naming every
// failing shard with its own error, siblings that merely observed the
// resulting internal cancellation are omitted as collateral, and a caller
// whose own context was cancelled gets that cancellation back bare.
func TestFanoutStructuredError(t *testing.T) {
	j := NewJoiner(paperContext())
	sx := j.BuildShardedIndex(denseCorpus(40, 3, 1), 4,
		Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
	sv := sx.Snapshot()

	boom1 := errors.New("disk on fire")
	boom3 := errors.New("bad postings")
	// fanout runs fn over a request sized like a real one: four result slots.
	fanout := func(ctx context.Context, fn func(ctx context.Context, w int) error) error {
		rq := &request{sv: sv, errs: make([]error, len(sv.views))}
		return rq.fanout(ctx, func(_ *request, ctx context.Context, w int) error { return fn(ctx, w) })
	}
	err := fanout(context.Background(), func(ctx context.Context, w int) error {
		switch w {
		case 1:
			return boom1
		case 3:
			return boom3
		default:
			<-ctx.Done() // sibling parked until the failure cancels it
			return ctx.Err()
		}
	})
	var fe *FanoutError
	if !errors.As(err, &fe) {
		t.Fatalf("fanout error = %T (%v), want *FanoutError", err, err)
	}
	if fe.Label != "shard" || fe.Total != 4 {
		t.Errorf("FanoutError label/total = %q/%d, want shard/4", fe.Label, fe.Total)
	}
	if len(fe.Failed) != 2 || fe.Failed[0] != 1 || fe.Failed[1] != 3 {
		t.Errorf("FanoutError.Failed = %v, want [1 3]", fe.Failed)
	}
	if !errors.Is(err, boom1) || !errors.Is(err, boom3) {
		t.Errorf("FanoutError does not unwrap to the shard errors: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("collateral sibling cancellation leaked into the error: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "2 of 4 shards failed") ||
		!strings.Contains(msg, "disk on fire") || !strings.Contains(msg, "bad postings") {
		t.Errorf("FanoutError message %q does not name the failures", msg)
	}

	// Caller cancellation is a withdrawn request, not a shard failure.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = fanout(ctx, func(ictx context.Context, w int) error { return ictx.Err() })
	if err != context.Canceled {
		t.Fatalf("cancelled fanout error = %v, want bare context.Canceled", err)
	}

	// All shards succeeding is not an error.
	if err := fanout(context.Background(), func(context.Context, int) error { return nil }); err != nil {
		t.Fatalf("clean fanout returned %v", err)
	}
}

// TestQueryAllocsPinned keeps the fan-out honest: a fan-out of one must cost
// no more heap objects than the direct call it replaced. The ceilings are the
// measured allocations per default request, Snapshot included. Skipped with
// -short, which is how the race job runs: the race detector's sync.Pool drops
// items and inflates the counts.
func TestQueryAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are only meaningful without -race; skipped with -short")
	}
	j := NewJoiner(paperContext())
	probe := benchCorpus(64, 9)
	ctx, qo := context.Background(), QueryOpts{}
	for _, pin := range []struct{ shards, topK, probe int }{{1, 15, 15}, {3, 22, 22}} {
		sx := j.BuildShardedIndex(benchCorpus(400, 1), pin.shards, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
		i := 0
		topK := testing.AllocsPerRun(10*len(probe), func() {
			sx.Snapshot().QueryTopKCtx(ctx, probe[i%len(probe)].Tokens, 10, qo)
			i++
		})
		rec := testing.AllocsPerRun(10*len(probe), func() {
			sx.Snapshot().ProbeRecordCtx(ctx, probe[i%len(probe)].Tokens, qo)
			i++
		})
		t.Logf("shards=%d: %.0f allocs per top-k query, %.0f per probe", pin.shards, topK, rec)
		if topK > float64(pin.topK) || rec > float64(pin.probe) {
			t.Errorf("shards=%d: allocs per query top-k %.0f (ceiling %d), probe %.0f (ceiling %d)",
				pin.shards, topK, pin.topK, rec, pin.probe)
		}
	}
}

// TestJoinBuildAllocsPinned caps the heap objects the build half of a
// one-shot join makes per record: joinIndex prepares both collections,
// counts the order over the pebbles it generates, selects every signature
// from those pebbles — the indexed side's and the probe side's — and builds
// the index. The ceiling is the measured count rounded up (AllocsPerRun runs
// at GOMAXPROCS 1, so the worker loops run inline whatever the machine).
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
	}{{pebble.AUDP, 12}, {pebble.AUHeuristic, 12}} {
		opts := Options{Theta: 0.8, Tau: 2, Method: pin.method}
		perRecord := testing.AllocsPerRun(5, func() { j.joinIndex(s, u, opts) }) / float64(len(s)+len(u))
		t.Logf("%v: %.2f allocs per record", pin.method, perRecord)
		if perRecord > pin.ceiling {
			t.Errorf("%v: %.2f allocs per record built and signed (ceiling %v)", pin.method, perRecord, pin.ceiling)
		}
	}
}

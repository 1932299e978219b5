package join

import (
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// TestFilterScaleProfile is an opt-in diagnostic (AUJOIN_SCALEPROF=1) that
// times the filter stage, a record at a time as a join runs it, on a 300k-record datagen corpus and writes a CPU
// profile of it to /tmp/scale_hybrid.pprof. It exists to localize scale
// regressions in the block filter core: wide records of distinct tokens over
// a 200-word vocabulary make every posting list dense.
func TestFilterScaleProfile(t *testing.T) {
	if os.Getenv("AUJOIN_SCALEPROF") == "" {
		t.Skip("set AUJOIN_SCALEPROF=1")
	}
	records := 300000
	gcfg := datagen.MEDLike(records, 1)
	gcfg.VocabSize = 200
	gcfg.MinTokens, gcfg.MaxTokens = 10, 14
	gcfg.EntityRate, gcfg.SynonymTermRate = 0.05, 0.05
	gcfg.SynonymRules, gcfg.TaxonomyNodes = 20, 100
	gcfg.DistinctTokens = true
	gen := datagen.New(gcfg)
	s := strutil.NewCollection(gen.Collection(records))
	tt := strutil.NewCollection(gen.Collection(100))
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = 5
	j := NewJoiner(ctx)

	opts := Options{Theta: 0.9, Tau: 12, Method: pebble.AUHeuristic, Workers: 1}
	sv, _, sigs := j.joinIndex(s, tt, opts)
	v, tau := sv.views[0], sv.sx.tau
	// residual sizes of the dense lists
	var resTotal, denseTotal int
	for _, id := range v.inv.Keys() {
		if bs := v.inv.Bitset(id); bs != nil {
			resTotal += len(bs.Residual())
			denseTotal++
		}
	}
	t.Logf("dense keys %d, residual entries total %d", denseTotal, resTotal)
	sc := v.scratch()
	f, _ := os.Create("/tmp/scale_hybrid.pprof")
	pprof.StartCPUProfile(f)
	defer pprof.StopCPUProfile()
	start := time.Now()
	for rep := 0; rep < 3; rep++ {
		cands, tally := 0, counters{}
		for _, ids := range sigs {
			recs, ft := v.candidatesRecord(ids, tau, noLimit, sc)
			cands += len(recs)
			tally.add(ft)
		}
		if rep == 0 {
			t.Logf("filter=%v cands=%d postings=%d bitset=%d slice=%d",
				time.Since(start), cands, tally.ProbePostings, tally.ProbeBitsetTokens, tally.ProbeSliceTokens)
		}
	}
	t.Logf("3 reps total %v", time.Since(start))
}

// heapStructures classifies a live allocation by the first function of its
// stack, from the allocation up, that one of them names: the structures an
// index holds (TestIndexHeapSplit).
var heapStructures = []struct{ name, fn string }{
	{"dictionary", "internal/core.(*SegDict).intern"},
	{"prepared segments", "internal/core.(*Calculator).prepare"},
	{"record headers", "internal/core.(*Calculator).PrepareIn"},
	{"tokens", "internal/strutil.NewRecord"},
	{"inverted index", "internal/invindex."},
	{"signature IDs", "internal/join.selectSignatures"},
	{"cover column", "internal/core.NewCoverColumn"},
	{"order", "internal/pebble."},
	{"input strings", "internal/datagen."},
}

// TestIndexHeapSplit is an opt-in diagnostic (AUJOIN_SCALEPROF=1): it builds
// one shard over the lookup_cluster titles corpus (q = 5, θ = 0.9, τ = 12,
// heuristic) at 10⁴ and 10⁵ records and logs the live heap a record, split by
// structure: a heap profile's in-use bytes (every allocation sampled), each
// allocation site charged to the first structure its stack names
// (heapStructures), "other" for the rest. The input strings are the
// generator's raw records, which the index keeps as they are.
func TestIndexHeapSplit(t *testing.T) {
	if os.Getenv("AUJOIN_SCALEPROF") == "" {
		t.Skip("set AUJOIN_SCALEPROF=1")
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for _, n := range []int{10_000, 100_000} {
		cfg := titlesConfig()
		cfg.Size = n
		gen := datagen.New(cfg)
		ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
		ctx.Q = 5
		start := time.Now()
		sx := NewJoiner(ctx).BuildShardedIndex(strutil.NewCollection(gen.Collection(n)), 1, titlesOptions, DynamicOptions{})
		built := time.Since(start)
		split, total := liveBySite(t)
		t.Logf("%d titles, one shard, built in %v: %.0f B a record live in all", n, built.Round(time.Millisecond), float64(total)/float64(n))
		t.Logf("| structure | B a record | share |")
		for _, s := range append(heapStructures, struct{ name, fn string }{"other", ""}) {
			t.Logf("| %s | %.0f | %.1f %% |", s.name, float64(split[s.name])/float64(n), 100*float64(split[s.name])/float64(total))
		}
		runtime.KeepAlive(sx)
	}
}

// liveBySite returns the in-use bytes of the heap profile by heapStructures
// name, and their total, after the collections that make the profile current.
func liveBySite(t *testing.T) (map[string]int64, int64) {
	for range 3 {
		runtime.GC() // the profile is as of the last collection but one
	}
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, false)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	split, total := map[string]int64{}, int64(0)
	for i := range recs {
		live := recs[i].InUseBytes()
		if live == 0 {
			continue
		}
		total += live
		name := "other"
		frames := runtime.CallersFrames(recs[i].Stack())
	walk:
		for {
			f, more := frames.Next()
			for _, s := range heapStructures {
				if strings.Contains(f.Function, s.fn) {
					name = s.name
					break walk
				}
			}
			if !more {
				break
			}
		}
		split[name] += live
	}
	if total == 0 {
		t.Fatal("the heap profile holds no live bytes")
	}
	return split, total
}

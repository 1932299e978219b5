package join

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
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
// index holds (TestIndexHeapSplit). "record headers" holds the prepared
// records and the column of pointers to them; "records" is the shard's
// record columns (ID and Raw, and the signature's length, a record) with
// whatever tokenizing left live: a record's tokens are dropped once it is
// prepared, so a split or a normalized copy is charged here only while
// something still holds it.
var heapStructures = []struct {
	name string
	fns  []string
}{
	{"dictionary", []string{"internal/core.(*SegDict).intern"}},
	{"prepared segments", []string{"internal/core.(*Calculator).prepare"}},
	{"record headers", []string{"internal/core.(*Calculator).PrepareInBuf", "internal/join.prepareRecords"}},
	{"records", []string{"internal/strutil.NewRecord", "internal/join.(*Joiner).assemble", "internal/join.sigLengths"}},
	{"inverted index", []string{"internal/invindex."}},
	{"cover column", []string{"internal/core.NewCoverColumn"}},
	{"probe table", []string{"internal/pebble.(*KeyIDs).ProbeTable", "internal/pebble.exact"}},
	{"order", []string{"internal/pebble."}},
	{"input strings", []string{"internal/datagen."}},
}

// TestIndexHeapSplit is an opt-in diagnostic (AUJOIN_SCALEPROF=1): it builds
// one shard over the lookup_cluster titles corpus (q = 5, θ = 0.9, τ = 12,
// heuristic) at 10⁴ and 10⁵ records and logs the live heap a record, split by
// structure: a heap profile's in-use bytes (every allocation sampled), each
// allocation site charged to the first structure its stack names
// (heapStructures), "other" for the rest. The input strings are the
// generator's raw records, which the index keeps as they are. The build time
// and the GC's share of the CPU (gcShare) are those of a first build of the
// same corpus with the default profiling rate; a second build, every
// allocation sampled, is the one split.
func TestIndexHeapSplit(t *testing.T) {
	if os.Getenv("AUJOIN_SCALEPROF") == "" {
		t.Skip("set AUJOIN_SCALEPROF=1")
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	for _, n := range []int{10_000, 100_000} {
		build := func() (*ShardedIndex, time.Duration) {
			cfg := titlesConfig()
			cfg.Size = n
			gen := datagen.New(cfg)
			ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
			ctx.Q = 5
			raws := gen.Collection(n)
			start := time.Now()
			sx := NewJoiner(ctx).BuildShardedIndex(strutil.NewCollection(raws), 1, titlesOptions, DynamicOptions{})
			return sx, time.Since(start)
		}
		var built time.Duration
		gc := gcShare(func() {
			var sx *ShardedIndex
			sx, built = build()
			runtime.KeepAlive(sx)
		})
		runtime.MemProfileRate = 1
		sx, _ := build()
		split, total := liveBySite(t)
		t.Logf("%d titles, one shard, built in %v with %.1f %% of the CPU in GC: %.0f B a record live in all",
			n, built.Round(time.Millisecond), 100*gc, float64(total)/float64(n))
		t.Logf("| structure | B a record | share |")
		for _, name := range append(structureNames(), "other") {
			t.Logf("| %s | %.0f | %.1f %% |", name, float64(split[name])/float64(n), 100*float64(split[name])/float64(total))
		}
		runtime.KeepAlive(sx)
	}
}

// TestWorkerHeapSplit is TestIndexHeapSplit for a cluster worker, opt-in
// (AUJOIN_SCALEPROF=1): one joiner starts two one-shard group indexes over
// the 10 000-title corpus's records of IDs 0 and 1 mod 3 (3 334 and 3 333
// titles), as a lookup_cluster worker starts the two groups it hosts
// (PrepareShardedIndexWithIDs), and installs both under the order merged
// from their tables. It logs the live heap of both together, every
// allocation sampled, split by structure, and the texts each group's
// dictionary holds.
func TestWorkerHeapSplit(t *testing.T) {
	if os.Getenv("AUJOIN_SCALEPROF") == "" {
		t.Skip("set AUJOIN_SCALEPROF=1")
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	gen := datagen.New(titlesConfig())
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = 5
	var ids [2][]int
	var raws [2][]string
	for id, raw := range gen.Collection(10_000) {
		if g := id % 3; g < 2 {
			ids[g], raws[g] = append(ids[g], id), append(raws[g], raw)
		}
	}
	j := NewJoiner(ctx)
	var pending [2]*PendingIndex
	var keys [2][]string
	var freqs [2][]int
	for g := range pending {
		var err error
		if pending[g], err = j.PrepareShardedIndexWithIDs(ids[g], raws[g], 1, titlesOptions, DynamicOptions{}); err != nil {
			t.Fatal(err)
		}
		keys[g], freqs[g] = pending[g].KeyFrequencies()
	}
	titles := [2]int{len(ids[0]), len(ids[1])}
	ids, raws = [2][]int{}, [2][]string{}
	k, f, err := pebble.MergeFrequencyTables(keys[:], freqs[:])
	if err != nil {
		t.Fatal(err)
	}
	fz, err := pebble.RestoreFrozen(k, f)
	if err != nil {
		t.Fatal(err)
	}
	keys, freqs, k, f = [2][]string{}, [2][]int{}, nil, nil
	groups := [2]*ShardedIndex{pending[0].Install(fz), pending[1].Install(fz)}
	pending = [2]*PendingIndex{}
	split, total := liveBySite(t)
	t.Logf("two groups of %d and %d titles: %.2f MB live in all; the dictionaries hold %d and %d texts",
		titles[0], titles[1], float64(total)/1e6, groups[0].Stats().DistinctSegments, groups[1].Stats().DistinctSegments)
	t.Logf("| structure | kB | share |")
	for _, name := range append(structureNames(), "other") {
		t.Logf("| %s | %.0f | %.1f %% |", name, float64(split[name])/1e3, 100*float64(split[name])/float64(total))
	}
	runtime.KeepAlive(groups)
}

// gcShare returns the GC's share of the CPU time available to the process
// (GOMAXPROCS integrated over the wall clock) while f runs, from
// runtime/metrics. The runtime brings those counters up to date at a
// collection, so one is forced on either side of f and counts in the share.
func gcShare(f func()) float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	runtime.GC()
	metrics.Read(s)
	gc, all := s[0].Value.Float64(), s[1].Value.Float64()
	f()
	runtime.GC()
	metrics.Read(s)
	return (s[0].Value.Float64() - gc) / (s[1].Value.Float64() - all)
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
				for _, fn := range s.fns {
					if strings.Contains(f.Function, fn) {
						name = s.name
						break walk
					}
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

// structureNames returns the heapStructures names in order.
func structureNames() []string {
	names := make([]string, len(heapStructures))
	for i, s := range heapStructures {
		names[i] = s.name
	}
	return names
}

// TestCompactionPauseProfile is an opt-in diagnostic (AUJOIN_SCALEPROF=1): it
// builds one titles shard (the lookup_cluster corpus's generator, q = 5) at
// 10⁴ and 10⁵ records and logs what a writer stalls on, each as the median
// of five fresh builds: the first four-record insert batch after the build,
// a steady batch (the median of batches 2 to 64), the batch that crosses the
// 64-segment threshold and compacts, the first batch after that compaction,
// and the tombstone batch — ⌈rebuildFraction⌉ of the records the shard then
// holds, inserts included — whose compaction follows. A compaction's pause
// is the shard's own reading (RebuildPauses), not the batch's wall time.
func TestCompactionPauseProfile(t *testing.T) {
	if os.Getenv("AUJOIN_SCALEPROF") == "" {
		t.Skip("set AUJOIN_SCALEPROF=1")
	}
	const runs, batches, batch = 5, defaultMaxSegments + 1, 4
	median := func(ds []time.Duration) time.Duration {
		ds = slices.Clone(ds)
		slices.Sort(ds)
		return ds[len(ds)/2]
	}
	for _, n := range []int{10_000, 100_000} {
		cfg := titlesConfig()
		cfg.Size = n
		gen := datagen.New(cfg)
		ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
		ctx.Q = 5
		raws := gen.Collection(n + batches*batch + batch)
		j := NewJoiner(ctx)
		var first, steady, segPause, afterSeg, tombPause []time.Duration
		for range runs {
			sx := j.BuildShardedIndex(strutil.NewCollection(raws[:n]), 1, titlesOptions, DynamicOptions{})
			var times []time.Duration
			for b := range batches + 1 {
				start := time.Now()
				sx.InsertBatch(raws[n+b*batch : n+(b+1)*batch])
				times = append(times, time.Since(start))
			}
			pauses := sx.RebuildPauses()
			if len(pauses) != 1 || sx.Stats().Segments != 1 {
				t.Fatalf("%d titles: %d compactions and %d segments after %d batches; want one compaction at batch %d",
					n, len(pauses), sx.Stats().Segments, batches+1, batches)
			}
			first, steady = append(first, times[0]), append(steady, median(times[1:batches-1]))
			segPause, afterSeg = append(segPause, pauses[0]), append(afterSeg, times[batches])
			st := sx.Stats()
			victims := make([]int, int(math.Ceil(defaultRebuildFraction*float64(st.Records))))
			for i := range victims {
				victims[i] = i
			}
			sx.RemoveBatch(victims)
			if pauses = sx.RebuildPauses(); len(pauses) != 2 {
				t.Fatalf("%d titles: removing %d of %d records compacted %d times in all, want twice", n, len(victims), st.Records, len(pauses))
			}
			tombPause = append(tombPause, pauses[1])
		}
		ms := func(ds []time.Duration) string { return fmt.Sprintf("%.2f ms", float64(median(ds))/1e6) }
		t.Logf("%d titles, one shard, median of %d: first insert after the build %s, steady insert %s, segment-threshold compaction %s, first insert after it %s, tombstone-threshold compaction %s",
			n, runs, ms(first), ms(steady), ms(segPause), ms(afterSeg), ms(tombPause))
	}
}

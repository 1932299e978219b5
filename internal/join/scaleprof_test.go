package join

import (
	"os"
	"runtime/pprof"
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
	sv, prepT := j.joinIndex(s, tt, opts)
	v := sv.views[0]
	ix := v.base
	sigs := selectSignatures(prepT, ix.sel, opts.Method, ix.tau)
	// residual sizes of the dense lists
	var resTotal, denseTotal int
	for _, id := range ix.inv.Keys() {
		if bs := ix.inv.Bitset(id); bs != nil {
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
			recs, ft := v.candidatesRecord(ids, ix.tau, noLimit, sc)
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

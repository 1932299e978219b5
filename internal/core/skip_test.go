package core

import (
	"math"
	"testing"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// TestSolveSkipChangesNothing holds the claw loop's skip of hopeless
// assignment solves to the loop that solves every one: on each generator,
// every record of a dictionary against probes that are variants of its
// records (synonym and taxonomy swaps, typos) and records it never saw,
// SimilarityPrepared — which fills the msim matrix and runs Algorithm 1 with
// no bound first, so the claw loop meets pairs the cover bounds would have
// dismissed — and VerifyPrepared at the shape's θ return bit-identical
// values with the skip on and off. The skip must have left matchings
// unsolved on every generator.
func TestSolveSkipChangesNothing(t *testing.T) {
	for _, sh := range shapes {
		gen := datagen.New(sh.cfg)
		ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
		ctx.Q = sh.q
		calc, d := NewCalculator(ctx), NewSegDict()
		raws := gen.Collection(sh.cfg.Size + 10)
		records := make([]*PreparedRecord, sh.cfg.Size)
		for i := range records {
			records[i] = calc.PrepareIn(d, strutil.Tokenize(raws[i]))
		}
		var probes []*PreparedRecord
		for k := 0; k < 30; k++ {
			v, _ := gen.Variant(raws[k*sh.cfg.Size/30])
			probes = append(probes, calc.PrepareProbe(d, strutil.Tokenize(v)))
		}
		for _, raw := range raws[sh.cfg.Size:] {
			probes = append(probes, calc.PrepareProbe(d, strutil.Tokenize(raw)))
		}
		skip, keep := NewScratch(), NewScratch()
		KeepSolves(keep)
		for _, pt := range probes {
			for i, ps := range records {
				got, want := calc.SimilarityPrepared(ps, pt, skip), calc.SimilarityPrepared(ps, pt, keep)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: record %d against %v: SimilarityPrepared %v with the skip, %v without", sh.name, i, tokensOf(pt), got, want)
				}
				gv, gok := calc.VerifyPrepared(ps, pt, sh.theta, skip)
				wv, wok := calc.VerifyPrepared(ps, pt, sh.theta, keep)
				if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) {
					t.Fatalf("%s: record %d against %v at θ=%v: VerifyPrepared (%v, %v) with the skip, (%v, %v) without",
						sh.name, i, tokensOf(pt), sh.theta, gv, gok, wv, wok)
				}
			}
		}
		if SolvesSkipped(keep) != 0 {
			t.Fatalf("%s: the scratch that keeps every solve skipped %d", sh.name, SolvesSkipped(keep))
		}
		t.Logf("%s: %d matchings left unsolved", sh.name, SolvesSkipped(skip))
		if SolvesSkipped(skip) == 0 {
			t.Errorf("%s: the skip never fired", sh.name)
		}
	}
}

// TestSolveSkipOnlyBelowFloor holds the skip to its promise directly, on
// the singleton partitions of MED-shaped pairs: a matching whose value v is
// above the floor, or equal to it, is always solved, even where the bound is
// tight (a record against itself, whose matching takes every row's
// maximum), and one whose floor is far above every bound is never solved.
func TestSolveSkipOnlyBelowFloor(t *testing.T) {
	sh := shapes[0]
	gen := datagen.New(sh.cfg)
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = sh.q
	calc, d, sc := NewCalculator(ctx), NewSegDict(), NewScratch()
	raws := gen.Collection(40)
	var recs []*PreparedRecord
	for _, raw := range raws {
		recs = append(recs, calc.PrepareIn(d, strutil.Tokenize(raw)))
	}
	solved := 0
	for i, ps := range recs {
		for _, pt := range []*PreparedRecord{ps, recs[(i+1)%len(recs)]} {
			if ps.tokens == 0 || pt.tokens == 0 {
				continue
			}
			calc.fillMSim(sc, ps, pt)
			sc.sSel, sc.tSel = sc.sSel[:0], sc.tSel[:0]
			v := calc.simPreparedSelected(sc, ps, pt, noFloor)
			for _, floor := range []float64{v, math.Nextafter(v, -1), v - BoundSlack} {
				if got := calc.simPreparedSelected(sc, ps, pt, floor); math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("record %d against %v: value %v at floor %v, %v with no floor", i, tokensOf(pt), got, floor, v)
				}
				solved++
			}
			before := sc.skipped
			if got := calc.simPreparedSelected(sc, ps, pt, 2); got != noFloor || sc.skipped != before+1 {
				t.Fatalf("record %d against %v: floor 2 returned %v, %d skips", i, tokensOf(pt), got, sc.skipped-before)
			}
		}
	}
	if solved == 0 {
		t.Fatal("no pair was solved")
	}
}

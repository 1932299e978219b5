package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// TestProbeScratchReuse prepares probe after probe into one ProbeScratch, as
// a pooled lookup does, and bounds and verifies each against every record of
// the index back to back on one Scratch: every CoverBound and every
// VerifyPrepared must be bit-identical to a fresh scratch's for a fresh
// PrepareProbe record of the same tokens, and the reused record must equal
// that record. The reused record is the same address every time, so a
// scratch that took the address alone for the probe's identity would read
// the previous probe's msim rows. Each shape runs with and without a Reset
// between probes, and the probes alternate between variants of indexed
// records and records the index never saw, so that the private derivation
// tables and the dictionary's both come and go.
func TestProbeScratchReuse(t *testing.T) {
	for _, sh := range shapes {
		gen := datagen.New(sh.cfg)
		ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
		ctx.Q = sh.q
		calc, d := NewCalculator(ctx), NewSegDict()
		raws := gen.Collection(sh.cfg.Size + 20)
		var recs []*PreparedRecord
		for _, raw := range raws[:sh.cfg.Size] {
			recs = append(recs, calc.PrepareIn(d, strutil.Tokenize(raw)))
		}
		col := NewCoverColumn(d, recs)
		cands := make([]int32, len(recs))
		for pos := range cands {
			cands[pos] = int32(pos)
		}
		var probes [][]string
		for k := 0; k < 20; k++ {
			v, _ := gen.Variant(raws[k*sh.cfg.Size/20])
			probes = append(probes, strutil.Tokenize(v), strutil.Tokenize(raws[sh.cfg.Size+k]))
		}
		for _, reset := range []bool{false, true} {
			var ps ProbeScratch
			sc := NewScratch()
			verified := 0
			for _, tokens := range probes {
				if reset {
					ps.Reset()
				}
				pt, want := calc.PrepareProbeInto(&ps, d, tokens), calc.PrepareProbe(d, tokens)
				if pt != &ps.pr {
					t.Fatalf("%s: PrepareProbeInto returned a record outside its scratch", sh.name)
				}
				if !slices.Equal(pt.Segs, want.Segs) || len(pt.own) != len(want.own) || len(pt.own) > 0 && !reflect.DeepEqual(pt.own, want.own) ||
					pt.minPart != want.minPart || pt.maxSegID != want.maxSegID || pt.dict != want.dict {
					t.Fatalf("%s: %v prepared into reused storage as %+v, afresh as %+v", sh.name, tokens, pt.Segs, want.Segs)
				}
				fresh := NewScratch()
				calc.AdoptProbe(&col, cands, pt, sc)
				calc.AdoptProbe(&col, cands, want, fresh)
				for _, pos := range cands {
					got, exp := calc.CoverBound(&col, pos, pt, sh.theta, sc), calc.CoverBound(&col, pos, want, sh.theta, fresh)
					if math.Float64bits(got) != math.Float64bits(exp) {
						t.Fatalf("%s, reset %v: record %d against %v: bound %v on the reused record, %v afresh", sh.name, reset, pos, tokens, got, exp)
					}
					gv, gok := calc.VerifyPrepared(recs[pos], pt, sh.theta, sc)
					wv, wok := calc.VerifyPrepared(recs[pos], want, sh.theta, fresh)
					if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) {
						t.Fatalf("%s, reset %v: record %d against %v: verified (%v, %v) on the reused record, (%v, %v) afresh",
							sh.name, reset, pos, tokens, gv, gok, wv, wok)
					}
					if gok {
						verified++
					}
				}
			}
			if verified == 0 {
				t.Fatalf("%s: no probe reached θ against any record", sh.name)
			}
		}
	}
}

package core

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// refBound is the number CoverBound must produce for ps against pt when the
// rows cover the IDs below rows, computed the slow way, with the counts it
// must add to st: the two empty-record cases, 1 for a record the column
// flags, then the size ratio and — when every segment of ps has a row — the
// smaller of it and leftCoverRef, whose row IDs it adds to touched.
func refBound(calc *Calculator, ps, pt *PreparedRecord, flagged bool, theta float64, rows uint32, st *VerifyStats, touched map[uint32]bool) float64 {
	if len(ps.Tokens) == 0 || len(pt.Tokens) == 0 {
		if len(ps.Tokens) == 0 && len(pt.Tokens) == 0 {
			return 1
		}
		return 0
	}
	if flagged {
		return 1
	}
	ub := sizeRatioUpper(ps, pt)
	if ub < theta-boundSlack {
		st.PrunedByBound++
		return ub
	}
	if ps.maxSegID >= rows {
		return ub
	}
	for i := range ps.Segs {
		touched[ps.Segs[i].ID] = true
	}
	cover := leftCoverRef(calc, ps, pt)
	if cover >= ub {
		return ub
	}
	if cover < theta-boundSlack {
		st.PrunedByBound++
		st.PrunedByCover++
	}
	return cover
}

// impliedStarts reports whether pr's segments are ordered by start then
// length and every start opens with its singleton — the order that lets the
// cover column leave a segment's start implied.
func impliedStarts(pr *PreparedRecord) bool {
	start := -1
	for i, sg := range pr.Segs {
		if sg.Span.Len() == 1 {
			start++
			if sg.Span.Start != start {
				return false
			}
		} else if sg.Span.Start != start || sg.Span.Len() <= pr.Segs[i-1].Span.Len() {
			return false
		}
	}
	return start == len(pr.Tokens)-1
}

// TestCoverBoundMatchesReference pins CoverBound, the bound loop's entry, to
// the slow reference refBound on the same PreparedRecord: bit for bit, with
// the same PrunedByBound and PrunedByCover after every pair, and with a row
// evaluated on first touch and read warm after — MSimEvals is nt for every
// distinct row ID the probe's pairs have touched. The records are ordinary
// ones, ones a dictionary lowered to its cap left with NoSegID, one whose
// rule side is too long for a column word, one too long for a column
// record, an empty one, one prepared without a dictionary and one of another
// dictionary — all but the first two flagged or empty, the others read from
// the column —
// against probes that include an empty one, with row budgets that leave the
// rows covering fewer IDs than some records' largest. The column is
// assembled from a base and two appended batches and must equal the one
// made at once.
func TestCoverBoundMatchesReference(t *testing.T) {
	phrase, phrases := phraseContext()
	side := strutil.Tokenize(strings.Join(distinctTokens(coverMaxSpan, 2), " ")) // a rule side's tokens are normalized
	phrase.Rules.MustAdd(strings.Join(side, " "), "tok03", 0.9)
	rng := rand.New(rand.NewSource(23))
	calc := NewCalculator(phrase)
	probes := append(phraseCorpus(rng, phrases, 12), nil, side[:3], []string{"tok03", "tok01", "tok02"})

	for _, tc := range []struct {
		name     string
		dictCap  int // 0: the default
		rowCells int // 0: the default
	}{
		{"ordinary", 0, 0},
		{"dictionary at its cap", 15, 0},
		{"rows below the largest ID", 0, 40},
	} {
		d, other := NewSegDict(), NewSegDict()
		if tc.dictCap > 0 {
			d.limit = tc.dictCap
		}
		var recs []*PreparedRecord
		for _, toks := range phraseCorpus(rng, phrases, 60) {
			recs = append(recs, calc.PrepareIn(d, toks))
		}
		recs = append(recs,
			calc.PrepareIn(d, nil),
			calc.Prepare([]string{"tok01", "tok02", "tok03"}),
			calc.PrepareIn(other, []string{"tok01", "tok02", "tok03"}))
		if tc.dictCap == 0 {
			// A record of singletons only, one token past the column's 16-bit
			// token count, and one that opens with a rule side of
			// coverMaxSpan tokens.
			huge := make([]string, math.MaxUint16+1)
			for pos := range huge {
				huge[pos] = "tok01"
			}
			recs = append(recs, calc.PrepareIn(d, huge), calc.PrepareIn(d, append(append([]string(nil), side...), "tok01")))
		}
		col := NewCoverColumn(d, recs[:20])
		col.Append(recs[20:45])
		col.Append(recs[45:])
		if once := NewCoverColumn(d, recs); !reflect.DeepEqual(col, once) {
			t.Fatalf("%s: a column appended in batches differs from the one made at once", tc.name)
		}

		flagged, beyond, read := 0, 0, 0
		colSc, want := NewScratch(), VerifyStats{}
		cells := rowCellBudget
		if tc.rowCells > 0 {
			cells = tc.rowCells
			colSc.rowCells = cells
		}
		for _, probe := range probes {
			pt := calc.PrepareProbe(d, probe)
			rows, touched := uint32(0), map[uint32]bool{}
			if nt := len(pt.Segs); nt > 0 {
				rows = uint32(min(d.Len(), cells/nt))
			}
			for _, theta := range []float64{0.5, 0.8, 0.95} {
				for pos, ps := range recs {
					got := calc.CoverBound(&col, int32(pos), pt, theta, colSc)
					before := len(touched)
					ref := refBound(calc, ps, pt, col.recs[pos].maxID == coverFlagged, theta, rows, &want, touched)
					want.MSimEvals += int64((len(touched) - before) * len(pt.Segs))
					if math.Float64bits(got) != math.Float64bits(ref) || colSc.Stats != want {
						t.Fatalf("%s: record %d (%d tokens) / %v at θ=%v: column bound %v with %+v, reference %v with %+v",
							tc.name, pos, len(ps.Tokens), probe, theta, got, colSc.Stats, ref, want)
					}
					switch r := col.recs[pos]; {
					case r.tokens == 0:
					case r.maxID == coverFlagged:
						flagged++
					case colSc.rowRight == pt && r.maxID >= colSc.rowN:
						beyond++
					default:
						read++
					}
				}
			}
		}
		if read == 0 || colSc.Stats.PrunedByCover == 0 {
			t.Errorf("%s: %d pairs read from the column, %d dismissed by the cover stage", tc.name, read, colSc.Stats.PrunedByCover)
		}
		if flagged == 0 {
			t.Errorf("%s: no pair took the flagged path", tc.name)
		}
		if tc.rowCells > 0 && beyond == 0 {
			t.Errorf("%s: no record's largest ID was beyond the rows", tc.name)
		}
		if tc.dictCap > 0 {
			capped := 0
			for pos, ps := range recs {
				if ps.maxSegID == NoSegID && ps.dict == d && col.recs[pos].maxID == coverFlagged {
					capped++
				}
			}
			if capped == 0 {
				t.Errorf("%s: no record of the dictionary carries NoSegID", tc.name)
			}
		}
		if tc.dictCap == 0 {
			for pos := len(recs) - 2; pos < len(recs); pos++ {
				if recs[pos].maxSegID == NoSegID || col.recs[pos].maxID != coverFlagged {
					t.Errorf("%s: the record of %d tokens with a %d-token segment was not flagged on its own account",
						tc.name, len(recs[pos].Tokens), recs[pos].Segs[1].Span.Len())
				}
			}
		}
	}
}

// TestEagerRowPassMatchesLazy holds the bound pass after AdoptProbe's eager
// row pass to the lazy pass that evaluates each row on first touch: on the
// MED, titles and rule- and taxonomy-heavy generators, at the default row
// budget and at budgets that leave the rows covering only some IDs, every
// candidate's CoverBound is bit-identical, every survivor's VerifyPrepared
// is, and PrunedByBound, PrunedByCover and VerifiedCandidates agree after
// every pair. Every record's segments are in the order the column leaves
// their starts implied by. The column holds one record prepared without its
// dictionary, which it flags. At the
// default budget AdoptProbe must take the eager pass by its own rule for
// the whole column and stay lazy for two candidates; at the smallest, the
// rows may hold no candidate's texts, and the pass is forced for a probe
// AdoptProbe leaves lazy.
func TestEagerRowPassMatchesLazy(t *testing.T) {
	const smallest = 64
	smallestRead := 0 // pairs read from the column at the smallest budget
	for _, sh := range shapes {
		gen := datagen.New(sh.cfg)
		ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
		ctx.Q = sh.q
		calc, d := NewCalculator(ctx), NewSegDict()
		raws := gen.Collection(sh.cfg.Size + 10)
		var recs []*PreparedRecord
		for _, raw := range raws[:sh.cfg.Size] {
			recs = append(recs, calc.PrepareIn(d, strutil.Tokenize(raw)))
		}
		recs = append(recs, calc.Prepare(strutil.Tokenize(raws[0])))
		for _, pr := range recs {
			if !impliedStarts(pr) {
				t.Fatalf("%s: %v prepared into segments %+v: not by start then length, or a start without its singleton first", sh.name, pr.Tokens, pr.Segs)
			}
		}
		col := NewCoverColumn(d, recs)
		cands := make([]int32, len(recs))
		for pos := range cands {
			cands[pos] = int32(pos)
		}
		var probes []*PreparedRecord
		for k := 0; k < 30; k++ {
			v, _ := gen.Variant(raws[k*sh.cfg.Size/30])
			probes = append(probes, calc.PrepareProbe(d, strutil.Tokenize(v)))
		}
		for _, raw := range raws[sh.cfg.Size:] {
			probes = append(probes, calc.PrepareProbe(d, strutil.Tokenize(raw)))
		}
		for _, cells := range []int{rowCellBudget, 3 * d.Len(), smallest} {
			eager, lazy := NewScratch(), NewScratch()
			eager.rowCells, lazy.rowCells = cells, cells
			flagged, beyond, read, chosen := 0, 0, 0, 0
			for _, pt := range probes {
				calc.AdoptProbe(&col, cands, pt, eager)
				calc.AdoptProbe(&col, nil, pt, lazy)
				if lazy.rowsAll {
					t.Fatalf("%s, %d cells, %v: no candidate took the eager pass", sh.name, cells, pt.Tokens)
				}
				if eager.rowsAll {
					chosen++
				} else {
					// Every candidate is beyond rows this few.
					calc.fillRows(eager, pt)
				}
				if few := NewScratch(); cells == rowCellBudget {
					if calc.AdoptProbe(&col, cands[:2], pt, few); few.rowsAll {
						t.Fatalf("%s, %v: two candidates took the eager pass over %d rows", sh.name, pt.Tokens, few.rowN)
					}
				}
				for _, pos := range cands {
					got := calc.CoverBound(&col, pos, pt, sh.theta, eager)
					want := calc.CoverBound(&col, pos, pt, sh.theta, lazy)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s, %d cells: record %d against %v: bound %v after the eager pass, %v lazily",
							sh.name, cells, pos, pt.Tokens, got, want)
					}
					if got >= sh.theta-BoundSlack {
						gv, gok := calc.VerifyPrepared(recs[pos], pt, sh.theta, eager)
						wv, wok := calc.VerifyPrepared(recs[pos], pt, sh.theta, lazy)
						if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) {
							t.Fatalf("%s, %d cells: record %d against %v: verified (%v, %v) after the eager pass, (%v, %v) lazily",
								sh.name, cells, pos, pt.Tokens, gv, gok, wv, wok)
						}
					}
					e, l := eager.Stats, lazy.Stats
					if e.PrunedByBound != l.PrunedByBound || e.PrunedByCover != l.PrunedByCover || e.VerifiedCandidates != l.VerifiedCandidates {
						t.Fatalf("%s, %d cells: record %d against %v: %+v after the eager pass, %+v lazily", sh.name, cells, pos, pt.Tokens, e, l)
					}
					switch r := col.recs[pos]; {
					case r.maxID == coverFlagged:
						flagged++
					case r.maxID >= eager.rowN:
						beyond++
					default:
						read++
					}
				}
			}
			pruned := eager.Stats.PrunedByCover
			t.Logf("%s, %d cells: AdoptProbe eager for %d of %d probes; %d pairs read from the column, %d beyond the rows, %d flagged; %d dismissed by the cover stage, %d verified",
				sh.name, cells, chosen, len(probes), read, beyond, flagged, pruned, eager.Stats.VerifiedCandidates)
			if (read == 0 && cells != smallest) || flagged == 0 {
				t.Errorf("%s, %d cells: %d pairs read from the column, %d flagged", sh.name, cells, read, flagged)
			}
			if cells == rowCellBudget && (chosen != len(probes) || pruned == 0) {
				t.Errorf("%s: AdoptProbe took the eager pass for %d of %d probes, the cover stage dismissed %d pairs", sh.name, chosen, len(probes), pruned)
			}
			if cells < rowCellBudget && beyond == 0 {
				t.Errorf("%s, %d cells: no record's largest ID was beyond the rows", sh.name, cells)
			}
			if cells == smallest {
				smallestRead += read
			}
		}
	}
	if smallestRead == 0 {
		t.Errorf("at %d cells, no pair was read from the column on any generator", smallest)
	}
}

package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// phraseContext is a context whose rules and taxonomy entities span one to
// three tokens of a small "tokNN" vocabulary, so records drawn from it carry
// overlapping multi-token segments of every provenance.
func phraseContext() (*sim.Context, [][]string) {
	rules := synonym.NewRuleSet()
	rules.MustAdd("tok01 tok02", "tok03", 0.9)
	rules.MustAdd("tok04", "tok05 tok06 tok07", 0.8)
	rules.MustAdd("tok00 tok01", "tok02 tok03", 0.7)
	rules.MustAdd("tok08", "tok09", 1)
	tax := taxonomy.NewTree("root")
	a := tax.MustAddChild(tax.Root(), "tok10")
	b := tax.MustAddChild(a, "tok11 tok12")
	tax.MustAddChild(b, "tok13")
	tax.MustAddChild(b, "tok00 tok04")
	tax.MustAddChild(a, "tok14")
	tax.MustAddChild(a, "tok02 tok03 tok05")
	var phrases [][]string
	for _, p := range []string{"tok01 tok02", "tok03", "tok04", "tok05 tok06 tok07", "tok00 tok01", "tok02 tok03",
		"tok08", "tok09", "tok11 tok12", "tok13", "tok00 tok04", "tok14", "tok02 tok03 tok05"} {
		phrases = append(phrases, strings.Fields(p))
	}
	return sim.NewContext(rules, tax), phrases
}

// phraseCorpus draws n records of 2–7 tokens: skewed picks from a 24-token
// vocabulary with a rule side or entity name spliced into half of them.
func phraseCorpus(rng *rand.Rand, phrases [][]string, n int) [][]string {
	out := make([][]string, n)
	for i := range out {
		var toks []string
		for k := 2 + rng.Intn(4); k > 0; k-- {
			u := rng.Float64()
			toks = append(toks, fmt.Sprintf("tok%02d", int(u*u*24)))
		}
		if rng.Intn(2) == 0 {
			at := rng.Intn(len(toks) + 1)
			toks = append(toks[:at:at], append(phrases[rng.Intn(len(phrases))], toks[at:]...)...)
		}
		out[i] = toks
	}
	return out
}

// leftCoverRef is the number the cover stage must produce, computed the slow
// way from MSimData alone: each left segment's best msim against any segment
// of pt, the best well-defined partition of ps under those values, over the
// larger of the two partition-size lower bounds, clipped at 1.
func leftCoverRef(calc *Calculator, ps, pt *PreparedRecord) float64 {
	n := int(ps.tokens)
	cover := make([]float64, n+1)
	for pos := 0; pos < n; pos++ {
		cover[pos] = -1
	}
	for i := len(ps.Segs) - 1; i >= 0; i-- {
		a, best := ps.Segs[i].Span(), 0.0
		for j := range pt.Segs {
			best = max(best, calc.Ctx.MSimData(ps.Table(i), pt.Table(j)))
		}
		cover[a.Start] = max(cover[a.Start], best+cover[a.End])
	}
	return min(cover[0]/float64(max(ps.MinPartitionSize(), pt.MinPartitionSize())), 1)
}

// TestCoverStageDominates pins the one cover stage, CoverBound's
// columnCover over a cover column. For every pair, on one long-lived scratch
// that moves between probes and between two dictionaries numbering the same
// texts differently: the stage's bound is exactly the left half of
// coverUpper (the slow reference above), hence ≥ the two-sided coverUpper ≥
// the similarity less the slack; and VerifyPrepared — alone, or behind
// CoverBound as the engine runs it — agrees with SimilarityTokens ≥ θ
// whether the left record is interned or not, at fixed thresholds and at θ
// equal to the pair's own similarity, where a bound that rounds differently
// from the similarity would lose the match. Nothing orders the size ratio
// against the cover stage, and nothing here assumes an order.
func TestCoverStageDominates(t *testing.T) {
	phrase, phrases := phraseContext()
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct {
		name           string
		ctx            *sim.Context
		corpus, probes [][]string
	}{
		{"figure 1", paperContext(), corpusTokens(rng, 60), corpusTokens(rng, 8)},
		{"phrases", phrase, phraseCorpus(rng, phrases, 80), phraseCorpus(rng, phrases, 10)},
	} {
		calc := NewCalculator(tc.ctx)
		d1, d2 := NewSegDict(), NewSegDict()
		n := len(tc.corpus)
		plain := make([]*PreparedRecord, n)
		interned := [2][]*PreparedRecord{make([]*PreparedRecord, n), make([]*PreparedRecord, n)}
		for i := range tc.corpus {
			plain[i] = calc.Prepare(tc.corpus[i])
			interned[0][i] = calc.PrepareIn(d1, tc.corpus[i])
			interned[1][n-1-i] = calc.PrepareIn(d2, tc.corpus[n-1-i])
		}
		cols := [2]CoverColumn{NewCoverColumn(d1, interned[0]), NewCoverColumn(d2, interned[1])}
		sc := NewScratch()
		strict := 0 // pairs the stage bounds below the size ratio
		for _, probe := range tc.probes {
			pt := calc.Prepare(probe)
			for k, in := range interned {
				col := &cols[k]
				for i, toks := range tc.corpus {
					ps := in[i]
					want := calc.SimilarityTokens(toks, probe)
					r := col.recs[i]
					if r.maxID >= sc.adoptRows(calc.Ctx, col.dict, pt) {
						t.Fatalf("%s: %v / %v: the record has no row for every segment", tc.name, toks, probe)
					}
					stage := min(calc.columnCover(sc, col.segs, int(r.end), int(r.tokens), pt)/float64(max(int(r.minPart), int(pt.minPart))), 1)
					if ref := leftCoverRef(calc, ps, pt); stage != ref {
						t.Fatalf("%s: %v / %v: cover stage %v, left half of coverUpper %v", tc.name, toks, probe, stage, ref)
					}
					calc.fillMSim(sc, ps, pt)
					both := coverUpper(sc, ps, pt)
					if stage < both || both < want-boundSlack {
						t.Fatalf("%s: %v / %v: cover stage %v, coverUpper %v, similarity %v: not descending", tc.name, toks, probe, stage, both, want)
					}
					if stage < sizeRatioUpper(ps, pt) {
						strict++
					}
					for _, theta := range []float64{0.5, 0.7, 0.8, 0.9, 1, want} {
						for _, w := range []leftWay{{"plain", plain[i], sc}, {"interned", ps, NewScratch()}, {"interned/warm", ps, sc}} {
							if v, ok := calc.VerifyPrepared(w.ps, pt, theta, w.sc); ok != (want >= theta) || (ok && v != want) {
								t.Fatalf("%s: %v / %v θ=%v %s: VerifyPrepared = (%v, %v), similarity %v",
									tc.name, toks, probe, theta, w.name, v, ok, want)
							}
						}
						v, ok := 0.0, false
						if calc.CoverBound(col, int32(i), pt, theta, sc) >= theta-BoundSlack {
							v, ok = calc.VerifyPrepared(ps, pt, theta, sc)
						}
						if ok != (want >= theta) || (ok && v != want) {
							t.Fatalf("%s: %v / %v θ=%v: CoverBound then VerifyPrepared = (%v, %v), similarity %v",
								tc.name, toks, probe, theta, v, ok, want)
						}
					}
				}
			}
		}
		if strict == 0 || sc.Stats.PrunedByCover == 0 || sc.Stats.VerifiedCandidates == 0 {
			t.Errorf("%s: cover stage below the size ratio on %d pairs, dismissed %d, %d matrices filled: the stage or the path behind it never ran",
				tc.name, strict, sc.Stats.PrunedByCover, sc.Stats.VerifiedCandidates)
		}
	}
}

// rowSentinel fills every row slot before a row is evaluated: no msim cell
// takes it, so a reader that copies a slot its row never wrote sees it.
const rowSentinel = 7.0

// cachedRow is the row of dictionary segment id as a reader takes it from the
// scratch: cleared when the row's maximum is 0, its slot otherwise.
func cachedRow(sc *Scratch, id uint32, nt int) []float64 {
	if sc.rowMax[id] == 0 {
		return make([]float64, nt)
	}
	return sc.rowVals[int(id)*nt:][:nt]
}

// rightPrep is a way rowKernelCase prepares its right-hand record, and so
// a way the probe-gram index gets the record's gram numbers.
type rightPrep int

const (
	// privateRight is Prepare: no dictionary, every gram looked up by text.
	privateRight rightPrep = iota
	// sameDictRight is PrepareProbe against the rows' dictionary: the gram
	// numbers of every segment it holds come from its entry, by ID.
	sameDictRight
	// otherDictRight is PrepareProbe against a second dictionary that holds
	// the same texts under other IDs, which must not be read as the rows'.
	otherDictRight
	// cappedDictRight is sameDictRight with the rows' dictionary capped
	// (SetSegDictLimit) partway through interning the probe, so some of its
	// segments have no entry and look their grams up by text.
	cappedDictRight
)

var rightPreps = []rightPrep{privateRight, sameDictRight, otherDictRight, cappedDictRight}

func (p rightPrep) String() string {
	return [...]string{"private", "same dictionary", "second dictionary", "capped dictionary"}[p]
}

// rowKernelCase adopts the probe record probe+stranger and, when its
// numbered grams fit the probe-gram index, holds the index to its definition
// and the cached row of every segment of left, evaluated through the slot
// lists on first touch and by the eager pass, to MSimData (checkRows); past
// the index's cap the probe must adopt no rows. The matrix fillMSim fills
// for left must agree with MSimData either way. The dictionary interns left
// and probe, so it numbers their grams; stranger is never interned, so a
// gram only its tokens have gets no slot. The probe record is prepared as
// prep says. A record of stranger and left interned afterwards, under the
// live scratch, has its new texts' IDs past the rows (or none, in a capped
// dictionary): fillMSim takes the direct path for them, and every cell must
// agree too. It reports what it saw (rowCase).
func rowKernelCase(t *testing.T, ctx *sim.Context, prep rightPrep, left, probe, stranger []string) (res rowCase) {
	t.Helper()
	calc := NewCalculator(ctx)
	d := NewSegDict()
	ps := calc.PrepareIn(d, left) // first: a long probe lowers the rows' ID range
	capped := 0                   // probe texts the cap keeps out
	if prep == cappedDictRight {
		// Room for half the probe's texts d does not hold yet.
		fresh := map[string]bool{}
		for _, sg := range calc.Segmenter().Segments(probe) {
			text := strutil.JoinTokens(sg.Tokens)
			if _, ok := d.textID(text); !ok {
				fresh[text] = true
			}
		}
		SetSegDictLimit(d, d.Len()+len(fresh)/2)
		capped = len(fresh) - len(fresh)/2
	}
	calc.PrepareIn(d, probe)
	rec := append(slices.Clip(probe), stranger...)
	var pt *PreparedRecord
	switch prep {
	case privateRight:
		pt = calc.Prepare(rec)
	case sameDictRight, cappedDictRight:
		pt = calc.PrepareProbe(d, rec)
	case otherDictRight:
		// The record's tokens in reverse, behind a filler of its own: an ID
		// in other names another text of d, or none.
		other := NewSegDict()
		other.intern(ctx, "other filler")
		rev := slices.Clone(rec)
		slices.Reverse(rev)
		calc.PrepareIn(other, rev)
		pt = calc.PrepareProbe(other, rec)
	}
	for j := range pt.Segs {
		switch sg := &pt.Segs[j]; {
		case pt.dict != d:
		case sg.ID() != NoSegID:
			res.entries++
		case sg.Span().End <= len(probe):
			res.missing++
		}
	}
	if capped > 0 && res.missing == 0 {
		t.Fatalf("%d probe texts past the dictionary's cap, yet every probe segment has an entry", capped)
	}
	sc := NewScratch()
	cached := sc.adoptRows(ctx, d, pt)
	grams := map[string]bool{} // the probe's numbered grams
	for j := range pt.Segs {
		for _, g := range pt.Table(j).Grams {
			if _, ok := d.gramNumber(g); ok {
				grams[g] = true
			}
		}
	}
	res.slots = -1
	if len(grams) > maxSlots {
		if cached != 0 {
			t.Fatalf("%d numbered probe grams, cap %d: rows cover %d IDs, want none", len(grams), maxSlots, cached)
		}
	} else {
		if ps.maxSegID >= cached {
			t.Fatalf("rows cover %d IDs, left record needs %d", cached, ps.maxSegID)
		}
		if len(sc.slotted) != len(grams) {
			t.Fatalf("%d numbered probe grams: %d slots, want one a gram", len(grams), len(sc.slotted))
		}
		checkSlots(t, sc, d, pt)
		res.slots = len(sc.slotted)
		res.unwritten = checkRows(t, calc, sc, d, ps, pt)
	}
	nt := len(pt.Segs)
	checkMatrix := func(rec *PreparedRecord, what string) {
		t.Helper()
		calc.fillMSim(sc, rec, pt)
		for i := range rec.Segs {
			a := rec.Table(i)
			for j := range pt.Segs {
				if got, want := sc.msim[i*nt+j], ctx.MSimData(a, pt.Table(j)); got != want {
					t.Fatalf("q=%d %v: msim(%q, %q) = %v in the matrix of %s (ID %d, rows below %d), %v by MSimData",
						ctx.GramQ(), ctx.Measures, a.Text, pt.Table(j).Text, got, what, rec.Segs[i].ID(), sc.rowN, want)
				}
			}
		}
	}
	checkMatrix(ps, "the left record")
	late := calc.PrepareIn(d, append(slices.Clip(stranger), left...))
	checkMatrix(late, "a late record")
	for i := range late.Segs {
		if late.Segs[i].ID() >= sc.rowN {
			res.direct++
		}
	}
	return res
}

// checkRows evaluates the row of every segment of ps on first touch, through
// the slot lists of sc, which adopted pt from d, and holds every cell and
// row maximum to MSimData; every slot holds rowSentinel before, so a row
// decided to be zero must be read as zero without its slot. The eager row
// pass (fillRows) on a second scratch must leave every row of ps as first
// touch left it. It returns the number of rows decided to be zero without a
// write to their slot.
func checkRows(t *testing.T, calc *Calculator, sc *Scratch, d *SegDict, ps, pt *PreparedRecord) (unwritten int) {
	t.Helper()
	ctx, nt := calc.Ctx, len(pt.Segs)
	for k := range sc.rowVals {
		sc.rowVals[k] = rowSentinel
	}
	for i := range ps.Segs {
		a, id := ps.Table(i), ps.Segs[i].ID()
		if sc.rowStamp[id] == sc.rowGen {
			continue // a text the record repeats
		}
		calc.cacheRow(sc, id, pt)
		if slot := sc.rowVals[int(id)*nt:][:nt]; !slices.ContainsFunc(slot, func(v float64) bool { return v != rowSentinel }) {
			unwritten++
		}
		best := 0.0
		for j, got := range cachedRow(sc, id, nt) {
			want := ctx.MSimData(a, pt.Table(j))
			if got != want {
				t.Fatalf("q=%d %v: msim(%q, %q) = %v by the row kernel (%d slots), %v by MSimData",
					ctx.GramQ(), ctx.Measures, a.Text, pt.Table(j).Text, got, len(sc.slotted), want)
			}
			best = max(best, want)
		}
		if sc.rowMax[id] != best {
			t.Fatalf("q=%d %v: row maximum of %q = %v, want %v", ctx.GramQ(), ctx.Measures, a.Text, sc.rowMax[id], best)
		}
	}
	eager := NewScratch()
	eager.adoptRows(ctx, d, pt)
	calc.fillRows(eager, pt)
	for i := range ps.Segs {
		id := ps.Segs[i].ID()
		if eager.rowStamp[id] != eager.rowGen || eager.rowMax[id] != sc.rowMax[id] || !slices.Equal(cachedRow(eager, id, nt), cachedRow(sc, id, nt)) {
			t.Fatalf("q=%d %v: the eager pass left the row of %q at %v (max %v), evaluated on first touch %v (max %v)",
				ctx.GramQ(), ctx.Measures, ps.Table(i).Text, cachedRow(eager, id, nt), eager.rowMax[id], cachedRow(sc, id, nt), sc.rowMax[id])
		}
	}
	return unwritten
}

// checkSlots holds the adopted probe-gram index to its definition: slot s
// names a gram d numbers, by number and by text, and it lists, in order,
// exactly the segments of pt whose grams hold the gram.
func checkSlots(t *testing.T, sc *Scratch, d *SegDict, pt *PreparedRecord) {
	t.Helper()
	segsOf := map[uint32][]int32{} // gram number → the segments of pt holding it
	for j := range pt.Segs {
		for _, g := range pt.Table(j).Grams {
			if num, ok := d.gramNumber(g); ok {
				segsOf[num] = append(segsOf[num], int32(j))
			}
		}
	}
	for s, num := range sc.slotted {
		if int(num) >= d.NumGrams() || int(sc.gramSlot[num]) != s+1 {
			t.Fatalf("slot %d holds gram %d of %d, whose slot is %d", s, num, d.NumGrams(), sc.gramSlot[num])
		}
		if got := sc.slotSegs[sc.slotOff[s]:sc.slotOff[s+1]]; !slices.Equal(got, segsOf[num]) {
			t.Fatalf("slot %d (gram %d) lists segments %v, want %v", s, num, got, segsOf[num])
		}
	}
}

// rowCase is what one rowKernelCase saw: the number of slots the scratch's
// probe-gram index holds (−1 for a probe past its cap), the number of segments that took the
// direct path, the number of left segments whose row was decided to be zero
// without a write to its slot, the number of right-hand segments whose gram
// numbers the index could take from their entry of the rows' dictionary,
// and the number of probe segments left without one although the record
// read that dictionary (a capped one).
type rowCase struct{ slots, direct, unwritten, entries, missing int }

// distinctTokens returns n distinct tokens of exactly width bytes over an
// alphabet of 66 characters, so with q = width each is one gram.
func distinctTokens(n, width int) []string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+/-_"
	out := make([]string, n)
	for i := range out {
		b := make([]byte, width)
		for k, v := 0, i; k < width; k, v = k+1, v/len(alphabet) {
			b[k] = alphabet[v%len(alphabet)]
		}
		out[i] = string(b)
	}
	return out
}

// TestRowKernelMatchesMSimData pins the row kernel to the cell-by-cell
// reference: every cell of a row evaluated through the probe-gram slot lists
// is the float MSimData returns, for every q and every measure combination,
// at the 64-gram word boundary and the 512-gram cap of the bitmask kernel
// the slot lists replaced, in the degenerate Jaccard cases, beside probe
// grams the dictionary never numbered, on the direct path of a text interned
// after the scratch adopted the probe, and where text and probe share no gram
// and only a rule side, a taxonomy node or an empty text can score — the
// cases the score bits decide. Those cases must leave a zero row unwritten.
func TestRowKernelMatchesMSimData(t *testing.T) {
	g64, g65 := distinctTokens(64, 1), distinctTokens(65, 1)
	// The bitmask kernel indexed at most 512 numbered probe grams and left
	// a probe with more to MSimData; the slot lists index both.
	const oldCap = 512
	atCap, pastCap := distinctTokens(oldCap, 2), distinctTokens(oldCap+1, 2)
	var beyondCap []string // 2-byte grams no interned text has
	for _, tok := range distinctTokens(40, 1) {
		beyondCap = append(beyondCap, "~"+tok)
	}
	mixed := false // a capped dictionary gave some probe segments entries, others none
	for _, tc := range []struct {
		name                  string
		q                     int // 0: every q in 1..9
		left, probe, stranger []string
		slots                 int  // expected slot count at q (ignored when q is 0)
		unwritten             bool // some row is decided zero, slot unwritten (Jaccard on)
	}{
		{"figure 1", 0, []string{"coffee", "shop", "latte", "helsingki"}, []string{"espresso", "cafe", "helsinki", "apple", "cake"}, nil, 0, false},
		{"shorter than q", 5, []string{"ab", "abc", "cake"}, []string{"ab", "abcd", "abcde", "cake"}, nil, 4, false},
		{"empty text", 2, []string{"", "a"}, []string{"", "a", "ab"}, nil, 2, false},
		{"repeated grams", 2, []string{"aaaa", "aaaaaaa", "abababab"}, []string{"aaa", "ababab", "aaaaab"}, nil, 3, false},
		{"64 probe grams", 1, []string{g64[63] + g64[0], g64[62], "~"}, g64, nil, 64, false},
		{"65 probe grams", 1, []string{g65[64] + g65[63] + g65[0], g65[64], g65[63]}, g65, nil, 65, false},
		{"gram cap", 2, []string{atCap[oldCap-1], atCap[0] + atCap[oldCap-1], atCap[100]}, atCap, nil, 512, false},
		{"past the gram cap", 2, []string{pastCap[oldCap], pastCap[0] + pastCap[oldCap]}, pastCap, nil, 513, false},
		{"high bytes and NUL", 2, []string{"\x00\xff\x80a", "\x00\x00", "caf\xc3\xa9"}, []string{"\x00\xff", "\x80a\x00", "\x00\x00\x00", "caf\xc3\xa9"}, nil, 8, false},
		{"figure 1, unnumbered grams", 0, []string{"coffee", "shop", "latte", "helsingki"}, []string{"cafe", "helsinki"}, []string{"espresso", "cake", "zqx"}, 0, false},
		{"no numbered probe gram", 2, []string{"coffee", "cake"}, nil, []string{"zq", "qxj", "jzv"}, 0, false},
		{"unnumbered grams past the cap", 2, []string{atCap[7], atCap[0] + atCap[9]}, atCap, beyondCap, 512, false},
		{"64 numbered of 65 probe grams", 1, []string{g65[63] + g65[0], g65[62]}, g65[:64], g65[64:], 64, false},
		// No 3-gram of a left text is one of the probe's below.
		{"rule sides, no shared gram", 3, []string{"coffee", "shop", "cake"}, []string{"cafe", "gateau"}, nil, 6, true},
		{"nodes, no shared gram", 3, []string{"espresso", "apple"}, []string{"latte"}, nil, 3, true},
		{"rule side against a node", 3, []string{"gateau"}, []string{"espresso"}, nil, 6, true},
		{"node against a rule side", 3, []string{"latte"}, []string{"gateau"}, nil, 4, true},
		{"rule side and node against neither", 3, []string{"gateau", "latte"}, []string{"shop", "market"}, nil, 6, true},
		{"empty text, no shared gram", 3, []string{"", "zz"}, []string{"", "qq"}, nil, 1, true},
		{"empty text against no empty segment", 3, []string{"", "zz"}, []string{"qq"}, nil, 1, true},
	} {
		for q := 1; q <= 9; q++ {
			if tc.q != 0 && q != tc.q {
				continue
			}
			for ms := sim.MeasureSet(1); ms <= sim.SetAll; ms++ {
				for _, prep := range rightPreps {
					ctx := paperContext().WithMeasures(ms)
					ctx.Q = q
					res := rowKernelCase(t, ctx, prep, tc.left, tc.probe, tc.stranger)
					if tc.q != 0 && ms&sim.SetJaccard != 0 && prep != cappedDictRight && res.slots != tc.slots {
						t.Errorf("%s, %v right: %d slots, want %d", tc.name, prep, res.slots, tc.slots)
					}
					if tc.unwritten && ms&sim.SetJaccard != 0 && res.unwritten == 0 {
						t.Errorf("%s %v, %v right: every row was written: no zero row was decided from the score bits", tc.name, ms, prep)
					}
					if len(tc.stranger) > 0 && res.direct == 0 {
						t.Errorf("%s, %v right: no text interned under the live scratch took the direct path", tc.name, prep)
					}
					checkEntries(t, tc.name, prep, res.entries, len(tc.probe))
					mixed = mixed || prep == cappedDictRight && res.entries > 0 && res.missing > 0
				}
			}
		}
	}
	if !mixed {
		t.Error("no capped dictionary left a probe with segments both with and without an entry")
	}
}

// TestRowKernelAtGramCaps holds the row kernel to MSimData at every cap of
// the probe-gram index (rowKernelCase): at 512 and 513 numbered probe
// grams, the bitmask kernel's old boundary past which every row, the eager
// pass's included, went to MSimData, both indexed by the slot lists; at
// maxSlots, still indexed; and one past it, where the probe adopts no rows
// and its matrix is MSimData's, cell by cell.
func TestRowKernelAtGramCaps(t *testing.T) {
	for _, tc := range []struct{ grams, slots int }{{512, 512}, {513, 513}, {maxSlots, maxSlots}, {maxSlots + 1, -1}} {
		toks := distinctTokens(tc.grams, 3) // one 3-gram a token
		left := []string{toks[tc.grams-1], toks[0] + toks[tc.grams-1], toks[tc.grams/2], "~~~"}
		for _, ms := range []sim.MeasureSet{sim.SetJaccard, sim.SetAll} {
			for _, prep := range []rightPrep{privateRight, sameDictRight} {
				ctx := paperContext().WithMeasures(ms)
				ctx.Q = 3
				if res := rowKernelCase(t, ctx, prep, left, toks, nil); res.slots != tc.slots {
					t.Errorf("%d numbered probe grams, %v, %v right: %d slots, want %d", tc.grams, ms, prep, res.slots, tc.slots)
				}
			}
		}
	}
}

// checkEntries fails unless the right-hand record of a rowKernelCase over a
// probe of n tokens has entries of the rows' dictionary only where its
// preparation read that dictionary, and one per probe token at least when
// nothing capped it.
func checkEntries(t *testing.T, name string, prep rightPrep, entries, n int) {
	t.Helper()
	switch {
	case (prep == privateRight || prep == otherDictRight) && entries != 0:
		t.Errorf("%s, %v right: %d segments read as entries of the rows' dictionary", name, prep, entries)
	case prep == sameDictRight && entries < n:
		t.Errorf("%s, %v right: %d segments with an entry, want every one of the probe's %d tokens' at least", name, prep, entries, n)
	}
}

// FuzzRowKernel feeds the same comparison arbitrary bytes: the two records
// are the inputs split at spaces (not tokenized, so empty tokens, NUL and
// bytes ≥ 0x80 reach the kernel), q is 1 + q%9 and measures a MeasureSet.
// The probe is checked twice, every token interned and the second half of
// its tokens left to the stranger side, and each check prepares the probe
// record all four ways (rightPrep).
func FuzzRowKernel(f *testing.F) {
	// testdata/fuzz/FuzzRowKernel holds the table's boundary cases as seeds.
	f.Add("coffee shop latte", "cafe espresso latte", uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, left, probe string, q, measures uint8) {
		ctx := paperContext().WithMeasures(sim.MeasureSet(measures) & sim.SetAll)
		ctx.Q = 1 + int(q)%9
		l, p := strings.Split(left, " "), strings.Split(probe, " ")
		for _, prep := range rightPreps {
			rowKernelCase(t, ctx, prep, l, p, nil)
			rowKernelCase(t, ctx, prep, l, p[:len(p)/2], p[len(p)/2:])
		}
	})
}

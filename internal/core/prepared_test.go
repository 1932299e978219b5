package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// randTokens draws up to maxLen tokens from the vocabulary (possibly none).
func randTokens(rng *rand.Rand, vocab []string, maxLen int) []string {
	n := rng.Intn(maxLen + 1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = vocab[rng.Intn(len(vocab))]
	}
	return out
}

var preparedVocab = []string{"coffee", "shop", "latte", "espresso", "cafe",
	"helsinki", "helsingki", "cake", "apple", "gateau", "food", "drinks"}

// leftWay is one of the ways a verifier can meet the left record of a pair:
// the record as prepared and the scratch it is verified on.
type leftWay struct {
	name string
	ps   *PreparedRecord
	sc   *Scratch
}

// leftWays prepares tokens the three ways: without a dictionary (the direct
// path), interned into d on a cold scratch (every row evaluated), and
// interned on the caller's long-lived scratch (rows left by earlier pairs,
// probes and dictionaries must never answer for this one).
func leftWays(calc *Calculator, d *SegDict, warm *Scratch, tokens []string) []leftWay {
	interned := calc.PrepareIn(d, tokens)
	return []leftWay{
		{"plain", calc.Prepare(tokens), warm},
		{"interned", interned, NewScratch()},
		{"interned/warm", interned, warm},
	}
}

// TestSimilarityPreparedMatchesTokens is the engine's central property:
// SimilarityPrepared must return exactly the value SimilarityTokens returns,
// and the thresholded verification must agree with comparing that value
// against θ, across measure combinations and thresholds.
func TestSimilarityPreparedMatchesTokens(t *testing.T) {
	combos := []sim.MeasureSet{
		sim.SetJaccard,                   // J
		sim.SetTaxonomy | sim.SetSynonym, // TS
		sim.SetAll,                       // TJS
	}
	thetas := []float64{0.7, 0.8, 0.9}
	base := paperContext()
	for _, ms := range combos {
		calc := NewCalculator(base.WithMeasures(ms))
		rng := rand.New(rand.NewSource(int64(ms) + 7))
		sc, d := NewScratch(), NewSegDict()
		for trial := 0; trial < 200; trial++ {
			sTok := randTokens(rng, preparedVocab, 5)
			tTok := randTokens(rng, preparedVocab, 5)
			want := calc.SimilarityTokens(sTok, tTok)
			pt := calc.Prepare(tTok)
			for _, w := range leftWays(calc, d, sc, sTok) {
				ps, sc := w.ps, w.sc
				if got := calc.SimilarityPrepared(ps, pt, sc); got != want {
					t.Fatalf("%v trial %d %s: SimilarityPrepared = %v, SimilarityTokens = %v for %v / %v",
						ms, trial, w.name, got, want, sTok, tTok)
				}
				for _, theta := range thetas {
					if v, ok := calc.VerifyPrepared(ps, pt, theta, sc); ok != (want >= theta) || (ok && v != want) {
						t.Fatalf("%v trial %d %s θ=%v: VerifyPrepared = (%v, %v), similarity %v",
							ms, trial, w.name, theta, v, ok, want)
					}
				}
			}
		}
	}
}

// TestVerifyPreparedMatchesTokens pins the thresholded verification engine,
// VerifyPrepared: its verdict must agree with the full computation at every
// threshold, including both boundary directions.
func TestVerifyPreparedMatchesTokens(t *testing.T) {
	calc := NewCalculator(paperContext())
	rng := rand.New(rand.NewSource(99))
	sc, d := NewScratch(), NewSegDict()
	for trial := 0; trial < 100; trial++ {
		sTok := randTokens(rng, preparedVocab, 5)
		tTok := randTokens(rng, preparedVocab, 5)
		want := calc.SimilarityTokens(sTok, tTok)
		pt := calc.Prepare(tTok)
		for _, theta := range []float64{0, 0.5, 0.7, 0.8, 0.9, 1, want} {
			if _, got := calc.VerifyPrepared(calc.Prepare(sTok), pt, theta, NewScratch()); got != (want >= theta) {
				t.Fatalf("trial %d θ=%v: VerifyPrepared of fresh records = %v, similarity = %v for %v / %v",
					trial, theta, got, want, sTok, tTok)
			}
			for _, w := range leftWays(calc, d, sc, sTok) {
				if _, got := calc.VerifyPrepared(w.ps, pt, theta, w.sc); got != (want >= theta) {
					t.Fatalf("trial %d θ=%v %s: VerifyPrepared = %v, similarity = %v for %v / %v",
						trial, theta, w.name, got, want, sTok, tTok)
				}
			}
		}
	}
}

func TestPreparedEmptyRecords(t *testing.T) {
	calc := NewCalculator(paperContext())
	empty := calc.Prepare(nil)
	full := calc.Prepare([]string{"coffee"})
	sc := NewScratch()
	if v := calc.SimilarityPrepared(empty, empty, sc); v != 1 {
		t.Errorf("empty-empty = %v, want 1", v)
	}
	if v := calc.SimilarityPrepared(empty, full, sc); v != 0 {
		t.Errorf("empty-full = %v, want 0", v)
	}
	if v := calc.SimilarityPrepared(full, empty, sc); v != 0 {
		t.Errorf("full-empty = %v, want 0", v)
	}
	if v, ok := calc.VerifyPrepared(empty, empty, 1, sc); !ok || v != 1 {
		t.Errorf("VerifyPrepared(empty, empty, 1) = (%v, %v), want (1, true)", v, ok)
	}
	if _, ok := calc.VerifyPrepared(empty, full, 0.1, sc); ok {
		t.Error("VerifyPrepared(empty, full) should not reach 0.1")
	}
	if empty.NumSegments() != 0 || empty.MinPartitionSize() != 0 {
		t.Errorf("empty prepared record = %d segments, minPart %d", empty.NumSegments(), empty.MinPartitionSize())
	}
	if full.NumSegments() != 1 || full.MinPartitionSize() != 1 {
		t.Errorf("single-token prepared record = %d segments, minPart %d", full.NumSegments(), full.MinPartitionSize())
	}
}

// TestScratchReuseIsDeterministic verifies a single scratch reused across
// many pairs produces the same values as fresh scratch per pair — the
// property the pooled-scratch reuse in the join's verify pass depends on.
func TestScratchReuseIsDeterministic(t *testing.T) {
	calc := NewCalculator(paperContext())
	rng := rand.New(rand.NewSource(5))
	shared, d := NewScratch(), NewSegDict()
	for trial := 0; trial < 60; trial++ {
		sTok := randTokens(rng, preparedVocab, 5)
		pt := calc.Prepare(randTokens(rng, preparedVocab, 5))
		for _, w := range leftWays(calc, d, shared, sTok) {
			a := calc.SimilarityPrepared(w.ps, pt, w.sc)
			b := calc.SimilarityPrepared(w.ps, pt, NewScratch())
			if a != b {
				t.Fatalf("trial %d %s: reused scratch %v != fresh scratch %v", trial, w.name, a, b)
			}
		}
	}
}

// corpusTokens draws n non-empty token sequences from the vocabulary.
func corpusTokens(rng *rand.Rand, n int) [][]string {
	out := make([][]string, n)
	for i := range out {
		for len(out[i]) == 0 {
			out[i] = randTokens(rng, preparedVocab, 5)
		}
	}
	return out
}

// TestOneScratchTwoDictionaries moves one scratch between two dictionaries
// that assign the same IDs to different texts (the same corpus interned in
// opposite orders) while the probe stays put: a row cache keyed by the probe
// alone would answer one dictionary's IDs with the other's rows. This is a
// pooled scratch serving two indexes of one joiner.
func TestOneScratchTwoDictionaries(t *testing.T) {
	calc := NewCalculator(paperContext())
	rng := rand.New(rand.NewSource(17))
	corpus := corpusTokens(rng, 80)
	d1, d2 := NewSegDict(), NewSegDict()
	in1 := make([]*PreparedRecord, len(corpus))
	in2 := make([]*PreparedRecord, len(corpus))
	for i := range corpus {
		in1[i] = calc.PrepareIn(d1, corpus[i])
		k := len(corpus) - 1 - i
		in2[k] = calc.PrepareIn(d2, corpus[k])
	}
	if d1.Len() != d2.Len() || d1.Len() == 0 {
		t.Fatalf("dictionary sizes %d / %d, want equal and non-zero", d1.Len(), d2.Len())
	}
	sc := NewScratch()
	for _, probe := range corpusTokens(rng, 5) {
		// The probe without a dictionary, and read from each: its IDs name
		// one dictionary's entries and must not be taken for the other's.
		for _, pt := range []*PreparedRecord{calc.Prepare(probe), calc.PrepareProbe(d1, probe), calc.PrepareProbe(d2, probe)} {
			for i, toks := range corpus {
				want := calc.SimilarityTokens(toks, probe)
				if got := calc.SimilarityPrepared(in1[i], pt, sc); got != want {
					t.Fatalf("dict 1 record %d %v / %v: %v, want %v", i, toks, probe, got, want)
				}
				if got := calc.SimilarityPrepared(in2[i], pt, sc); got != want {
					t.Fatalf("dict 2 record %d %v / %v: %v, want %v", i, toks, probe, got, want)
				}
			}
		}
	}
	if sc.Stats.MemoHits == 0 {
		t.Error("no row was ever reused; the comparison never exercised the cache")
	}
}

// TestProbeSharesInternedRows pins that a probe is an ordinary record of the
// dictionary it read: its segment IDs name d's entries, so on the left of a
// pair it reads the rows its interned twin left in the scratch — the same
// value, every cell copied and none evaluated — and a cover column encodes it
// exactly as it encodes the twin.
func TestProbeSharesInternedRows(t *testing.T) {
	calc := NewCalculator(paperContext())
	d := NewSegDict()
	tokens := []string{"coffee", "shop", "latte", "cake"}
	interned := calc.PrepareIn(d, tokens)
	probe := calc.PrepareProbe(d, tokens)
	for i := range probe.Segs {
		if probe.Segs[i].ID != interned.Segs[i].ID {
			t.Fatalf("segment %d: probe ID %d, interned %d", i, probe.Segs[i].ID, interned.Segs[i].ID)
		}
	}
	if probe.maxSegID != interned.maxSegID {
		t.Fatalf("probe maxSegID %d, interned %d", probe.maxSegID, interned.maxSegID)
	}
	right := calc.Prepare([]string{"cafe", "latte", "apple", "cake"})
	sc := NewScratch()
	want := calc.SimilarityPrepared(interned, right, sc) // caches a row for every text
	sc.Stats = VerifyStats{}
	if got := calc.SimilarityPrepared(probe, right, sc); got != want {
		t.Fatalf("probe on the left: %v, interned twin %v", got, want)
	}
	if cells := int64(len(probe.Segs) * len(right.Segs)); sc.Stats.MemoHits != cells || sc.Stats.MSimEvals != 0 {
		t.Fatalf("probe on the left: %d memo hits and %d cells evaluated, want %d and 0", sc.Stats.MemoHits, sc.Stats.MSimEvals, cells)
	}
	col := NewCoverColumn(d, []*PreparedRecord{interned, probe})
	a, b := col.recs[0], col.recs[1]
	if a.maxID == coverFlagged || b.maxID != a.maxID || b.minPart != a.minPart || b.tokens != a.tokens ||
		!slices.Equal(col.segs[:a.end], col.segs[a.end:b.end]) {
		t.Fatalf("cover column: interned record %+v, probe %+v, words %v; want the probe encoded as its twin", a, b, col.segs)
	}
}

// TestRowCacheGrowthAndBounds covers the segments the row cache cannot hold:
// IDs interned after the scratch adopted its probe (the dictionary grew under
// a live scratch), segments a full dictionary refused (NoSegID), and IDs
// beyond the scratch's cell budget. All three take the direct path: values
// stay exact, and verifying the same pair again computes exactly those
// segments' cells again — a cached row would have answered them. A record
// with such a segment also skips the cover stage: CoverBound leaves it to
// the size ratio (or, flagged, to 1), while a record all of whose segments
// have rows is dismissed from the cached row maxima at a threshold between
// its cover bound and its size ratio with no cell computed and none copied.
// VerifyPrepared, which has no cover stage, fills the matrix of either at
// that threshold, computing the cells beyond the rows and no others, and
// dismisses the pair by the size ratio, counted, above that ratio.
func TestRowCacheGrowthAndBounds(t *testing.T) {
	calc := NewCalculator(paperContext())
	// The scratch adopts the probe — and the dictionary's length — on the
	// first pair; every later record is interned under the live scratch.
	corpus := [][]string{{"coffee", "shop", "latte"}, {"cafe", "helsinki"},
		{"apple", "cake", "coffee"}, {"gateau", "food", "drinks", "cafe"}}
	probe := []string{"espresso", "cafe", "helsingki", "cake"}
	for _, tc := range []struct {
		name             string
		dictCap, rowCell int // 0: the default
	}{
		{"growth", 0, 0},
		{"entry cap", 4, 0},
		{"cell budget", 0, 3 * 4}, // three IDs' rows against the 4-segment probe
	} {
		d, sc := NewSegDict(), NewScratch()
		if tc.dictCap > 0 {
			d.limit = tc.dictCap
		}
		if tc.rowCell > 0 {
			sc.rowCells = tc.rowCell
		}
		pt := calc.Prepare(probe)
		nt := int64(pt.NumSegments())
		direct := int64(0) // segments that verified on the direct path
		staged := 0        // records the cover stage dismissed
		ratioPruned := 0   // records VerifyPrepared's size ratio dismissed
		verify := func(toks []string) {
			t.Helper()
			ps := calc.PrepareIn(d, toks)
			want := calc.SimilarityTokens(toks, probe)
			beyond := int64(0)
			for pass := 0; pass < 2; pass++ {
				before := sc.Stats
				if got := calc.SimilarityPrepared(ps, pt, sc); got != want {
					t.Fatalf("%s: %v / %v pass %d = %v, want %v", tc.name, toks, probe, pass, got, want)
				}
				beyond = 0
				for i := range ps.Segs {
					if ps.Segs[i].ID >= sc.rowN {
						beyond++
					}
				}
				evals, hits := sc.Stats.MSimEvals-before.MSimEvals, sc.Stats.MemoHits-before.MemoHits
				if evals+hits != int64(len(ps.Segs))*nt {
					t.Fatalf("%s: %v pass %d: %d evals + %d hits, want %d cells", tc.name, toks, pass, evals, hits, int64(len(ps.Segs))*nt)
				}
				if pass == 1 && evals != beyond*nt {
					t.Fatalf("%s: %v second pass computed %d cells, want %d (the %d segments beyond the %d cached IDs)",
						tc.name, toks, evals, beyond*nt, beyond, sc.rowN)
				}
			}
			direct += beyond

			// The cover stage, on a column of the record alone and the rows
			// the passes above left warm.
			cover, ratio := leftCoverRef(calc, ps, pt), sizeRatioUpper(ps, pt)
			if cover >= ratio {
				t.Fatalf("%s: %v: cover bound %v, size ratio %v: no threshold between them", tc.name, toks, cover, ratio)
			}
			theta := (cover + ratio) / 2
			col := NewCoverColumn(d, []*PreparedRecord{ps})
			sc.Stats = VerifyStats{}
			bound, expect := ratio, VerifyStats{}
			switch {
			case ps.maxSegID == NoSegID:
				bound = 1
			case beyond == 0:
				bound, expect = cover, VerifyStats{PrunedByBound: 1, PrunedByCover: 1}
				staged++
			}
			if got := calc.CoverBound(&col, 0, pt, theta, sc); got != bound || sc.Stats != expect {
				t.Fatalf("%s: %v with %d segments beyond the rows: CoverBound = %v with %+v, want %v with %+v",
					tc.name, toks, beyond, got, sc.Stats, bound, expect)
			}
			sc.Stats = VerifyStats{}
			if _, ok := calc.VerifyPrepared(ps, pt, theta, sc); ok {
				t.Fatalf("%s: %v / %v verified above its cover bound %v", tc.name, toks, probe, cover)
			}
			expect = VerifyStats{VerifiedCandidates: 1, MSimEvals: beyond * nt, MemoHits: (int64(len(ps.Segs)) - beyond) * nt}
			if sc.Stats != expect {
				t.Fatalf("%s: %v with %d segments beyond the rows: VerifyPrepared did %+v, want %+v", tc.name, toks, beyond, sc.Stats, expect)
			}
			if ratio < 1 {
				sc.Stats = VerifyStats{}
				if _, ok := calc.VerifyPrepared(ps, pt, (ratio+1)/2, sc); ok || sc.Stats != (VerifyStats{PrunedByBound: 1}) {
					t.Fatalf("%s: %v above its size ratio %v: verified %v with %+v", tc.name, toks, ratio, ok, sc.Stats)
				}
				ratioPruned++
			}
		}
		for _, toks := range corpus {
			verify(toks)
		}
		if direct == 0 {
			t.Errorf("%s: every segment had a cached row; the direct path never ran", tc.name)
		}
		if staged == 0 && tc.rowCell == 0 {
			t.Errorf("%s: no record had a row for every segment; the cover stage never ran", tc.name)
		}
		if ratioPruned == 0 {
			t.Errorf("%s: no record's size ratio was below 1", tc.name)
		}
		if tc.dictCap > 0 && d.Len() != tc.dictCap {
			t.Errorf("%s: dictionary holds %d entries, cap %d", tc.name, d.Len(), tc.dictCap)
		}
	}
}

func BenchmarkSimilarityPreparedPOI(b *testing.B) {
	calc := NewCalculator(paperContext())
	ps := calc.Prepare([]string{"coffee", "shop", "latte", "helsingki"})
	pt := calc.Prepare([]string{"espresso", "cafe", "helsinki"})
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calc.SimilarityPrepared(ps, pt, sc)
	}
}

// BenchmarkVerifyPreparedReject times the reject of a pair of dictionary-less
// records: no rows, so the pair fills its matrix and coverUpper dismisses it.
func BenchmarkVerifyPreparedReject(b *testing.B) {
	calc := NewCalculator(paperContext())
	ps := calc.Prepare([]string{"coffee", "shop", "latte", "helsingki"})
	pt := calc.Prepare([]string{"apple", "cake", "bakery", "market"})
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calc.VerifyPrepared(ps, pt, 0.8, sc)
	}
}

// BenchmarkCoverBoundReject is the same reject as the engine meets it: the
// left record interned and held as a one-record cover column, its rows warm,
// so CoverBound's cover stage dismisses the pair from one number a segment.
func BenchmarkCoverBoundReject(b *testing.B) {
	calc, d := NewCalculator(paperContext()), NewSegDict()
	col := NewCoverColumn(d, []*PreparedRecord{calc.PrepareIn(d, []string{"coffee", "shop", "latte", "helsingki"})})
	pt := calc.Prepare([]string{"apple", "cake", "bakery", "market"})
	sc := NewScratch()
	if calc.CoverBound(&col, 0, pt, 0.8, sc) >= 0.8-BoundSlack || sc.Stats.PrunedByCover != 1 {
		b.Fatalf("%d dismissed by the cover stage: not the cover reject", sc.Stats.PrunedByCover)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calc.CoverBound(&col, 0, pt, 0.8, sc)
	}
}

// BenchmarkVerifyPreparedFirstTouch times what the first pair of a probe to
// hold a segment text pays: evaluating the text's row, as the engine meets
// it — an interned left record against a private probe over a catalogue that
// shares its vocabulary — through the probe-gram slot lists (cacheRow) and
// on the direct path (msimRow), MSimData cell by cell.
func BenchmarkVerifyPreparedFirstTouch(b *testing.B) {
	calc := NewCalculator(paperContext())
	d := NewSegDict()
	for _, toks := range corpusTokens(rand.New(rand.NewSource(3)), 40) {
		calc.PrepareIn(d, toks)
	}
	ps := calc.PrepareIn(d, []string{"helsingki"})
	pt := calc.PrepareProbe(d, []string{"espresso", "cafe", "helsinki", "apple", "cake", "market"})
	for _, path := range []string{"numbered", "direct"} {
		b.Run(path, func(b *testing.B) {
			sc := NewScratch()
			if sc.adoptRows(calc.Ctx, d, pt) <= ps.maxSegID {
				b.Fatal("the left record has no row slot")
			}
			if len(sc.slotted) == 0 {
				b.Fatal("the probe has no numbered gram in its index")
			}
			row := make([]float64, len(pt.Segs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if path == "direct" {
					calc.msimRow(sc, row, ps.Segs[0].Data, pt)
				} else {
					calc.cacheRow(sc, ps.Segs[0].ID, pt)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pt.Segs)), "ns/cell")
		})
	}
}

// BenchmarkVerifyPreparedSurvivor times an interned pair that passes every
// bound and runs Algorithm 1, rows warm.
func BenchmarkVerifyPreparedSurvivor(b *testing.B) {
	calc := NewCalculator(paperContext())
	ps := calc.PrepareIn(NewSegDict(), []string{"coffee", "shop", "latte", "helsingki"})
	pt := calc.Prepare([]string{"espresso", "cafe", "helsinki"})
	sc := NewScratch()
	if _, ok := calc.VerifyPrepared(ps, pt, 0.5, sc); !ok {
		b.Fatal("the pair does not reach 0.5")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calc.VerifyPrepared(ps, pt, 0.5, sc)
	}
}

// BenchmarkVerifyRowPass times the eager row pass alone (AdoptProbe's
// fillRows, with the adoption it follows) on the batch join's shape: a
// dictionary of 1 000 MED-like records (datagen.MEDLike(1000, 7), q = 2)
// and 64 probes of the same generator cycled, half variants of its records
// and half records outside it, so every iteration starts a new probe. It
// reports the time a row beside ns/op.
func BenchmarkVerifyRowPass(b *testing.B) {
	gen := datagen.New(datagen.MEDLike(1000, 7))
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = 2
	calc, d := NewCalculator(ctx), NewSegDict()
	raws := gen.Collection(1032)
	for _, raw := range raws[:1000] {
		calc.PrepareIn(d, strutil.Tokenize(raw))
	}
	var probes []*PreparedRecord
	for k := 0; k < 32; k++ {
		v, _ := gen.Variant(raws[k*31])
		probes = append(probes, calc.PrepareProbe(d, strutil.Tokenize(v)))
	}
	for _, raw := range raws[1000:] {
		probes = append(probes, calc.PrepareProbe(d, strutil.Tokenize(raw)))
	}
	sc := NewScratch()
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := probes[i%len(probes)]
		rows += int(sc.adoptRows(ctx, d, pt))
		calc.fillRows(sc, pt)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}

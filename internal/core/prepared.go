package core

import (
	"slices"

	"github.com/aujoin/aujoin/internal/matching"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/wmis"
)

// PreparedSegment is one well-defined segment of a prepared record together
// with its precomputed measure-evaluation tables. Its tokens are
// Span.Slice(record.Tokens).
type PreparedSegment struct {
	Span strutil.Span
	// Rule and Entity mirror Segment's flags.
	Rule, Entity bool
	// ID is the dense identity of the segment's text in the record's
	// dictionary — for a probe, the dictionary it was read from
	// (PrepareProbe) — or NoSegID.
	ID uint32
	// Data carries the q-gram set, taxonomy node and applicable rule ids: the
	// dictionary's shared table for the text when ID is set, otherwise a slot
	// of the record's own backing array.
	Data *sim.SegmentData
}

// PreparedRecord caches everything verification needs about one record:
// the full segment enumeration with per-segment gram sets, taxonomy nodes
// and rule-side derivations, plus the partition-size lower bound used by the
// thresholded early exit. Prepare it once per record and verify it against
// arbitrarily many counterparts; the struct is immutable after Prepare and
// safe for concurrent use.
type PreparedRecord struct {
	// Tokens is the record's token sequence.
	Tokens []string
	// Segs lists every well-defined segment, ordered by start position then
	// length (the same order Segmenter.Segments produces).
	Segs []PreparedSegment
	// single[pos] is the index in Segs of the singleton segment starting at
	// pos; every position has one.
	single []int32
	// minPart is a lower bound on the size of any well-defined partition of
	// the record (GetMinPartitionSize of Algorithm 2).
	minPart int
	// dict is the dictionary the segments' IDs index — the one the record was
	// interned into or, for a probe, read from; nil when the record was
	// prepared without one (every ID is NoSegID then).
	dict *SegDict
	// maxSegID is the largest segment ID of the record (NoSegID as soon as one
	// segment has none): every segment has a row slot in a scratch whose rows
	// cover more IDs than this.
	maxSegID uint32
}

// NumSegments returns the number of well-defined segments of the record.
func (pr *PreparedRecord) NumSegments() int { return len(pr.Segs) }

// MinPartitionSize returns the precomputed lower bound on the size of any
// well-defined partition of the record.
func (pr *PreparedRecord) MinPartitionSize() int { return pr.minPart }

// Prepare is PrepareProbe without a dictionary: every derivation table is the
// record's own.
func (c *Calculator) Prepare(tokens []string) *PreparedRecord {
	return c.PrepareProbe(nil, tokens)
}

// PrepareIn prepares a record of the index d serves — the one segment
// enumeration of a record, which pebble generation, MP(S) and verification
// all read: the well-defined segments, per-segment derivation tables (gram
// set and gram pebble keys, rule ids, taxonomy node) and the partition-size
// lower bound. Every segment's text is interned into d, so the record carries
// dense segment IDs and shares one derivation table per distinct text with
// every other record of d. d must only ever be used with this calculator's
// context. The returned record is immutable and safe to share across
// goroutines.
func (c *Calculator) PrepareIn(d *SegDict, tokens []string) *PreparedRecord {
	return c.prepare(d, true, tokens)
}

// PrepareProbe is PrepareIn for the probe side — a query, a probe batch, the
// T side of a join: it reads d and never writes it, so a query stream cannot
// grow an index's dictionary. A segment whose text d holds shares d's table;
// any other (and every one when d is nil) gets a private derivation. A
// segment's ID is that of its text in d, NoSegID where d holds none: signing
// from an order generation's probe table reads it, and so does the verifier's
// probe-gram index (Scratch.indexProbeGrams). An ID names d's entry whichever
// side of a pair the record is on, so a probe all of whose texts d holds
// reads the row cache as a left operand like any record of d.
func (c *Calculator) PrepareProbe(d *SegDict, tokens []string) *PreparedRecord {
	return c.prepare(d, false, tokens)
}

func (c *Calculator) prepare(d *SegDict, intern bool, tokens []string) *PreparedRecord {
	pr := &PreparedRecord{Tokens: tokens}
	if len(tokens) == 0 {
		return pr
	}
	segs := c.Segmenter().Segments(tokens)
	pr.Segs = make([]PreparedSegment, len(segs))
	pr.single = make([]int32, len(tokens))
	for i, s := range segs {
		pr.Segs[i] = PreparedSegment{Span: s.Span, Rule: s.Rule, Entity: s.Entity}
		if s.Span.Len() == 1 {
			pr.single[s.Span.Start] = int32(i)
		}
	}
	pr.minPart = minPartitionSizeSegs(tokens, segs)
	// Every segment's ID and derivation table: interned into d, or — on the
	// probe side — read from d where it holds the text and derived privately,
	// into one backing array for the record, where it does not.
	pr.dict = d
	if intern && d != nil {
		for i := range pr.Segs {
			sg := &pr.Segs[i]
			sg.ID, sg.Data = d.intern(c.Ctx, sg.Span.Slice(pr.Tokens))
			pr.maxSegID = max(pr.maxSegID, sg.ID)
		}
		return pr
	}
	missing := d.read(pr)
	if missing == 0 {
		for i := range pr.Segs {
			pr.maxSegID = max(pr.maxSegID, pr.Segs[i].ID)
		}
		return pr
	}
	pr.maxSegID = NoSegID
	own := make([]sim.SegmentData, 0, missing)
	for i := range pr.Segs {
		if sg := &pr.Segs[i]; sg.Data == nil {
			own = append(own, c.Ctx.PrepareSegment(strutil.JoinTokens(sg.Span.Slice(pr.Tokens))))
			sg.Data = &own[len(own)-1]
		}
	}
	return pr
}

// pairSeg records which segment of each side a candidate pair refers to.
type pairSeg struct{ s, t int32 }

// boundSlack guards the early-exit comparisons against floating-point
// rounding: the upper bounds dominate the similarity mathematically but are
// summed in a different order, so an exact tie can land a few ulps below θ.
// Rejecting only below θ−slack keeps the thresholded path exactly equivalent
// to comparing the full similarity against θ (the fall-through computes it).
const boundSlack = 1e-9

// BoundSlack is the floating-point guard band of the verify-phase upper
// bounds, exported so callers that bound candidates by CoverBound prune
// with exactly the tolerance VerifyPrepared itself uses.
const BoundSlack = boundSlack

// rowCellBudget bounds the per-probe msim row cache of one scratch, in
// cells: a probe of nt segments caches the rows of dictionary IDs below
// rowCellBudget/nt, and segments with larger IDs are evaluated directly.
const rowCellBudget = 1 << 18

// maxSlots is the number of distinct numbered q-grams of a right-hand
// record's segments — those the left records' dictionary numbers — the
// probe-gram index holds: a slot is a uint16 and 0 marks a gram the record
// does not have. A record with more — its length is the caller's to choose —
// adopts no rows, and fillMSim evaluates its every cell by MSimData.
const maxSlots = 1<<16 - 1

// VerifyStats counts verify-phase work. It is the one declaration of the
// verify counters: a Scratch increments them, and the engine's statistics —
// a join's, an index's (with their /stats JSON keys) and the public API's —
// embed it and sum it with Add.
type VerifyStats struct {
	// VerifiedCandidates counts record pairs whose msim matrix was filled:
	// they survived the bounds that need no matrix.
	VerifiedCandidates int64 `json:"verified_candidates"`
	// PrunedByBound counts record pairs dismissed by a sound upper bound
	// before their msim matrix existed — the O(1) partition-size ratio or
	// CoverBound's cover stage. PrunedByCover is the cover stage's share, so
	// the size ratio's is PrunedByBound − PrunedByCover.
	PrunedByBound int64 `json:"pruned_by_bound"`
	PrunedByCover int64 `json:"pruned_by_cover"`
	// MemoHits counts msim cells taken into a matrix from a row already
	// evaluated for the same probe (copied, or cleared for a row whose
	// maximum is 0); MSimEvals counts the cells evaluated or decided to be
	// zero — a row whose text shares no gram and no score bit with the probe
	// is decided whole, and counts all its cells — whether for a matrix or
	// for the cover stage, which needs a row's maximum and no matrix.
	MemoHits  int64 `json:"memo_hits"`
	MSimEvals int64 `json:"msim_evals"`
}

// Add adds o's counters to s's.
func (s *VerifyStats) Add(o VerifyStats) {
	s.VerifiedCandidates += o.VerifiedCandidates
	s.PrunedByBound += o.PrunedByBound
	s.PrunedByCover += o.PrunedByCover
	s.MemoHits += o.MemoHits
	s.MSimEvals += o.MSimEvals
}

// Scratch holds the reusable working state of one verification worker: the
// candidate-pair buffers, the dense msim cache, partition index lists, the
// matching weight matrix, the Hungarian solver's internals, the conflict
// graph + w-MIS local-search arenas, and the per-probe msim rows with the
// probe-gram index their gram counts are taken through (per numbered probe
// gram, its slot, the probe segments holding it and the head of its
// occurrence chain in the dictionary). A Scratch amortises all per-pair
// allocations across verify calls; it must not be shared between
// goroutines.
type Scratch struct {
	segPairs []SegmentPair
	pairSegs []pairSeg
	msim     []float64 // len(ps.Segs) × len(pt.Segs), row-major
	nt       int       // column count of msim
	rowBest  []float64
	colBest  []float64
	dp       []float64
	sSel     []int32
	tSel     []int32
	psIdx    []int32
	ptIdx    []int32
	weights  []float64
	match    matching.Scratch

	// conflict-graph + local-search arenas (Algorithm 1 Lines 1-4).
	graph   wmis.Graph
	wmisSc  wmis.Scratch
	curSet  []int
	candSet []int
	bestTal []int
	bestRem []int

	// Per-probe msim rows. msim is a pure function of two segment texts, and
	// a probe's candidates draw theirs from the index's small dictionary, so
	// for the current (context, dictionary, right-hand record) triple the
	// scratch keeps the msim row of each left segment ID against all nt
	// segments of the right-hand record: rowVals[id·nt : id·nt+nt] and its
	// largest cell rowMax[id], both valid when rowStamp[id] == rowGen. A
	// current row whose maximum is 0 is all zeros and its slot is never read
	// (it may never have been written): a reader clears instead of copying.
	// A new triple bumps rowGen and clears nothing; rowN is the number of IDs
	// the rows cover (the dictionary's length when the triple was adopted,
	// clipped to the cell budget), and rowEntries the dictionary's entries of
	// those IDs as adopted (SegDict.entries: tables and score bits). rowsAll
	// says every row below rowN is current (fillRows).
	rowCtx     *sim.Context
	rowDict    *SegDict
	rowRight   *PreparedRecord
	rowGen     uint32
	rowN       uint32
	rowStamp   []uint32
	rowVals    []float64
	rowMax     []float64
	rowEntries []segEntry
	rowsAll    bool
	rowCells   int // rowCellBudget; lowered by tests

	// The probe-gram index rows are evaluated through, rebuilt with every new
	// triple. rowGrams and rowGramOff are the dictionary's gram table as
	// adopted (SegDict.gramSets, gramOff), covering every ID below rowN.
	// gramSlot is indexed by gram number: 1 + the slot of a numbered gram of
	// the right-hand record, 0 for any other. slotted lists the numbers by
	// slot, which the next triple clears, and slotGrams the grams themselves,
	// by which fillRows reads the heads of their occurrence chains into
	// slotHead. slotSegs[slotOff[s]:slotOff[s+1]] are the right-hand segments
	// whose grams hold the gram of slot s, in order. rowProbe lists the
	// segments' tables, with the union of their score bits, for sim.MSimRow.
	rowGrams   []uint32
	rowGramOff []uint32
	gramSlot   []uint16
	slotted    []uint32
	slotGrams  []string
	slotHead   []uint32
	slotOff    []int32
	slotSegs   []int32
	slotPairs  []slotSeg // indexProbeGrams' (slot, segment) pairs
	rowProbe   sim.RowProbe
	inter      []int32 // cacheRow's intersection counts
	// rowCount holds fillRows' intersection counts, nt a row for the rows
	// below rowN; every cell is zero outside fillRows.
	rowCount []int32

	// keepSolves turns off the claw loop's skip of assignment solves that
	// cannot win (simPreparedSelected), which skipped counts; tests set it.
	keepSolves bool
	skipped    int64

	// Stats tallies the work done through this scratch; callers zero it to
	// start a tally of their own.
	Stats VerifyStats
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{rowCells: rowCellBudget} }

// SimilarityPrepared computes the approximate unified similarity of two
// prepared records. It runs the same Algorithm 1 as SimilarityTokens —
// conflict graph, SquareImp, claw improvements — over the precomputed
// derivation tables, and returns exactly the value SimilarityTokens returns
// for the underlying token sequences. sc must not be nil.
func (c *Calculator) SimilarityPrepared(ps, pt *PreparedRecord, sc *Scratch) float64 {
	if len(ps.Tokens) == 0 || len(pt.Tokens) == 0 {
		if len(ps.Tokens) == 0 && len(pt.Tokens) == 0 {
			return 1
		}
		return 0
	}
	c.fillMSim(sc, ps, pt)
	return c.similarityPrepared(sc, ps, pt)
}

// VerifyPrepared is the join verification primitive: it reports whether the
// unified similarity of the two prepared records reaches theta and, when it
// does, returns the similarity (the exact SimilarityTokens value). Hopeless
// candidates are rejected by two sound upper bounds, in rising order of
// cost, before any matching or local search runs:
//
//  1. a partition-size ratio bound — SIM divides by max{|P_S|, |P_T|}, so
//     records whose possible partition-size ranges are too far apart can
//     never reach theta — counted in sc.Stats.PrunedByBound; and
//  2. the two-sided best-per-segment bound over the filled msim matrix — the
//     matching total of any partition pair is at most the best span cover of
//     either side weighted by row/column maxima — divided by the larger
//     side's minimal partition size.
//
// Both dominate USIM and therefore the value Algorithm 1 returns, so
// VerifyPrepared agrees exactly with SimilarityTokens ≥ theta. The cover
// stage, the left half of the second bound read from cached row maxima with
// no matrix, is CoverBound's: a caller with a cover column bounds a
// candidate there first. sc must not be nil.
func (c *Calculator) VerifyPrepared(ps, pt *PreparedRecord, theta float64, sc *Scratch) (float64, bool) {
	if len(ps.Tokens) == 0 || len(pt.Tokens) == 0 {
		v := 0.0
		if len(ps.Tokens) == 0 && len(pt.Tokens) == 0 {
			v = 1
		}
		return v, v >= theta
	}
	if sizeRatioUpper(ps, pt) < theta-boundSlack {
		sc.Stats.PrunedByBound++
		return 0, false
	}
	sc.Stats.VerifiedCandidates++
	c.fillMSim(sc, ps, pt)
	if coverUpper(sc, ps, pt) < theta-boundSlack {
		return 0, false
	}
	v := c.similarityPrepared(sc, ps, pt)
	return v, v >= theta
}

// sizeRatioUpper bounds USIM by the best achievable ratio min/max of the two
// partition sizes: |P| ranges over [minPart, len(tokens)] on each side, every
// msim weight is at most 1, and a matching has at most min{|P_S|, |P_T|}
// edges, so SIM ≤ min/max for the chosen sizes.
func sizeRatioUpper(ps, pt *PreparedRecord) float64 {
	return sizeRatio(ps.minPart, len(ps.Tokens), pt.minPart, len(pt.Tokens))
}

// sizeRatio is sizeRatioUpper of two records whose partition sizes range over
// [aLo, aHi] and [bLo, bHi].
func sizeRatio(aLo, aHi, bLo, bHi int) float64 {
	if aHi < bLo {
		return float64(aHi) / float64(bLo)
	}
	if bHi < aLo {
		return float64(bHi) / float64(aLo)
	}
	return 1
}

// fillMSim computes the dense msim matrix between every well-defined segment
// of ps and pt into the scratch cache. Both coverUpper and every partition
// matrix of the local search read from this cache, so each segment pair's
// msim is evaluated exactly once per record pair — and, when ps carries
// dictionary IDs, once per (segment text, right-hand record): the verify
// call sites pass the indexed record on the left and the probe on the
// right, so the row of a text is evaluated once a probe — by AdoptProbe's
// eager pass or CoverBound's cover stage, as a rule, else here — and every
// later candidate that holds the text copies it, or, for a row whose
// maximum is 0, clears the matrix row. A segment with no row slot (no
// dictionary, NoSegID, an ID beyond the rows — every ID, for a probe with
// more numbered grams than maxSlots) is evaluated cell by cell.
func (c *Calculator) fillMSim(sc *Scratch, ps, pt *PreparedRecord) {
	ns, nt := len(ps.Segs), len(pt.Segs)
	sc.msim = strutil.Resize(sc.msim, ns*nt)
	sc.nt = nt
	var cached uint32 // left segment IDs below it have a row slot
	if d := ps.dict; d != nil {
		cached = sc.adoptRows(c.Ctx, d, pt)
	}
	for i := range ps.Segs {
		a := &ps.Segs[i]
		row := sc.msim[i*nt : (i+1)*nt]
		if a.ID >= cached {
			c.msimRow(sc, row, a.Data, pt)
			continue
		}
		if sc.rowStamp[a.ID] == sc.rowGen {
			sc.Stats.MemoHits += int64(nt)
		} else {
			c.cacheRow(sc, a.ID, pt)
		}
		if sc.rowMax[a.ID] == 0 {
			clear(row)
		} else {
			copy(row, sc.rowVals[int(a.ID)*nt:][:nt])
		}
	}
}

// msimRow evaluates one left segment against every segment of pt, cell by
// cell through MSimData: fillMSim's direct path.
func (c *Calculator) msimRow(sc *Scratch, row []float64, a *sim.SegmentData, pt *PreparedRecord) {
	for j := range pt.Segs {
		row[j] = c.Ctx.MSimData(a, pt.Segs[j].Data)
	}
	sc.Stats.MSimEvals += int64(len(row))
}

// cacheRow evaluates the row of dictionary segment id against the adopted
// right-hand record pt, records the row's maximum and stamps it current. The
// row's slot holds the row unless the maximum is 0. Through the probe-gram
// index, the dictionary's numbers of the text's grams are looked up in the
// probe's slots, and each gram the probe has adds one to the count of every
// probe segment its slot lists: since gram sets hold no duplicates, that
// count is |a.Grams ∩ b_j.Grams|, the number GramSet.Overlap's merge arrives
// at (a gram the probe does not have is in no intersection). sim.MSimRow
// turns the counts into the row and its maximum. A text that shares no gram
// with the probe and none of its score bits is 0 in every cell
// (sim.SegmentData.Score): its maximum is 0, and neither its table nor the
// row's slot is touched. Every cell counts as evaluated either way.
func (c *Calculator) cacheRow(sc *Scratch, id uint32, pt *PreparedRecord) {
	nt := len(pt.Segs)
	sc.rowStamp[id] = sc.rowGen
	sc.Stats.MSimEvals += int64(nt)
	var inter []int32 // nil until a gram of the text has a slot
	for _, g := range sc.rowGrams[sc.rowGramOff[id]:sc.rowGramOff[id+1]] {
		if s := int(sc.gramSlot[g]); s != 0 {
			if inter == nil {
				inter = sc.inter[:nt]
				clear(inter)
			}
			for _, j := range sc.slotSegs[sc.slotOff[s-1]:sc.slotOff[s]] {
				inter[j]++
			}
		}
	}
	if inter == nil && sc.rowEntries[id].score&sc.rowProbe.Score() == 0 {
		sc.rowMax[id] = 0
		return
	}
	sc.rowMax[id] = c.Ctx.MSimRow(sc.rowVals[int(id)*nt:][:nt], sc.rowEntries[id].data, &sc.rowProbe, inter)
}

// fillRows is the eager row pass (AdoptProbe): it makes every row below rowN
// current, each row as cacheRow evaluates it on first touch, so that the
// bound pass reads the maxima with no stamp test and fillMSim copies the
// rows of every survivor. Instead of looking up every row's grams in the
// probe's slots, it walks the occurrence chain of each probe gram, from the
// heads it reads under the dictionary's read lock, and adds one to rowCount
// for every segment the gram's slot lists in the row of every entry on the
// chain below rowN (an entry interned since the adoption is past it, at the
// chain's head), marking the row's
// maximum −1. It then visits the rows in ID order and decides each as
// cacheRow does: a marked row goes through sim.MSimRow with its counts,
// which it then clears, a row whose score bits meet the probe's with none,
// and any other is 0. It evaluates the rows of texts no candidate holds
// too, and counts their cells in MSimEvals like any other; a row already
// current is not evaluated again.
func (c *Calculator) fillRows(sc *Scratch, pt *PreparedRecord) {
	if sc.rowsAll {
		return
	}
	sc.rowsAll = true
	n, nt := sc.rowN, len(pt.Segs)
	d := sc.rowDict
	sc.slotHead = strutil.Resize(sc.slotHead, len(sc.slotGrams))
	d.mu.RLock()
	for s, g := range sc.slotGrams {
		sc.slotHead[s] = d.gramNum[g].head
	}
	occs := d.occs
	d.mu.RUnlock()
	sc.rowCount = strutil.Resize(sc.rowCount, int(n)*nt)
	stamp, gen, rowMax := sc.rowStamp, sc.rowGen, sc.rowMax
	for s, k := range sc.slotHead {
		segs := sc.slotSegs[sc.slotOff[s]:sc.slotOff[s+1]]
		for ; k != noOcc; k = occs[k].prev {
			id := occs[k].id
			if id >= n || stamp[id] == gen {
				continue // past the rows (the chain's newest), or current
			}
			row := sc.rowCount[int(id)*nt:][:nt]
			for _, j := range segs {
				row[j]++
			}
			rowMax[id] = -1
		}
	}
	p, entries, evals := sc.rowProbe.Score(), sc.rowEntries, int64(0)
	for id := range n {
		if stamp[id] == gen {
			continue
		}
		stamp[id] = gen
		evals += int64(nt)
		var counts []int32
		if rowMax[id] < 0 {
			counts = sc.rowCount[int(id)*nt:][:nt]
		} else if entries[id].score&p == 0 {
			rowMax[id] = 0
			continue
		}
		rowMax[id] = c.Ctx.MSimRow(sc.rowVals[int(id)*nt:][:nt], entries[id].data, &sc.rowProbe, counts)
		clear(counts)
	}
	sc.Stats.MSimEvals += evals
}

// adoptRows makes the row cache current for left records of dictionary d
// against the right-hand record pt and returns the number of IDs it covers:
// none when pt has more numbered grams than maxSlots. IDs are only
// comparable within one dictionary and a row only valid for one right-hand
// record under one context, so a change of any of the three starts a new
// generation.
func (sc *Scratch) adoptRows(ctx *sim.Context, d *SegDict, pt *PreparedRecord) uint32 {
	if sc.rowCtx == ctx && sc.rowDict == d && sc.rowRight == pt {
		return sc.rowN
	}
	sc.rowCtx, sc.rowDict, sc.rowRight = ctx, d, pt
	sc.rowsAll = false
	if sc.rowGen++; sc.rowGen == 0 {
		// The counter wrapped: stamps of 2^32 generations ago would read as
		// current.
		clear(sc.rowStamp[:cap(sc.rowStamp)])
		sc.rowGen = 1
	}
	nt := len(pt.Segs)
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := min(len(d.entries), sc.rowCells/nt)
	if !sc.indexProbeGrams(d, pt) {
		n = 0
	}
	// Whatever Resize leaves in the slices is harmless: a stamp is zero or an
	// earlier generation's, and values are only read under a current stamp.
	sc.rowStamp = strutil.Resize(sc.rowStamp, n)
	sc.rowVals = strutil.Resize(sc.rowVals, n*nt)
	sc.rowMax = strutil.Resize(sc.rowMax, n)
	sc.rowN = uint32(n)
	sc.rowEntries = d.entries[:n]
	return sc.rowN
}

// indexProbeGrams builds the index of pt's numbered q-grams under d's read
// lock, reusing its slices from probe to probe: a slot for every distinct
// numbered gram and the right-hand segments each slot's gram is in. A
// segment whose ID names
// an entry of d — pt was read from d (PrepareProbe) or interned into it —
// takes its gram numbers from d.gramSets by that ID, in Grams order, with no
// hashing; only a segment d has no entry for (a probe text d never interned,
// a text past the dictionary's cap, or any segment of a record of another
// dictionary) looks its grams up in gramNum. A probe gram d never numbered
// gets no slot: no row holds it, and it still counts in |B_j| through
// len(b_j.Grams). It reports false, the index left unfinished, when pt has
// more numbered grams than maxSlots.
func (sc *Scratch) indexProbeGrams(d *SegDict, pt *PreparedRecord) bool {
	for _, g := range sc.slotted {
		sc.gramSlot[g] = 0
	}
	sc.slotted, sc.slotGrams, sc.slotPairs = sc.slotted[:0], sc.slotGrams[:0], sc.slotPairs[:0]
	// Every slot of the backing array is zero here, so growing within its
	// capacity brings back no slot. The slots follow the dictionary's
	// numbering, which inserts extend, so they grow with append's headroom:
	// a new gram does not make every scratch reallocate them.
	sc.gramSlot = slices.Grow(sc.gramSlot[:0], len(d.gramNum))[:len(d.gramNum)]
	sc.rowGrams, sc.rowGramOff = d.gramSets, d.gramOff
	sc.rowProbe.Reset()
	byID := pt.dict == d // pt's segment IDs name d's entries
	for j := range pt.Segs {
		sg := &pt.Segs[j]
		sc.rowProbe.Add(sg.Data)
		if byID && sg.ID != NoSegID {
			for i, num := range d.gramSets[d.gramOff[sg.ID]:d.gramOff[sg.ID+1]] {
				if !sc.slotGram(num, j, sg.Data.Grams[i]) {
					return false
				}
			}
			continue
		}
		for _, g := range sg.Data.Grams {
			if r, ok := d.gramNum[g]; ok && !sc.slotGram(r.num, j, g) {
				return false
			}
		}
	}
	ns := len(sc.slotted)
	// Bucket the pairs by slot, keeping segment order within a slot: off[s]
	// counts slot s, then sums to its end, then steps back to its start.
	off := strutil.Resize(sc.slotOff, ns+1)
	clear(off)
	for _, p := range sc.slotPairs {
		off[p.slot]++
	}
	for s := 1; s <= ns; s++ {
		off[s] += off[s-1]
	}
	sc.slotSegs = strutil.Resize(sc.slotSegs, len(sc.slotPairs))
	for k := len(sc.slotPairs) - 1; k >= 0; k-- {
		p := sc.slotPairs[k]
		off[p.slot]--
		sc.slotSegs[off[p.slot]] = p.seg
	}
	sc.slotOff = off
	sc.inter = strutil.Resize(sc.inter, len(pt.Segs))
	return true
}

// slotSeg says right-hand segment seg holds the gram of slot slot.
type slotSeg struct {
	slot uint16
	seg  int32
}

// slotGram records that right-hand segment j holds gram g, numbered num,
// giving the gram the next slot on first sight, and reports false when that
// would take a slot past maxSlots.
func (sc *Scratch) slotGram(num uint32, j int, g string) bool {
	s := sc.gramSlot[num]
	if s == 0 {
		if len(sc.slotted) == maxSlots {
			return false
		}
		sc.slotted = append(sc.slotted, num)
		sc.slotGrams = append(sc.slotGrams, g)
		s = uint16(len(sc.slotted))
		sc.gramSlot[num] = s
	}
	sc.slotPairs = append(sc.slotPairs, slotSeg{s - 1, int32(j)})
	return true
}

// coverUpper bounds USIM using the row/column maxima of the msim matrix:
// for any partition pair, the matching total is at most the sum over P_S of
// each selected segment's best msim against any segment of T (and
// symmetrically for P_T), maximised over partitions by a span-cover dynamic
// program; the denominator max{|P_S|, |P_T|} is at least the larger of the
// two partition-size lower bounds.
func coverUpper(sc *Scratch, ps, pt *PreparedRecord) float64 {
	ns, nt := len(ps.Segs), len(pt.Segs)
	sc.rowBest = strutil.Resize(sc.rowBest, ns)
	sc.colBest = strutil.Resize(sc.colBest, nt)
	for j := 0; j < nt; j++ {
		sc.colBest[j] = 0
	}
	for i := 0; i < ns; i++ {
		best := 0.0
		row := sc.msim[i*nt : (i+1)*nt]
		for j, w := range row {
			if w > best {
				best = w
			}
			if w > sc.colBest[j] {
				sc.colBest[j] = w
			}
		}
		sc.rowBest[i] = best
	}
	num := maxCover(sc, ps, sc.rowBest)
	if v := maxCover(sc, pt, sc.colBest); v < num {
		num = v
	}
	return min(num/float64(max(ps.minPart, pt.minPart)), 1)
}

// maxCover computes the maximal total value of a well-defined partition of
// the record where each segment contributes value[i]: dp[pos] is the best
// value of covering tokens[pos:], and segments are scanned in reverse
// enumeration order so every dp[end] is final before it is read.
func maxCover(sc *Scratch, pr *PreparedRecord, value []float64) float64 {
	n := len(pr.Tokens)
	sc.dp = strutil.Resize(sc.dp, n+1)
	dp := sc.dp
	dp[n] = 0
	for pos := 0; pos < n; pos++ {
		dp[pos] = -1
	}
	for i := len(pr.Segs) - 1; i >= 0; i-- {
		sp := pr.Segs[i].Span
		if v := value[i] + dp[sp.End]; v > dp[sp.Start] {
			dp[sp.Start] = v
		}
	}
	return dp[0]
}

// similarityPrepared runs Algorithm 1 over the prepared records assuming the
// msim cache in sc is already filled for (ps, pt).
func (c *Calculator) similarityPrepared(sc *Scratch, ps, pt *PreparedRecord) float64 {
	pairs := c.candidatePairsPrepared(sc, ps, pt)
	if len(pairs) == 0 {
		// No rule or taxonomy segment applies: the unified similarity
		// reduces to the token-level bipartite matching over singletons.
		sc.sSel = sc.sSel[:0]
		sc.tSel = sc.tSel[:0]
		return c.simPreparedSelected(sc, ps, pt, noFloor)
	}
	buildConflictGraphInto(&sc.graph, pairs)

	// Line 1: w-MIS via SquareImp. The solution is copied out of the wmis
	// scratch into a core-owned buffer because the talon iterator below
	// reuses the same wmis scratch.
	sc.curSet = append(sc.curSet[:0], sc.graph.SquareImpScratch(wmisOptions(c.maxTalons()), &sc.wmisSc)...)
	set := sc.curSet
	best := c.simPreparedSet(sc, ps, pt, set, noFloor)

	// Lines 3-4: claw improvements measured on the unified similarity.
	t := c.tParam()
	minGain := 1 / t
	maxRounds := int(t)
	for round := 0; round < maxRounds; round++ {
		bestGain := 0.0
		haveBest := false
		it := sc.graph.TalonSets(set, c.maxTalons(), false, &sc.wmisSc)
		for {
			talons, removed, ok := it.Next()
			if !ok {
				break
			}
			sc.candSet = wmis.SwapInto(sc.candSet[:0], set, talons, removed)
			// Only a value above best + bestGain can win; one the solve's
			// bound puts at or below it is not solved, and comes back
			// below best.
			v := c.simPreparedSet(sc, ps, pt, sc.candSet, best+bestGain)
			if gain := v - best; gain > bestGain {
				bestGain = gain
				// talons/removed alias the iterator's scratch; keep copies.
				sc.bestTal = append(sc.bestTal[:0], talons...)
				sc.bestRem = append(sc.bestRem[:0], removed...)
				haveBest = true
			}
		}
		if !haveBest || bestGain < minGain {
			break
		}
		sc.candSet = wmis.SwapInto(sc.candSet[:0], set, sc.bestTal, sc.bestRem)
		sc.curSet = append(sc.curSet[:0], sc.candSet...)
		set = sc.curSet
		best += bestGain
	}
	return best
}

// candidatePairsPrepared enumerates the conflict-graph vertices exactly as
// Segmenter.CandidatePairs does, but over precomputed rule-id lists and
// taxonomy nodes instead of string joins and map lookups. The returned slice
// and the parallel sc.pairSegs index list are valid until the next call.
func (c *Calculator) candidatePairsPrepared(sc *Scratch, ps, pt *PreparedRecord) []SegmentPair {
	sc.segPairs = sc.segPairs[:0]
	sc.pairSegs = sc.pairSegs[:0]
	ctx := c.Ctx
	syn := ctx.SynonymEnabled()
	tax := ctx.TaxonomyEnabled()
	for i := range ps.Segs {
		a := &ps.Segs[i]
		for j := range pt.Segs {
			b := &pt.Segs[j]
			if a.Span.Len() < 2 && b.Span.Len() < 2 {
				continue
			}
			kind, weight := PairKind(-1), 0.0
			if syn && (a.Rule || b.Rule) {
				if cl, ok := ctx.Rules.MatchIDLists(a.Data.LHS, a.Data.RHS, b.Data.LHS, b.Data.RHS); ok && cl > weight {
					kind, weight = PairRule, cl
				}
			}
			if tax && a.Entity && b.Entity {
				if v := ctx.SegmentTaxonomyData(a.Data, b.Data); v > weight {
					kind, weight = PairTaxonomy, v
				}
			}
			if weight <= 0 {
				continue
			}
			sc.segPairs = append(sc.segPairs, SegmentPair{S: a.Span, T: b.Span, Weight: weight, Kind: kind})
			sc.pairSegs = append(sc.pairSegs, pairSeg{int32(i), int32(j)})
		}
	}
	return sc.segPairs
}

// simPreparedSet maps an independent set of conflict-graph vertices to the
// segment selections of both sides and evaluates their SIM (GetSim of
// Algorithm 1) from the msim cache, as simPreparedSelected does with floor.
func (c *Calculator) simPreparedSet(sc *Scratch, ps, pt *PreparedRecord, set []int, floor float64) float64 {
	sc.sSel = sc.sSel[:0]
	sc.tSel = sc.tSel[:0]
	for _, v := range set {
		p := sc.pairSegs[v]
		if ps.Segs[p.s].Span.Len() >= 2 {
			// Vertex order is S-major, so sSel arrives sorted by start.
			sc.sSel = append(sc.sSel, p.s)
		}
		if pt.Segs[p.t].Span.Len() >= 2 {
			sc.tSel = append(sc.tSel, p.t)
		}
	}
	// The T-side selections are not start-ordered; insertion sort (the sets
	// are tiny and the spans disjoint, so starts are unique).
	for i := 1; i < len(sc.tSel); i++ {
		for j := i; j > 0 && pt.Segs[sc.tSel[j]].Span.Start < pt.Segs[sc.tSel[j-1]].Span.Start; j-- {
			sc.tSel[j], sc.tSel[j-1] = sc.tSel[j-1], sc.tSel[j]
		}
	}
	return c.simPreparedSelected(sc, ps, pt, floor)
}

// noFloor is the floor of a simPreparedSelected call whose value is needed
// whatever it is: no bound, all of which are ≥ 0, is at or below it.
const noFloor = -1.0

// simPreparedSelected evaluates Eq. (6) for the partitions induced by the
// selected multi-token segments in sc.sSel / sc.tSel (sorted by start):
// the maximum-weight bipartite matching over cached msim weights divided by
// the larger partition size den. The loop that copies the weights also sums
// their row maxima and their column maxima, and when the smaller sum over
// den, plus a slack, is at most floor, the matching is not solved and the
// call returns noFloor instead: the value cannot exceed floor.
//
// Why that holds in floating point: a matching takes at most one weight of
// each row and of each column, so its exact total is at most either sum.
// matching.Total adds its weights in row order, each at most its row's
// maximum, and rounding is monotone, so its sum is at most the row sum added
// in the same order. The column sum is added in another order, so the two
// roundings may part by (n+m)·2⁻⁵³ of a sum of at most m ≤ den: after the
// division by den, which keeps the order, by at most den·2⁻⁵², which the
// slack's den·2⁻⁵⁰ covers. So the value is at most floor − boundSlack, give
// or take the few ulps of the sums that compare bound and floor. The claw
// loop passes floor = best + bestGain, itself rounded within a few ulps of a
// number ≤ 2, far inside boundSlack: the value's exact gain is below
// bestGain, so its rounded gain is not above it, and the strict
// gain > bestGain would have refused it. The loop picks the swap it picks
// with every matching solved.
func (c *Calculator) simPreparedSelected(sc *Scratch, ps, pt *PreparedRecord, floor float64) float64 {
	sc.psIdx = buildPartitionIdx(ps, sc.sSel, sc.psIdx)
	sc.ptIdx = buildPartitionIdx(pt, sc.tSel, sc.ptIdx)
	n, m := len(sc.psIdx), len(sc.ptIdx)
	if n == 0 || m == 0 {
		return 0
	}
	sc.weights = strutil.Resize(sc.weights, n*m)
	colMax := strutil.Resize(sc.colBest, m) // coverUpper is done with it
	clear(colMax)
	rowSum := 0.0
	for i, si := range sc.psIdx {
		row := sc.weights[i*m : (i+1)*m]
		base := int(si) * sc.nt
		best := 0.0
		for j, tj := range sc.ptIdx {
			w := sc.msim[base+int(tj)]
			row[j] = w
			best = max(best, w)
			colMax[j] = max(colMax[j], w)
		}
		rowSum += best
	}
	sc.colBest = colMax
	den := float64(max(n, m))
	if !sc.keepSolves {
		colSum := 0.0
		for _, w := range colMax {
			colSum += w
		}
		if min(rowSum, colSum)/den+boundSlack+den*0x1p-50 <= floor {
			sc.skipped++
			return noFloor
		}
	}
	return sc.match.Total(sc.weights, n, m) / den
}

// buildPartitionIdx constructs the partition induced by the selected
// non-overlapping multi-token segments (sorted by start): the selected
// segments plus the singleton segment for every uncovered token, ordered by
// start position — the same partition buildPartition produces.
func buildPartitionIdx(pr *PreparedRecord, sel []int32, out []int32) []int32 {
	out = out[:0]
	si := 0
	for pos := 0; pos < len(pr.Tokens); {
		if si < len(sel) && pr.Segs[sel[si]].Span.Start == pos {
			out = append(out, sel[si])
			pos = pr.Segs[sel[si]].Span.End
			si++
			continue
		}
		out = append(out, pr.single[pos])
		pos++
	}
	return out
}

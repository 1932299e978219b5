package core

import (
	"math"
	"slices"

	"github.com/aujoin/aujoin/internal/strutil"
)

// The cover column packs a segment into one word: its dictionary ID in the
// low coverIDBits bits (every ID a dictionary hands out is below segDictCap,
// which fits) and its span length in the rest, so a span of coverMaxSpan
// tokens or more does not fit.
const (
	coverIDBits  = 20
	coverIDMask  = 1<<coverIDBits - 1
	coverMaxSpan = 1 << (32 - coverIDBits)
)

// coverFlagged is the maxID of a record the column does not encode.
const coverFlagged = NoSegID

// coverRec is one record's entry in a cover column: its token count (clipped
// to math.MaxUint16 for a flagged record), its partition-size lower bound,
// its largest segment ID (coverFlagged when the column does not encode it)
// and the end of its words in the column's segs.
type coverRec struct {
	tokens, minPart uint16
	maxID, end      uint32
}

// CoverColumn is a flat copy of exactly what the bound pass of verification
// reads of a sequence of prepared records — the partition-size ratio and the
// cover stage — so that pass runs from two contiguous arrays and never
// dereferences a PreparedRecord. A record's segments are stored in
// enumeration order, one packed word (ID, span length) each, and their
// starts are implied: segments are ordered by start then length and every
// start opens with its singleton, so the start advances exactly at each
// singleton. A record the column cannot encode — one prepared without the
// column's dictionary, with a segment that has no ID, with a span of
// coverMaxSpan tokens or more, or of more than math.MaxUint16 tokens — is
// flagged, and CoverBound bounds it by 1: VerifyPrepared decides it by the
// size ratio or by the matrix bound.
//
// A column is append-only: Append writes only past the length of every
// copy taken earlier, so a copy is an immutable snapshot of the records it
// holds, like a slice header of the records themselves.
type CoverColumn struct {
	dict *SegDict
	recs []coverRec
	segs []uint32
}

// NewCoverColumn returns the column of the records, in order, whose segment
// IDs index d, with both arrays allocated once at their final size.
func NewCoverColumn(d *SegDict, prepared []*PreparedRecord) CoverColumn {
	col := CoverColumn{dict: d}
	col.Append(prepared)
	return col
}

// Append adds the records to the column, growing each array once by the
// batch.
func (col *CoverColumn) Append(prepared []*PreparedRecord) {
	words := 0
	for _, pr := range prepared {
		words += len(pr.Segs)
	}
	col.recs = slices.Grow(col.recs, len(prepared))
	col.segs = slices.Grow(col.segs, words)
	for _, pr := range prepared {
		r := coverRec{tokens: uint16(min(pr.tokens, math.MaxUint16)), maxID: coverFlagged}
		if col.encodes(pr) {
			r.minPart = uint16(pr.minPart)
			for _, sg := range pr.Segs {
				col.segs = append(col.segs, sg.ID()|uint32(sg.Len())<<coverIDBits)
			}
			r.maxID = pr.maxSegID
		}
		r.end = uint32(len(col.segs))
		col.recs = append(col.recs, r)
	}
}

// encodes reports whether the column can hold pr: pr's segments index the
// column's dictionary, its token count fits a coverRec, and every ID and
// span length fits its word. The implied starts are not checked: prepare
// enumerates every record's segments in that order.
func (col *CoverColumn) encodes(pr *PreparedRecord) bool {
	if d := pr.dict; d == nil || d != col.dict || pr.tokens > math.MaxUint16 {
		return false
	}
	for _, sg := range pr.Segs {
		if sg.ID() > coverIDMask || sg.Len() >= coverMaxSpan {
			return false
		}
	}
	return true
}

// CoverBound is the bound verification schedules candidates by, and the one
// cover stage: an upper bound on the unified similarity of the column's
// record at pos and the probe pt that fills no msim matrix — the
// partition-size ratio and, when that reaches theta−BoundSlack, the smaller
// of it and the cover stage, the best span cover of the record weighted by
// each segment's cached row maximum against pt (the left half of
// VerifyPrepared's matrix bound, read with no matrix). A result below
// theta−BoundSlack dismisses the pair at theta and is counted in sc.Stats as
// pruned; the bound dominates the similarity, so dropping such a pair is
// exact. A record with an ID beyond the rows is bounded by the size ratio
// alone, and a flagged record by 1: VerifyPrepared, which a survivor goes on
// to, decides it by the size ratio (counting that prune) or the matrix
// bound. sc must not be nil.
func (c *Calculator) CoverBound(col *CoverColumn, pos int32, pt *PreparedRecord, theta float64, sc *Scratch) float64 {
	r := col.recs[pos]
	if r.tokens == 0 || pt.tokens == 0 {
		if r.tokens == 0 && pt.tokens == 0 {
			return 1
		}
		return 0
	}
	if r.maxID == coverFlagged {
		return 1
	}
	ub := sizeRatio(int(r.minPart), int(r.tokens), int(pt.minPart), int(pt.tokens))
	if ub < theta-boundSlack {
		sc.Stats.PrunedByBound++
		return ub
	}
	if r.maxID >= sc.adoptRows(c.Ctx, col.dict, pt) {
		return ub
	}
	cover := min(c.columnCover(sc, col.segs, int(r.end), int(r.tokens), pt)/float64(max(int(r.minPart), int(pt.minPart))), 1)
	if cover >= ub {
		return ub
	}
	if cover < theta-boundSlack {
		sc.Stats.PrunedByBound++
		sc.Stats.PrunedByCover++
	}
	return cover
}

// AdoptProbe readies sc for a bound pass of pt over the column's records at
// the positions cands, the candidates the caller is about to bound with
// CoverBound in any order: it adopts pt's rows and decides how the pass
// will read their maxima. When the column words those candidates hold —
// the ones the cover stage reads, of every candidate neither flagged nor
// beyond the rows — are at least the number of rows, it evaluates every row
// in one sequential pass (fillRows), and the pass reads their maxima with no
// per-word stamp test. Otherwise the rows stay lazy: each is evaluated when
// the pass first meets its text. The paper's shape is the first kind —
// a MED lookup reads thousands of words of under a thousand texts — and a
// titles lookup the second, a few hundred words against a dictionary of ten
// thousand texts. Either way CoverBound returns the same numbers and counts
// the same prunes.
func (c *Calculator) AdoptProbe(col *CoverColumn, cands []int32, pt *PreparedRecord, sc *Scratch) {
	if col.dict == nil || len(pt.Segs) == 0 {
		return
	}
	rows := sc.adoptRows(c.Ctx, col.dict, pt)
	words := uint32(0)
	for _, pos := range cands {
		if r := col.recs[pos]; r.maxID < rows {
			words += r.end - col.start(pos)
			if words >= rows {
				c.fillRows(sc, pt)
				return
			}
		}
	}
}

// start is the index in segs of the first word of the record at pos.
func (col *CoverColumn) start(pos int32) uint32 {
	if pos == 0 {
		return 0
	}
	return col.recs[pos-1].end
}

// columnCover is the cover stage's span-cover total on a column record of n
// tokens whose words end at segs[end] and whose IDs all have row slots: the
// reverse span-cover DP of maxCover, fused with the row-maximum lookups that
// fill its values, which evaluate a row only when no earlier pair of the
// probe has — or, after the eager row pass, read every maximum with no stamp
// test.
// The start of each word is implied, so the walk back ends at the singleton
// of position 0.
func (c *Calculator) columnCover(sc *Scratch, segs []uint32, end, n int, pt *PreparedRecord) float64 {
	sc.dp = strutil.Resize(sc.dp, n+1)
	dp := sc.dp
	dp[n] = 0
	if sc.rowsAll {
		rowMax := sc.rowMax
		cur := -1.0
		for i, pos := end-1, n-1; pos >= 0; i-- {
			w := segs[i]
			l := int(w >> coverIDBits)
			cur = max(cur, rowMax[w&coverIDMask]+dp[pos+l])
			if l == 1 {
				dp[pos], cur = cur, -1
				pos--
			}
		}
		return dp[0]
	}
	for pos := 0; pos < n; pos++ {
		dp[pos] = -1
	}
	// cacheRow writes the row slots in place, so their headers hold.
	stamp, rowMax, gen := sc.rowStamp, sc.rowMax, sc.rowGen
	for i, pos := end-1, n-1; pos >= 0; i-- {
		w := segs[i]
		id, l := w&coverIDMask, int(w>>coverIDBits)
		if stamp[id] != gen {
			c.cacheRow(sc, id, pt)
		}
		if v := rowMax[id] + dp[pos+l]; v > dp[pos] {
			dp[pos] = v
		}
		if l == 1 {
			pos--
		}
	}
	return dp[0]
}

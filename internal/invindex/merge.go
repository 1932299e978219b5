package invindex

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Merge returns the index a compaction makes of ix and the delta segments
// appended to it, from their postings alone: the index Build returns over a
// universe of universe IDs (at least ix's) at cutoff for the signatures of
// the surviving records, renumbered densely in position order. records is
// the number of positions ix and segs hold together, ix's first and then
// each segment's in turn; dead is the tombstone bitmap over them, and a set
// bit drops the record's postings.
//
// A survivor keeps the count its postings carry, so the merge is exact
// whenever ix and segs were built from the survivors' signatures, and every
// list is laid out again at cutoff as Build lays it out, changing form
// either way. It is two passes — one counts every ID's surviving records,
// one writes them in their place, renumbered through a rank over the live
// bitmap — over ix's lists and then each segment's, oldest first, so a
// list's records arrive in ascending order: nothing is sorted, and the
// allocations are a fixed number.
func (ix *Index) Merge(segs []*Delta, dead []uint64, records, universe, cutoff int) *Index {
	if universe < ix.Universe() {
		panic(fmt.Sprintf("invindex: merge into a universe of %d IDs, below the base's %d", universe, ix.Universe()))
	}
	if records > math.MaxInt32 {
		panic(fmt.Sprintf("invindex: %d records, past the %d a posting can address", records, math.MaxInt32))
	}
	rk := newRank(dead, records)
	m := &Index{offs: make([]uint32, universe+1), records: rk.live, built: true}
	// base returns an ID's list in ix as postings, a bitmap-form one
	// expanded into a buffer as long as ix's longest.
	densest := 0
	for i := range ix.bitsets {
		densest = max(densest, ix.bitsets[i].card)
	}
	expanded := make([]Posting, 0, densest)
	base := func(id uint32) []Posting {
		if ix.Bitset(id) == nil {
			return ix.Postings(id)
		}
		expanded = slices.AppendSeq(expanded[:0], ix.List(id))
		return expanded
	}
	// Count every ID's surviving records into its offset entry, and into
	// at[id] those that carry the ID more than once: a dense list's residual.
	at := make([]uint32, universe)
	for id := range uint32(ix.Universe()) {
		c, extra := rk.countLive(base(id))
		m.offs[id], at[id] = uint32(c), uint32(extra)
	}
	for _, d := range segs {
		for id, l := range d.lists {
			if id < uint32(universe) {
				c, extra := rk.countLive(l.postings)
				m.offs[id] += uint32(c)
				at[id] += uint32(extra)
			}
		}
	}
	longest := 0 // the longest list that will be dense
	for _, c := range m.offs[:universe] {
		if cutoff > 0 && int(c) >= cutoff {
			longest = max(longest, int(c))
		}
	}
	m.layout(cutoff)
	// at[id] becomes id's write position: a slice-form list's next arena
	// slot, a dense list's next residual slot.
	residuals := uint32(0)
	for id, o := range m.offs[:universe] {
		if o&dense != 0 {
			at[id], residuals = residuals, residuals+at[id]
		} else {
			at[id] = o
		}
	}
	res := make([]Posting, residuals)
	w := writer{m: m, at: at, res: res, rk: rk, buf: make([]Posting, 0, longest)}
	for id := range uint32(ix.Universe()) {
		w.put(id, base(id))
	}
	for _, d := range segs {
		for id, l := range d.lists {
			if id < uint32(universe) {
				w.put(id, l.postings)
			}
		}
	}
	// Every dense list's residual is its run of res, in ID order.
	from := uint32(0)
	for id, o := range m.offs[:universe] {
		if o&dense != 0 && at[id] > from {
			m.Bitset(uint32(id)).residual = res[from:at[id]:at[id]]
			from = at[id]
		}
	}
	return m
}

// writer writes postings into a merged index under their new positions.
type writer struct {
	m   *Index
	at  []uint32 // each ID's write position
	res []Posting
	rk  rank
	buf []Posting // a dense list's renumbered postings
}

// put writes the postings of ps whose records are live into id's list.
func (w *writer) put(id uint32, ps []Posting) {
	o := w.m.offs[id]
	if o&dense == 0 {
		out := w.rk.appendLive(w.m.postings[o:w.at[id]:w.m.offs[id+1]&^dense], ps)
		w.at[id] = o + uint32(len(out))
		return
	}
	bs := &w.m.bitsets[w.m.postings[o&^dense].Record]
	w.buf = w.rk.appendLive(w.buf[:0], ps)
	for _, p := range w.buf {
		r := p.Record
		bs.words[r>>6] |= 1 << (r & 63)
		bs.card++
		if p.Count > 1 {
			w.res[w.at[id]] = Posting{Record: r, Count: p.Count - 1}
			w.at[id]++
		}
	}
}

// rank numbers the live positions of a tombstone bitmap densely, in
// position order.
type rank struct {
	dead   []uint64
	before []int32 // before[w]: the live positions below word w
	live   int
	none   bool // no position is dead: every position keeps its number
}

// newRank ranks the first records positions of dead.
func newRank(dead []uint64, records int) rank {
	rk := rank{dead: dead, before: make([]int32, (records+63)/64)}
	for w := range rk.before {
		rk.before[w] = int32(rk.live)
		valid := ^uint64(0)
		if tail := records - w<<6; tail < 64 {
			valid = 1<<tail - 1
		}
		rk.live += bits.OnesCount64(valid &^ dead[w])
	}
	rk.none = rk.live == records
	return rk
}

// countLive returns how many postings of ps have a live record, and how
// many of those count more than one.
func (rk rank) countLive(ps []Posting) (c, extra int) {
	for _, p := range ps {
		if rk.none || rk.dead[p.Record>>6]&(1<<(p.Record&63)) == 0 {
			c++
			if p.Count > 1 {
				extra++
			}
		}
	}
	return c, extra
}

// appendLive appends the postings of ps whose records are live to out,
// renumbered.
func (rk rank) appendLive(out, ps []Posting) []Posting {
	if rk.none {
		return append(out, ps...)
	}
	for _, p := range ps {
		w, bit := p.Record>>6, uint64(1)<<(p.Record&63)
		if d := rk.dead[w]; d&bit == 0 {
			out = append(out, Posting{Record: rk.before[w] + int32(bits.OnesCount64(^d&(bit-1))), Count: p.Count})
		}
	}
	return out
}

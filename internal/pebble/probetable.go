package pebble

import (
	"slices"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// ProbeTable holds, for every entry of a segment dictionary, the IDs its
// pebbles have under one Order, so that a probe segment whose text the
// dictionary holds signs from array loads instead of building its pebble keys
// and looking each one up, and so does every record of a collection signed
// under the order (Signer). It is built once per order
// generation, from the order's IDs by key number (KeyIDs.ProbeTable), and
// immutable afterwards, so any number of readers may share it without a
// lock. It never goes stale: an interned ID never moves within an order (see
// the Order doc), and entries interned after the table was built lie past
// its end.
//
// The table holds no pointers. ids lists every entry's pebble IDs back to
// back — the gram pebbles in gram-set order, a gram as often as the text
// holds it, then the synonym pebbles in key order, then the taxonomy pebbles
// from the node up — and ends[e] is where entry e's IDs end, their
// start being the end before. The weight and measure of a gram or a taxonomy
// pebble follow from the segment's own derivation table (1/Occ, 1/depth,
// and their counts). Only the synonym pebbles, rare and weighted by
// rule closeness, keep their weights aside: synAt lists the entries that have
// any, ascending, and synOff[k] is where entry synAt[k]'s weights start in
// synW. An entry with a key the order does not know keeps an empty slot, as
// does one without pebbles, and signs by key.
type ProbeTable struct {
	ids    []uint32
	ends   []uint32
	synAt  []uint32
	synOff []uint32
	synW   []float64
}

// exact returns s in an array of exactly its length.
func exact[E any](s []E) []E { return append(make([]E, 0, len(s)), s...) }

// Bytes returns the size of the table's arrays.
func (t *ProbeTable) Bytes() int {
	return 4*(cap(t.ids)+cap(t.ends)+cap(t.synAt)+cap(t.synOff)) + 8*cap(t.synW)
}

// Holds reports whether the table signs dictionary entry id.
func (t *ProbeTable) Holds(id uint32) bool { return len(t.slot(id)) > 0 }

// slot returns entry id's pebble IDs, empty when the entry lies past the
// table or signs by key.
func (t *ProbeTable) slot(id uint32) []uint32 {
	e := int(id)
	if id == core.NoSegID || e >= len(t.ends) {
		return nil
	}
	var start uint32
	if e > 0 {
		start = t.ends[e-1]
	}
	return t.ids[start:t.ends[e]]
}

// synWeights returns the weights of entry id's synonym pebbles.
func (t *ProbeTable) synWeights(id uint32) []float64 {
	k, ok := slices.BinarySearch(t.synAt, id)
	if !ok {
		return nil
	}
	return t.synW[t.synOff[k]:t.synOff[k+1]]
}

// appendSegment appends the pebbles of segment idx of a probe pr from the
// table and reports whether it could: the table holds the entry of the
// segment's text (its ID). The pebbles carry their IDs, weights, segment and
// measures, and no keys.
func (t *ProbeTable) appendSegment(out []Pebble, pr *core.PreparedRecord, tax *taxonomy.Tree, idx int) ([]Pebble, bool) {
	id := pr.Segs[idx].ID()
	ids := t.slot(id)
	if len(ids) == 0 {
		return out, false
	}
	d := pr.Table(idx)
	var syn []float64
	if d.Side != synonym.NoSide {
		syn = t.synWeights(id)
	}
	grams := ids[:d.Occ]
	w := 1 / float64(d.Occ)
	for _, id := range grams {
		out = append(out, Pebble{ID: id, Weight: w, Segment: idx, Measure: sim.Jaccard})
	}
	for k, c := range syn {
		out = append(out, Pebble{ID: ids[len(grams)+k], Weight: c, Segment: idx, Measure: sim.Synonym})
	}
	if rest := ids[len(grams)+len(syn):]; len(rest) > 0 {
		w := 1 / float64(tax.Depth(d.Node))
		for _, id := range rest {
			out = append(out, Pebble{ID: id, Weight: w, Segment: idx, Measure: sim.Taxonomy})
		}
	}
	return out, true
}

// PrepareProbe is PrepareRecord for a record signed through t: a segment the
// table holds takes its pebbles from it, any other generates them by key and
// interns them. The pebbles from the table carry no keys; the list is
// PrepareRecord's in every other field, because the sort is total over (ID,
// segment) for known keys and (key, segment) for unknown ones, so the order
// the pebbles were gathered in does not show.
func (sel *Selector) PrepareProbe(pr *core.PreparedRecord, t *ProbeTable) Presig {
	pebbles := sel.probePebbles(nil, pr, t)
	pre := Presig{Pebbles: pebbles, NumSegments: pr.NumSegments(), MinPartition: pr.MinPartitionSize()}
	if len(pebbles) > 0 {
		pre.acc = NewAccTable(pebbles)
	}
	return pre
}

// probePebbles returns pr's pebbles gathered through t into buf (emptied
// first, and grown to Generator.Count's bound when short), sorted by the
// global order. A segment t does not hold is interned by key
// (Generator.appendInterned), and only its pebbles of keys the order lacks
// carry their keys.
func (sel *Selector) probePebbles(buf []Pebble, pr *core.PreparedRecord, t *ProbeTable) []Pebble {
	out := slices.Grow(buf[:0], sel.Gen.Count(pr))
	var kb [16]byte
	key := kb[:0]
	for idx := range pr.Segs {
		var ok bool
		if out, ok = t.appendSegment(out, pr, sel.Gen.Ctx.Tax, idx); !ok {
			out, key = sel.Gen.appendInterned(out, key, pr.Table(idx), idx, sel.Order)
		}
	}
	sortInterned(out)
	return out
}

// AppendUnheld appends the pebbles of the segments of pr that t does not
// hold — the only ones whose keys sel's order can lack — whose keys the
// order lacks, with their keys: what InternDynamic must add before pr is
// signed under the order.
func (t *ProbeTable) AppendUnheld(sel *Selector, out []Pebble, pr *core.PreparedRecord) []Pebble {
	var kb [16]byte
	key := kb[:0]
	for idx, sg := range pr.Segs {
		if t.Holds(sg.ID()) {
			continue
		}
		from := len(out)
		out, key = sel.Gen.appendInterned(out, key, pr.Table(idx), idx, sel.Order)
		out = out[:from+len(slices.DeleteFunc(out[from:], func(p Pebble) bool { return p.ID != NoID }))]
	}
	return out
}

// Signer signs records through a probe table: the one way a record prepared
// against a table's dictionary is signed from it, for a collection's worker,
// which signs every record it takes with one, and for a lookup, which signs
// its probe through a pooled one. It reuses one pebble buffer, one AccTable
// and one IDs buffer from record to record. Bind it to a selector and a table
// before it signs. A Signer is not safe for concurrent use.
type Signer struct {
	sel     *Selector
	t       *ProbeTable
	pebbles []Pebble
	acc     AccTable
	ids     []uint32
}

// signerCap is the capacity, in elements, past which Reset drops a Signer
// buffer instead of keeping it for the next record.
const signerCap = 1 << 12

// Bind makes s sign under sel's order through t, a probe table of that order,
// keeping its buffers.
func (s *Signer) Bind(sel *Selector, t *ProbeTable) { s.sel, s.t = sel, t }

// Sign returns the IDs of the signature RecordSignature selects for pr, bit
// for bit: a segment the table holds takes its pebbles from it, any other
// generates them by key and interns them (Selector.PrepareProbe). The IDs are
// in s's buffer and valid until s signs again; a caller that keeps them
// copies them.
func (s *Signer) Sign(pr *core.PreparedRecord, method Method, tau int) []uint32 {
	s.pebbles = s.sel.probePebbles(s.pebbles, pr, s.t)
	pre := Presig{Pebbles: s.pebbles, NumSegments: pr.NumSegments(), MinPartition: pr.MinPartitionSize()}
	if len(s.pebbles) > 0 {
		s.acc.reset(s.pebbles)
		pre.acc = &s.acc
	}
	sig := s.sel.Select(pre, method, tau).Pebbles
	s.ids = s.ids[:0]
	for i := range sig {
		s.ids = append(s.ids, sig[i].ID)
	}
	return s.ids
}

// Reset unbinds s, lets go of the keys of its last record's pebbles and
// drops every buffer grown past signerCap, so that a pooled Signer pins no
// order generation and keeps no long record's arrays.
func (s *Signer) Reset() {
	s.sel, s.t = nil, nil
	clear(s.pebbles)
	if cap(s.pebbles) > signerCap {
		s.pebbles = nil
	}
	if cap(s.ids) > signerCap {
		s.ids = nil
	}
	if cap(s.acc.tab) > signerCap || cap(s.acc.groups) > signerCap {
		s.acc = AccTable{}
	}
	s.acc.pebbles = nil
}

// Package invindex provides the inverted index used by the join algorithms
// of Section 3: keys are interned pebble IDs (dense uint32 identifiers
// assigned by the global frequency order, see internal/pebble.Order),
// postings are record identifiers. A record appears in a key's posting list
// once per signature pebble carrying that key, which is what the overlap
// counting of Algorithm 6 requires.
//
// Keying by dense integer IDs instead of strings makes lookups array
// indexing: posting lists stay sorted by record for free, and nothing in the
// hot path hashes or compares strings.
//
// Two layouts share the 8-byte Posting type. Index is the flat form used for
// whole-collection builds: one 4-byte offset per ID of the universe and one
// arena of postings, built in a counting pass over the records' signatures,
// so an ID no record carries costs its offset and nothing else. Delta is the
// sparse map form used by the dynamic join index for the small batches
// appended between rebuilds: memory proportional to the postings actually
// present, so a single-record insert does not pay for the whole ID universe.
// A lookup of an absent ID is a map miss, so the join index links the Deltas
// of a chain per ID — the latest Delta holding an ID, and in each Delta the
// previous one (SetPrev) — and asks only the Deltas that hold it. Both forms
// are immutable once built (Index) or linked (Delta) and therefore safe for
// concurrent reads. A compaction makes the next Index from an Index and its
// Deltas' postings alone (Index.Merge), with no signature to read.
//
// Index additionally keeps a hybrid posting representation: the posting
// lists of frequent keys (list length at or above a density cutoff) go
// straight to packed 64-bit bitmaps — plus a short residual slice for the
// rare counts above one — which the block Accumulator consumes
// tile-at-a-time instead of entry-at-a-time. Rare keys keep the sorted slice
// form in the arena. See accum.go for the accumulation engine.
package invindex

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
)

// Posting is one entry of a posting list: a record and how many of its
// signature pebbles carry the key. Both are int32, 8 bytes a posting, so an
// index holds at most math.MaxInt32 records.
type Posting struct {
	Record int32
	Count  int32
}

// dense marks an ID's offset entry whose list is in bitmap form. The arena
// slot at such an offset holds no posting: its Record is the index of the
// ID's Bitset.
const dense = 1 << 31

// Index is an inverted index from interned pebble IDs to posting lists,
// flat: offs[id] is where id's list starts in the postings arena and
// offs[id+1] (dense bit cleared) where it ends; a dense entry's one arena
// slot leads to its Bitset. Create indexes with Build, or with New, Add and
// Hybridize. Index is safe for concurrent reads once built.
type Index struct {
	offs     []uint32 // universe + 1 entries
	postings []Posting
	bitsets  []Bitset // the bitmap-form lists, in ID order
	nonEmpty int
	records  int
	pending  [][]uint32 // the records Add collected, until Hybridize builds
	built    bool
}

// Build returns the index over a universe of numKeys interned IDs of the
// records whose signature IDs sigs holds, record r's at sigs[r], with every
// posting list of at least cutoff records in bitmap form (cutoff ≤ 0: none).
// IDs may repeat within a record, adjacent or not; repeats increase the
// record's count in that ID's list. IDs out of the universe (in particular
// pebble.NoID, marking keys unknown to the order) are skipped: they can never
// match an indexed record. Every posting list is sorted by record — the
// self-join probe relies on this. More than math.MaxInt32 records, or more
// than 2^31 postings, panic: a posting cannot address them.
//
// The build is two passes over sigs: one counts every ID's records, which
// lays out the arena and decides which lists are dense, and one writes each
// posting in its place or sets its record's bit. Nothing is sized by a list
// before its length is known, and no posting of a dense list is ever made.
func Build(numKeys int, sigs [][]uint32, cutoff int) *Index {
	ix := New(numKeys)
	ix.build(sigs, cutoff)
	return ix
}

// New creates an empty index over a universe of numKeys interned IDs (pebble
// IDs must be < numKeys), to be filled by Add and built by Hybridize. Until
// then it reads as empty.
func New(numKeys int) *Index {
	return &Index{offs: make([]uint32, numKeys+1)}
}

// Add collects the signature pebble IDs of one record, for Hybridize to
// build the index over. Records must be added at consecutive positions from
// 0; the IDs follow Build's rules.
func (ix *Index) Add(record int, ids []uint32) {
	if ix.built {
		panic("invindex: Add after Hybridize")
	}
	if record != len(ix.pending) {
		panic(fmt.Sprintf("invindex: record %d added at position %d", record, len(ix.pending)))
	}
	ix.pending = append(ix.pending, slices.Clone(ids))
	ix.records++
}

// Hybridize builds the index over the records Add collected, as Build does,
// with every posting list of at least cutoff records in bitmap form (cutoff
// ≤ 0: none), and seals it: Add and Hybridize panic afterwards.
func (ix *Index) Hybridize(cutoff int) {
	if ix.built {
		panic("invindex: Hybridize twice")
	}
	ix.build(ix.pending, cutoff)
	ix.pending = nil
}

// build lays out and fills the index over sigs (see Build).
func (ix *Index) build(sigs [][]uint32, cutoff int) {
	if len(sigs) > math.MaxInt32 {
		panic(fmt.Sprintf("invindex: %d records, past the %d a posting can address", len(sigs), math.MaxInt32))
	}
	ix.built = true
	ix.records = len(sigs)
	universe := uint32(len(ix.offs) - 1)
	offs := ix.offs
	// Count every ID's records into its offset entry; at[id] is 1 + the last
	// record counted for id, so a repeat within a record counts once.
	at := make([]uint32, universe)
	for r, ids := range sigs {
		for _, id := range ids {
			if id < universe && at[id] != uint32(r)+1 {
				at[id] = uint32(r) + 1
				offs[id]++
			}
		}
	}
	ix.layout(cutoff)
	for id := range universe {
		at[id] = offs[id] &^ dense
	}
	for r, ids := range sigs {
		rec := int32(r)
		for _, id := range ids {
			if id >= universe {
				continue
			}
			o, w := offs[id], at[id]
			switch {
			case o&dense != 0:
				ix.bitsets[ix.postings[w].Record].add(rec)
			case w > o && ix.postings[w-1].Record == rec:
				ix.postings[w-1].Count++ // a repeat within the record
			default:
				ix.postings[w] = Posting{Record: rec, Count: 1}
				at[id] = w + 1
			}
		}
	}
}

// layout turns the per-ID record counts in offs[:universe] into offsets —
// a slice-form list takes one arena slot per record, a list of at least
// cutoff records (cutoff > 0) one slot in all, leading to its Bitset — and
// makes the arena, the bitmap words and the Bitsets of ix.records records,
// each dense ID's slot pointing at its Bitset.
func (ix *Index) layout(cutoff int) {
	universe := len(ix.offs) - 1
	offs := ix.offs
	n, nDense := 0, 0
	for id, c := range offs[:universe] {
		offs[id] = uint32(n)
		switch {
		case c == 0:
			continue
		case cutoff > 0 && int(c) >= cutoff:
			offs[id] |= dense
			n++
			nDense++
		default:
			n += int(c)
		}
		ix.nonEmpty++
		if int64(n) >= dense {
			panic("invindex: more than 2^31 postings")
		}
	}
	offs[universe] = uint32(n)
	ix.postings = make([]Posting, n)
	nwords := (ix.records + 63) / 64
	words := make([]uint64, nDense*nwords)
	ix.bitsets = make([]Bitset, nDense)
	b := int32(0)
	for _, o := range offs[:universe] {
		if o&dense != 0 {
			ix.postings[o&^dense].Record = b
			ix.bitsets[b].words = words[:nwords:nwords]
			words = words[nwords:]
			b++
		}
	}
}

// Records returns the number of records in the index.
func (ix *Index) Records() int { return ix.records }

// Universe returns the size of the ID universe the index was created over.
func (ix *Index) Universe() int { return len(ix.offs) - 1 }

// KeyCount returns the number of distinct IDs with a non-empty posting
// list.
func (ix *Index) KeyCount() int { return ix.nonEmpty }

// Postings returns the posting list of an ID (nil when absent or out of
// universe, and nil for IDs in bitmap form — check Bitset first). The
// returned slice must not be modified.
func (ix *Index) Postings(id uint32) []Posting {
	if id >= uint32(len(ix.offs)-1) {
		return nil
	}
	s, e := ix.offs[id], ix.offs[id+1]&^dense
	if s&dense != 0 || s == e {
		return nil
	}
	return ix.postings[s:e:e]
}

// ListLength returns the number of records in an ID's posting list,
// whichever representation holds it.
func (ix *Index) ListLength(id uint32) int {
	if bs := ix.Bitset(id); bs != nil {
		return bs.card
	}
	return len(ix.Postings(id))
}

// List yields the posting list of an ID in record order, whichever
// representation holds it: a bitmap-form list's records with their counts
// made whole from its residual. It yields nothing for an ID absent or out of
// universe.
func (ix *Index) List(id uint32) iter.Seq[Posting] {
	return func(yield func(Posting) bool) {
		bs := ix.Bitset(id)
		if bs == nil {
			for _, p := range ix.Postings(id) {
				if !yield(p) {
					return
				}
			}
			return
		}
		resid := bs.residual
		for w, x := range bs.words {
			for ; x != 0; x &= x - 1 {
				p := Posting{Record: int32(w<<6 + bits.TrailingZeros64(x)), Count: 1}
				if len(resid) > 0 && resid[0].Record == p.Record {
					p.Count += resid[0].Count
					resid = resid[1:]
				}
				if !yield(p) {
					return
				}
			}
		}
	}
}

// Keys returns the IDs with non-empty posting lists (either representation)
// in ascending order.
func (ix *Index) Keys() []uint32 {
	out := make([]uint32, 0, ix.nonEmpty)
	for id := range uint32(len(ix.offs) - 1) {
		if s := ix.offs[id]; s&dense != 0 || ix.offs[id+1]&^dense > s {
			out = append(out, id)
		}
	}
	return out
}

// Bitset is the packed posting form of a frequent key: bit r set means
// record r carries the key at least once. Blocks of 64 records pack into
// one word, so intersecting a probe against the list is word-parallel. The
// few records carrying the key more than once (repeated tokens, shared
// q-grams) keep their surplus — count minus one — in a short sorted
// residual slice, so a dense list is never disqualified from bitmap form
// by a single multi-occurrence posting.
type Bitset struct {
	words    []uint64
	residual []Posting // Count = surplus over the bitmap bit (orig count − 1)
	card     int
}

// add counts one occurrence of the key in record r, records arriving in
// ascending order.
func (b *Bitset) add(r int32) {
	w, bit := &b.words[r>>6], uint64(1)<<(uint32(r)&63)
	if *w&bit == 0 {
		*w |= bit
		b.card++
		return
	}
	if n := len(b.residual); n > 0 && b.residual[n-1].Record == r {
		b.residual[n-1].Count++
		return
	}
	b.residual = append(b.residual, Posting{Record: r, Count: 1})
}

// Card returns the number of set bits (the posting-list length).
func (b *Bitset) Card() int { return b.card }

// Residual returns the multi-occurrence surplus postings: entries sorted by
// record, each Count being the record's original count minus the one
// occurrence the bitmap bit represents. Usually empty or very short. The
// returned slice must not be modified.
func (b *Bitset) Residual() []Posting { return b.residual }

// Bitset returns the packed form of an ID's posting list, or nil when the
// list is absent, out of universe, or in slice form.
func (ix *Index) Bitset(id uint32) *Bitset {
	if id >= uint32(len(ix.offs)-1) || ix.offs[id]&dense == 0 {
		return nil
	}
	return &ix.bitsets[ix.postings[ix.offs[id]&^dense].Record]
}

// DenseKeys returns the number of keys in bitmap form.
func (ix *Index) DenseKeys() int { return len(ix.bitsets) }

// SparseKeys returns the number of non-empty keys in slice form.
func (ix *Index) SparseKeys() int { return ix.nonEmpty - len(ix.bitsets) }

// noID mirrors pebble.NoID (the package is below pebble in the dependency
// order, so the constant is duplicated rather than imported).
const noID = ^uint32(0)

// Delta is the sparse, map-keyed inverted index used for the record batches
// a dynamic join index appends between rebuilds. Unlike Index it has no
// fixed ID universe — dynamically interned pebble IDs land in it directly —
// and costs memory only for the postings it actually holds. Records must be
// added in ascending record order (posting lists stay sorted by record);
// after the Add and SetPrev calls a Delta is immutable and safe for
// concurrent reads.
type Delta struct {
	lists   map[uint32]deltaList
	records int
}

// deltaList is one ID's entry in a Delta: its posting list and the link a
// chain of Deltas threads through it (SetPrev), so that one lookup answers
// both.
type deltaList struct {
	postings []Posting
	prev     uint8
}

// NewDelta creates an empty sparse index.
func NewDelta() *Delta {
	return &Delta{lists: make(map[uint32]deltaList)}
}

// Add registers the signature pebble IDs of one record, with the same
// multiplicity semantics as Build. The NoID sentinel is skipped. A record
// past math.MaxInt32 panics: a posting cannot address it.
func (d *Delta) Add(record int, ids []uint32) {
	if record > math.MaxInt32 {
		panic(fmt.Sprintf("invindex: record %d, past the %d a posting can address", record, math.MaxInt32))
	}
	rec := int32(record)
	d.records++
	for _, id := range ids {
		if id == noID {
			continue
		}
		e := d.lists[id]
		if n := len(e.postings); n > 0 && e.postings[n-1].Record == rec {
			e.postings[n-1].Count++
			continue
		}
		e.postings = append(e.postings, Posting{Record: rec, Count: 1})
		d.lists[id] = e
	}
}

// IDs yields every ID the delta holds a posting list for, in no particular
// order.
func (d *Delta) IDs() iter.Seq[uint32] {
	return func(yield func(uint32) bool) {
		for id := range d.lists {
			if !yield(id) {
				return
			}
		}
	}
}

// SetPrev stores prev as the link of an ID the delta holds a list for: what
// it means is the chain's business (the join index stores 1 + the position
// of the previous Delta of its chain that holds the ID, 0 for none). It is
// ignored for an ID the delta does not hold.
func (d *Delta) SetPrev(id uint32, prev uint8) {
	if e, ok := d.lists[id]; ok {
		e.prev = prev
		d.lists[id] = e
	}
}

// Records returns the number of records added to the delta.
func (d *Delta) Records() int { return d.records }

// KeyCount returns the number of distinct IDs with a posting list.
func (d *Delta) KeyCount() int { return len(d.lists) }

// Linked returns the posting list of an ID and its link (SetPrev); nil and 0
// when the ID is absent. The returned slice must not be modified.
func (d *Delta) Linked(id uint32) ([]Posting, uint8) {
	e := d.lists[id]
	return e.postings, e.prev
}

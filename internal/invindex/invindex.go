// Package invindex provides the inverted index used by the join algorithms
// of Section 3: keys are interned pebble IDs (dense uint32 identifiers
// assigned by the global frequency order, see internal/pebble.Order),
// postings are record identifiers. A record appears in a key's posting list
// once per signature pebble carrying that key, which is what the overlap
// counting of Algorithm 6 requires.
//
// Keying by dense integer IDs instead of strings makes the index a plain
// slice of posting slices: lookups are array indexing, posting lists stay
// sorted by record for free, and nothing in the hot path hashes or
// compares strings.
//
// Two layouts share the Posting type. Index is the dense array form used
// for whole-collection builds: O(universe) memory, O(1) lookups, the right
// shape when most IDs have postings. Delta is the sparse map form used by
// the dynamic join index for the small batches appended between rebuilds:
// memory proportional to the postings actually present, so a single-record
// insert does not pay for the whole ID universe. A lookup of an absent ID
// is a map miss, so the join index links the Deltas of a chain per ID — the
// latest Delta holding an ID, and in each Delta the previous one (SetPrev)
// — and asks only the Deltas that hold it. Both forms are immutable after
// their Add (and SetPrev) calls and therefore safe for concurrent reads.
//
// Index additionally supports a hybrid posting representation: Hybridize
// converts the posting lists of frequent keys (list length at or above a
// density cutoff) into packed 64-bit bitmaps — plus a short residual slice
// for the rare counts above one — which the block Accumulator consumes
// tile-at-a-time instead of entry-at-a-time. Rare keys keep the sorted
// slice form. See accum.go for the accumulation engine.
package invindex

// Posting is one entry of a posting list: a record and how many of its
// signature pebbles carry the key.
type Posting struct {
	Record int
	Count  int
}

// Index is an inverted index from interned pebble IDs to posting lists.
// The zero value is not usable; create indexes with New. Index is safe for
// concurrent reads after all Add calls have completed.
type Index struct {
	lists     [][]Posting // indexed by pebble ID
	bitsets   []*Bitset   // parallel to lists after Hybridize; nil before
	nonEmpty  int
	denseKeys int
	records   int
	sealed    bool // set by Hybridize: no further Add calls
}

// New creates an empty index over a universe of `numKeys` interned IDs
// (pebble IDs must be < numKeys).
func New(numKeys int) *Index {
	return &Index{lists: make([][]Posting, numKeys)}
}

// Add registers the signature pebble IDs of one record. IDs may repeat;
// repeats increase the record's count in that ID's posting list. IDs out of
// the universe (in particular pebble.NoID, marking keys unknown to the
// order) are skipped: they can never match an indexed record. Records must
// be added in ascending record order, which keeps every posting list sorted
// by record — the self-join probe relies on this.
func (ix *Index) Add(record int, ids []uint32) {
	if ix.sealed {
		panic("invindex: Add after Hybridize")
	}
	ix.records++
	for _, id := range ids {
		if id >= uint32(len(ix.lists)) {
			continue
		}
		l := ix.lists[id]
		if n := len(l); n > 0 && l[n-1].Record == record {
			l[n-1].Count++
			continue
		}
		if len(l) == 0 {
			ix.nonEmpty++
		}
		ix.lists[id] = append(l, Posting{Record: record, Count: 1})
	}
}

// Presize reserves posting-list capacity ahead of the Add calls, carving
// every list's backing storage out of one contiguous arena. caps[id] is an
// upper bound on ID id's posting count (repeats within one record may
// over-count — they merge into a single posting — which only wastes
// capacity, never correctness). Adds that outgrow their reservation fall
// back to ordinary append growth. Callers that know the full signature
// multiset upfront (snapshot restore) avoid the per-list regrow churn —
// the dominant cost of rebuilding a large index entry by entry.
func (ix *Index) Presize(caps []int32) {
	if ix.sealed {
		panic("invindex: Presize after Hybridize")
	}
	total := 0
	n := len(ix.lists)
	for id, c := range caps {
		if id < n {
			total += int(c)
		}
	}
	if total == 0 {
		return
	}
	arena := make([]Posting, total)
	off := 0
	for id, c := range caps {
		if id >= n || c == 0 {
			continue
		}
		ix.lists[id] = arena[off : off : off+int(c)]
		off += int(c)
	}
}

// Records returns the number of records added to the index.
func (ix *Index) Records() int { return ix.records }

// Universe returns the size of the ID universe the index was created over.
func (ix *Index) Universe() int { return len(ix.lists) }

// KeyCount returns the number of distinct IDs with a non-empty posting
// list.
func (ix *Index) KeyCount() int { return ix.nonEmpty }

// Postings returns the posting list of an ID (nil when absent or out of
// universe, and nil for IDs Hybridize converted to bitmap form — check
// Bitset first on a hybridized index). The returned slice must not be
// modified.
func (ix *Index) Postings(id uint32) []Posting {
	if id >= uint32(len(ix.lists)) {
		return nil
	}
	return ix.lists[id]
}

// ListLength returns the number of records in an ID's posting list,
// whichever representation holds it.
func (ix *Index) ListLength(id uint32) int {
	if bs := ix.Bitset(id); bs != nil {
		return bs.card
	}
	return len(ix.Postings(id))
}

// Keys returns the IDs with non-empty posting lists (either representation)
// in ascending order.
func (ix *Index) Keys() []uint32 {
	out := make([]uint32, 0, ix.nonEmpty)
	for id, l := range ix.lists {
		if len(l) > 0 || (ix.bitsets != nil && ix.bitsets[id] != nil) {
			out = append(out, uint32(id))
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

// Card returns the number of set bits (the posting-list length).
func (b *Bitset) Card() int { return b.card }

// Words exposes the packed 64-bit blocks (bit r&63 of word r>>6 is record
// r). The slice must not be modified.
func (b *Bitset) Words() []uint64 { return b.words }

// Residual returns the multi-occurrence surplus postings: entries sorted by
// record, each Count being the record's original count minus the one
// occurrence the bitmap bit represents. Usually empty or very short. The
// returned slice must not be modified.
func (b *Bitset) Residual() []Posting { return b.residual }

// Bitset returns the packed form of an ID's posting list, or nil when the
// list is absent, out of universe, or still in slice form.
func (ix *Index) Bitset(id uint32) *Bitset {
	if ix.bitsets == nil || id >= uint32(len(ix.bitsets)) {
		return nil
	}
	return ix.bitsets[id]
}

// DenseKeys returns the number of keys Hybridize converted to bitmap form.
func (ix *Index) DenseKeys() int { return ix.denseKeys }

// SparseKeys returns the number of non-empty keys still in slice form.
func (ix *Index) SparseKeys() int { return ix.nonEmpty - ix.denseKeys }

// Hybridize converts every posting list with at least cutoff entries into a
// packed Bitset, releasing the slice form. Counts above one — which the
// bitmap bits cannot represent — survive as the Bitset's residual slice:
// one Posting per multi-occurrence record carrying the surplus (count − 1),
// so the bitmap plus residual is count-exact for every record. The index is
// sealed against further Add calls: record membership is frozen into
// fixed-width bitmaps. Hybridize is idempotent per key and O(total
// postings); call it once, after the last Add.
func (ix *Index) Hybridize(cutoff int) {
	if cutoff < 1 {
		cutoff = 1
	}
	ix.sealed = true
	nwords := (ix.records + 63) / 64
	for id, l := range ix.lists {
		if len(l) < cutoff {
			continue
		}
		if ix.bitsets == nil {
			ix.bitsets = make([]*Bitset, len(ix.lists))
		}
		bs := &Bitset{words: make([]uint64, nwords), card: len(l)}
		for i := range l {
			r := l[i].Record
			bs.words[r>>6] |= 1 << (uint(r) & 63)
			if c := l[i].Count; c > 1 {
				bs.residual = append(bs.residual, Posting{Record: r, Count: c - 1})
			}
		}
		ix.bitsets[id] = bs
		ix.lists[id] = nil
	}
	ix.denseKeys = 0
	if ix.bitsets != nil {
		for _, bs := range ix.bitsets {
			if bs != nil {
				ix.denseKeys++
			}
		}
	}
}

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
// multiplicity semantics as Index.Add. The NoID sentinel is skipped.
func (d *Delta) Add(record int, ids []uint32) {
	d.records++
	for _, id := range ids {
		if id == noID {
			continue
		}
		e := d.lists[id]
		if n := len(e.postings); n > 0 && e.postings[n-1].Record == record {
			e.postings[n-1].Count++
			continue
		}
		e.postings = append(e.postings, Posting{Record: record, Count: 1})
		d.lists[id] = e
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

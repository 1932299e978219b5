package core

import (
	"sync"

	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// NoSegID marks a prepared segment that has no dictionary identity: the
// record was prepared without a dictionary, or the dictionary was full.
const NoSegID = ^uint32(0)

// segDictCap is the entry count at which a dictionary stops interning.
// Segments of texts first seen past it keep a private derivation table and
// NoSegID, sign from that table as from a shared one, and verify on the
// direct path.
const segDictCap = 1 << 20

// SegDict is the segment dictionary of one index, and its only table keyed by
// segment text: an append-only intern table from segment text to a dense ID
// (first-seen order) holding the one shared derivation table of every
// distinct text — everything derived from the text alone: the gram set
// verification reads, the gram pebble keys signature generation reads, the
// rule ids and the taxonomy node both read. The records of the index intern
// into it (PrepareIn); probes read it and never write it (PrepareProbe).
// Sharing is sound because a SegmentData is immutable after derivation and
// the text↔token-sequence mapping is bijective (tokens never contain the join
// separator). A dictionary serves one sim.Context — the tables are
// context-dependent — and is safe for concurrent use. IDs are process-local
// and mean nothing outside their dictionary.
//
// The dictionary also numbers the q-grams of the texts it interns, so the
// verifier counts a row's shared grams from array loads (Calculator.cacheRow):
// every distinct gram of an entry's Grams gets a dense number (first-seen
// order) in gramNum, and entry id's gram set, in Grams order, is
// gramSets[gramOff[id]:gramOff[id+1]]. Each element of gramSets is one
// occurrence of a gram in an entry, and the occurrences of one gram are
// chained, newest first, so the verifier can walk a probe gram's entries
// instead of every entry (Calculator.fillRows): gramNum holds beside a
// gram's number the index in gramSets of its latest occurrence (the head,
// in what would otherwise be the map slot's padding), and occs[k] the entry
// ID of occurrence k and the index of the gram's occurrence before it (noOcc
// at the first). A chain lists its entries in descending ID order. Numbers,
// occurrences and heads are written under the write lock that publishes the
// entry, before its ID exists. gramSets, gramOff and occs are append-only,
// so a reader that captured them under the read lock may index them for
// every ID below the length it read with them; a head is rewritten in
// place, so a reader copies the heads it needs under the lock, and a chain
// walked from such a head reaches only occurrences that existed then.
//
// Beside each table an entry holds its score bits (sim.SegmentData.Score),
// so a row that shares no gram with the probe is known to be zero from the
// entry alone, without loading the table (Calculator.cacheRow).
type SegDict struct {
	mu       sync.RWMutex
	ids      map[string]uint32
	entries  []segEntry         // ID → shared table and its score bits
	gramNum  map[string]gramRef // gram → number and latest occurrence
	gramSets []uint32           // every entry's gram numbers, back to back
	gramOff  []uint32           // ID → start in gramSets; one more than entries
	occs     []gramOcc          // occurrence → its entry and the gram's previous one
	limit    int                // segDictCap; lowered by tests
}

// gramRef is a numbered gram: its number and the head of its occurrence
// chain.
type gramRef struct{ num, head uint32 }

// gramOcc is one link of a gram's occurrence chain: the entry holding the
// occurrence and the gram's previous occurrence (noOcc when there is none).
type gramOcc struct{ prev, id uint32 }

// noOcc ends an occurrence chain.
const noOcc = ^uint32(0)

// segEntry is one dictionary entry: the shared table of a text and its score
// bits, written together under the write lock that publishes the ID.
type segEntry struct {
	data  *sim.SegmentData
	score uint8
}

// NewSegDict returns an empty dictionary.
func NewSegDict() *SegDict {
	return &SegDict{ids: make(map[string]uint32), gramNum: make(map[string]gramRef), gramOff: []uint32{0}, limit: segDictCap}
}

// SetSegDictLimit lowers d's entry cap (segDictCap) to limit, so that the
// tests of the packages that count and sign against a dictionary reach a
// full dictionary without a million texts. Call it before d interns.
func SetSegDictLimit(d *SegDict, limit int) { d.limit = limit }

// Len returns the number of distinct segment texts interned so far; every ID
// the dictionary has handed out is below it.
func (d *SegDict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// NumGrams returns the number of distinct q-grams the dictionary has
// numbered: those of the texts it interned, and no other.
func (d *SegDict) NumGrams() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.gramNum)
}

// read is the probe side's view of the dictionary: every segment of pr gets
// the ID and the shared derivation table of its text where the dictionary
// holds it, NoSegID and no table where it does not; the number of segments
// left without one is returned. Nothing is written, and a nil dictionary
// holds no text. The IDs are kept for signing — an order generation's probe
// table is indexed by them (pebble.ProbeTable) — and for the verifier's
// probe-gram index, which takes an entry's gram numbers by them
// (Scratch.indexProbeGrams), and by the row cache when pr is a left operand.
func (d *SegDict) read(pr *PreparedRecord) (missing int) {
	if d != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	for i := range pr.Segs {
		sg := &pr.Segs[i]
		sg.ID, sg.Data = NoSegID, nil
		if d != nil {
			if id, ok := d.ids[strutil.JoinTokens(sg.Span.Slice(pr.Tokens))]; ok {
				sg.ID, sg.Data = id, d.entries[id].data
				continue
			}
		}
		missing++
	}
	return missing
}

// DictView is a capture of a dictionary's entries with their gram numbers,
// taken under the read lock (SegDict.View). The arrays it holds are
// append-only and their tables immutable, so it stays valid while later texts
// are interned past its end; it holds the entries and the numbered grams
// that existed when it was taken and no other.
type DictView struct {
	entries  []segEntry
	gramSets []uint32
	gramOff  []uint32
	grams    int
}

// View captures the entries the dictionary holds now and the numbers of
// their grams. A nil dictionary captures none.
func (d *SegDict) View() DictView {
	if d == nil {
		return DictView{}
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := len(d.entries)
	return DictView{entries: d.entries[:n:n], gramSets: d.gramSets[:d.gramOff[n]], gramOff: d.gramOff[:n+1], grams: len(d.gramNum)}
}

// Len returns the number of entries captured; every ID below it is one.
func (v DictView) Len() int { return len(v.entries) }

// NumGrams returns the number of grams numbered when the view was taken:
// every gram number of a captured entry is below it.
func (v DictView) NumGrams() int { return v.grams }

// Entry returns entry id's derivation table and the numbers of its grams,
// in the order of the table's Grams, and whether the view holds the entry
// (not for NoSegID, nor for an entry interned after the view was taken).
func (v DictView) Entry(id uint32) (*sim.SegmentData, []uint32, bool) {
	if int(id) >= len(v.entries) {
		return nil, nil, false
	}
	return v.entries[id].data, v.gramSets[v.gramOff[id]:v.gramOff[id+1]], true
}

// GramNumber returns the number of a gram (without the pebble key prefix)
// the dictionary has numbered. A nil dictionary has numbered none.
func (d *SegDict) GramNumber(gram string) (uint32, bool) {
	if d == nil {
		return 0, false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.gramNum[gram]
	return r.num, ok
}

// intern returns the ID and shared derivation table of a segment's text,
// deriving and storing them on first sight; a full dictionary answers
// NoSegID and a private table.
func (d *SegDict) intern(ctx *sim.Context, tokens []string) (uint32, *sim.SegmentData) {
	text := strutil.JoinTokens(tokens)
	d.mu.RLock()
	id, ok := d.ids[text]
	if ok {
		data := d.entries[id].data
		d.mu.RUnlock()
		return id, data
	}
	d.mu.RUnlock()
	data := ctx.PrepareSegment(text) // derived outside the lock
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[text]; ok {
		return id, d.entries[id].data // a concurrent intern of the same text won
	}
	if len(d.entries) >= d.limit {
		return NoSegID, &data
	}
	id = uint32(len(d.entries))
	d.ids[data.Text] = id
	for _, g := range data.Grams {
		r, ok := d.gramNum[g]
		if !ok {
			r = gramRef{num: uint32(len(d.gramNum)), head: noOcc}
		}
		d.occs = append(d.occs, gramOcc{prev: r.head, id: id})
		r.head = uint32(len(d.gramSets))
		d.gramNum[g] = r
		d.gramSets = append(d.gramSets, r.num)
	}
	d.gramOff = append(d.gramOff, uint32(len(d.gramSets)))
	d.entries = append(d.entries, segEntry{&data, data.Score()})
	return id, &data
}

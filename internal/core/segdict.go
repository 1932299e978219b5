package core

import (
	"iter"
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
// verifier builds a row's gram mask from array loads (Scratch.maskRow): every
// distinct gram of an entry's Grams gets a dense number (first-seen order) in
// gramNum, and entry id's gram set, in Grams order, is
// gramSets[gramOff[id]:gramOff[id+1]]. The numbers are assigned under the
// write lock that publishes the entry, before its ID exists, and both slices
// are append-only, so a reader that captured them under the read lock may
// index them for every ID below the length it read with them.
//
// Beside each table an entry holds its score bits (sim.SegmentData.Score),
// so a row that shares no gram with the probe is known to be zero from the
// entry alone, without loading the table (Scratch.maskRow).
type SegDict struct {
	mu       sync.RWMutex
	ids      map[string]uint32
	entries  []segEntry        // ID → shared table and its score bits
	gramNum  map[string]uint32 // gram → number
	gramSets []uint32          // every entry's gram numbers, back to back
	gramOff  []uint32          // ID → start in gramSets; one more than entries
	limit    int               // segDictCap; lowered by tests
}

// segEntry is one dictionary entry: the shared table of a text and its score
// bits, written together under the write lock that publishes the ID.
type segEntry struct {
	data  *sim.SegmentData
	score uint8
}

// NewSegDict returns an empty dictionary.
func NewSegDict() *SegDict {
	return &SegDict{ids: make(map[string]uint32), gramNum: make(map[string]uint32), gramOff: []uint32{0}, limit: segDictCap}
}

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
// (Scratch.indexProbeGrams); pr itself stays out of the dictionary (it is
// marked a probe), so it verifies on the direct path as a left operand.
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

// Tables returns the derivation tables of every entry the dictionary holds
// now, indexed by ID. The entries are captured under the read lock; the
// slice is append-only and its tables immutable, so the result stays valid
// while later texts are interned past its end.
func (d *SegDict) Tables() iter.Seq2[uint32, *sim.SegmentData] {
	d.mu.RLock()
	entries := d.entries
	d.mu.RUnlock()
	return func(yield func(uint32, *sim.SegmentData) bool) {
		for id := range entries {
			if !yield(uint32(id), entries[id].data) {
				return
			}
		}
	}
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
		n, ok := d.gramNum[g]
		if !ok {
			n = uint32(len(d.gramNum))
			d.gramNum[g] = n
		}
		d.gramSets = append(d.gramSets, n)
	}
	d.gramOff = append(d.gramOff, uint32(len(d.gramSets)))
	d.entries = append(d.entries, segEntry{&data, data.Score()})
	return id, &data
}

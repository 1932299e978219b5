package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// NoSegID marks a prepared segment that has no dictionary identity: the
// record was prepared without a dictionary, or the dictionary was full.
const NoSegID = ^uint32(0)

// segDictCap is the entry count at which a dictionary stops interning; a
// dictionary shared by several indexes has one cap for all of them.
// Segments of texts first seen past it keep a private derivation table and
// NoSegID, sign from that table as from a shared one, and verify on the
// direct path.
const segDictCap = 1 << 20

// SegDict is the segment dictionary of one index, or of every group index
// one cluster worker hosts (join.Joiner.HostedDict): an append-only intern
// table from segment text to a dense ID (first-seen order) holding the one
// shared derivation table of every distinct text — everything derived from
// the text alone: the gram set verification reads, the gram occurrence
// count and repeats signature generation reads, the rule side and the
// taxonomy node both read. Since nothing in it depends on the records a
// text came from, indexes under one sim.Context may share it. The records
// of the indexes intern into it (PrepareIn); probes read it and never
// write it (PrepareProbe). Sharing is sound because a SegmentData is
// immutable after derivation and the text↔token-sequence mapping is
// bijective (tokens never contain the join separator). A dictionary serves
// one sim.Context — the tables are context-dependent — and is safe for
// concurrent use. IDs are process-local and mean nothing outside their
// dictionary.
//
// The tables are held by value, in chunks that never move (segTables): a
// reader holding an ID reads its table with no lock (SegDict.table), since
// the table was written under the write lock that published the ID, before
// the ID existed.
//
// The dictionary also numbers the q-grams of the texts it interns, so the
// verifier counts a row's shared grams from array loads (Calculator.cacheRow):
// every distinct gram of an entry's Grams gets a dense number (first-seen
// order), and entry id's gram set, in Grams order, is
// gramSets[gramOff[id]:gramOff[id+1]]. Each element of gramSets is one
// occurrence of a gram in an entry, and the occurrences of one gram are
// chained, newest first, so the verifier can walk a probe gram's entries
// instead of every entry (Calculator.fillRows): heads[n] is the index in
// gramSets of gram n's latest occurrence, and occs[k] the entry ID of
// occurrence k and the index of the gram's occurrence before it (noOcc at
// the first). A chain lists its entries in descending ID order. Numbers,
// occurrences and heads are written under the write lock that publishes the
// entry, before its ID exists.
//
// No map keyed by text or gram holds a key: texts and grams are found
// through two strutil.KeyTables, whose keys are the text a table already
// holds (dictTexts: entry id's Text) and the gram an entry's Grams already
// holds (dictGrams). The texts table holds entry IDs; the grams table holds
// each gram's first occurrence k, which names both the gram's text (the
// entry occs[k] and its place in that entry's Grams) and its number
// (gramSets[k]), so a gram costs its slots and its head, with no string
// header.
//
// gramSets, gramOff and occs are append-only, so a reader that captured
// them under the read lock may index them for every ID below the length it
// read with them; a head is rewritten in place, so a reader copies the
// heads it needs under the lock, and a chain walked from such a head
// reaches only occurrences that existed then.
//
// Beside the tables the dictionary holds each entry's score bits
// (sim.SegmentData.Score) in one flat array, so a row that shares no gram
// with the probe is known to be zero from a byte, without loading the table
// (Calculator.cacheRow).
type SegDict struct {
	mu       sync.RWMutex
	texts    strutil.KeyTable          // text → ID (dictTexts)
	tabs     atomic.Pointer[segTables] // ID → shared table
	scores   []uint8                   // ID → score bits; one per entry
	grams    strutil.KeyTable          // gram → its first occurrence (dictGrams)
	heads    []uint32                  // number → the gram's latest occurrence
	gramSets []uint32                  // every entry's gram numbers, back to back
	gramOff  []uint32                  // ID → start in gramSets; one more than entries
	occs     []gramOcc                 // occurrence → its entry and the gram's previous one
	limit    int                       // segDictCap; lowered by tests
}

// dictTexts is a dictionary as the KeySource of its texts table: entry id's
// text.
type dictTexts SegDict

func (d *dictTexts) Key(id uint32) string { return (*SegDict)(d).table(id).Text }

// dictGrams is a dictionary as the KeySource of its grams table: the gram
// of occurrence k, as its entry holds it.
type dictGrams SegDict

func (d *dictGrams) Key(k uint32) string {
	id := d.occs[k].id
	return (*SegDict)(d).table(id).Grams[k-d.gramOff[id]]
}

// textID returns the ID of a text d holds; d's lock is held.
func (d *SegDict) textID(text string) (uint32, bool) {
	return d.texts.Find(text, (*dictTexts)(d))
}

// gramNumber returns the number of a gram d has numbered; d's lock is held.
func (d *SegDict) gramNumber(gram string) (uint32, bool) {
	k, ok := d.grams.Find(gram, (*dictGrams)(d))
	if !ok {
		return 0, false
	}
	return d.gramSets[k], true
}

// gramOcc is one link of a gram's occurrence chain: the entry holding the
// occurrence and the gram's previous occurrence (noOcc when there is none).
type gramOcc struct{ prev, id uint32 }

// noOcc ends an occurrence chain.
const noOcc = ^uint32(0)

// Table chunks: the first holds 1<<chunkBits0 tables, each next one twice
// as many up to 1<<chunkBitsN, and every later one 1<<chunkBitsN. A small
// dictionary holds at most about twice its tables, and a large one at most
// one chunk more.
const (
	chunkBits0 = 4
	chunkBitsN = 10
	// doubled is the number of tables the doubling chunks hold.
	doubled = 1<<chunkBitsN - 1<<chunkBits0
)

// segTables is a dictionary's table chunks: the chunk directory is replaced
// whole when a chunk is added, and a chunk, once made, is never moved or
// resized, so a table's address is fixed from its interning on.
type segTables [][]sim.SegmentData

// chunkAt returns the chunk of table id and its place in it.
func chunkAt(id uint32) (int, uint32) {
	if id < doubled {
		k := bits.Len32(id>>chunkBits0+1) - 1
		return k, id - (1<<(k+chunkBits0) - 1<<chunkBits0)
	}
	id -= doubled
	return chunkBitsN - chunkBits0 + int(id>>chunkBitsN), id & (1<<chunkBitsN - 1)
}

// at returns table id, which the chunks must hold.
func (t segTables) at(id uint32) *sim.SegmentData {
	k, off := chunkAt(id)
	return &t[k][off]
}

// NewSegDict returns an empty dictionary.
func NewSegDict() *SegDict {
	return &SegDict{gramOff: []uint32{0}, limit: segDictCap}
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
	return len(d.scores)
}

// NumGrams returns the number of distinct q-grams the dictionary has
// numbered: those of the texts it interned, and no other.
func (d *SegDict) NumGrams() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.heads)
}

// table returns entry id's shared table. It takes no lock: the caller holds
// an ID the dictionary handed out, whose table was written before it.
func (d *SegDict) table(id uint32) *sim.SegmentData { return d.tabs.Load().at(id) }

// read is the probe side's view of the dictionary: every segment pr.Segs[i]
// gets the ID of its text, segs[i].Text (the enumeration pr was made from),
// where the dictionary holds it, and NoSegID where it does not; the number
// of segments left without one is returned. Nothing is written, and a nil
// dictionary holds no text. A segment with an ID reads the entry's shared
// table by it; the IDs are also kept for signing — an order generation's
// probe table is indexed by them (pebble.ProbeTable) — and for the
// verifier's probe-gram index, which takes an entry's gram numbers by them
// (Scratch.indexProbeGrams), and by the row cache when pr is a left operand.
func (d *SegDict) read(pr *PreparedRecord, segs []Segment) (missing int) {
	if d != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	for i := range pr.Segs {
		sg := &pr.Segs[i]
		sg.ref = NoSegID
		if d != nil {
			if id, ok := d.textID(segs[i].Text); ok {
				sg.ref = id
				continue
			}
		}
		missing++
	}
	return missing
}

// key returns d's own string for the text in b where d holds it, so that a
// segment of an interned text shares the dictionary's key, and a copy of b
// otherwise (or with a nil d). The lookup itself allocates nothing.
func (d *SegDict) key(b []byte) string {
	if d != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
		if id, ok := d.texts.FindBytes(b, (*dictTexts)(d)); ok {
			return d.table(id).Text
		}
	}
	return string(b)
}

// DictView is a capture of a dictionary's entries with their gram numbers,
// taken under the read lock (SegDict.View). The arrays it holds are
// append-only and their tables immutable, so it stays valid while later texts
// are interned past its end; it holds the entries and the numbered grams
// that existed when it was taken and no other.
type DictView struct {
	tabs     segTables
	n        int
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
	n := len(d.scores)
	return DictView{tabs: d.tabsNow(), n: n, gramSets: d.gramSets[:d.gramOff[n]], gramOff: d.gramOff[:n+1], grams: len(d.heads)}
}

// tabsNow returns the table chunks as they are now, none before the first
// intern.
func (d *SegDict) tabsNow() segTables {
	if t := d.tabs.Load(); t != nil {
		return *t
	}
	return nil
}

// Len returns the number of entries captured; every ID below it is one.
func (v DictView) Len() int { return v.n }

// NumGrams returns the number of grams numbered when the view was taken:
// every gram number of a captured entry is below it.
func (v DictView) NumGrams() int { return v.grams }

// Entry returns entry id's derivation table and the numbers of its grams,
// in the order of the table's Grams, and whether the view holds the entry
// (not for NoSegID, nor for an entry interned after the view was taken).
func (v DictView) Entry(id uint32) (*sim.SegmentData, []uint32, bool) {
	if int(id) >= v.n {
		return nil, nil, false
	}
	return v.tabs.at(id), v.gramSets[v.gramOff[id]:v.gramOff[id+1]], true
}

// GramNumber returns the number of a gram (without the pebble key prefix)
// the dictionary has numbered. A nil dictionary has numbered none.
func (d *SegDict) GramNumber(gram string) (uint32, bool) {
	if d == nil {
		return 0, false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.gramNumber(gram)
}

// intern returns the ID of a segment's text, deriving and storing its
// shared table on first sight; a full dictionary answers NoSegID and the
// text's table for the record to keep (the table is zero otherwise).
func (d *SegDict) intern(ctx *sim.Context, text string) (uint32, sim.SegmentData) {
	d.mu.RLock()
	id, ok := d.textID(text)
	d.mu.RUnlock()
	if ok {
		return id, sim.SegmentData{}
	}
	data := ctx.PrepareSegment(text) // derived outside the lock
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.textID(text); ok {
		return id, sim.SegmentData{} // a concurrent intern of the same text won
	}
	if len(d.scores) >= d.limit {
		return NoSegID, data
	}
	id = uint32(len(d.scores))
	tabs := d.tabsNow()
	if k, off := chunkAt(id); off == 0 {
		// The first table of a new chunk: readers keep the directory they
		// loaded, which still holds every table they can have an ID of.
		size := 1 << chunkBitsN
		if k < chunkBitsN-chunkBits0 {
			size = 1 << (k + chunkBits0)
		}
		tabs = append(tabs[:len(tabs):len(tabs)], make([]sim.SegmentData, size))
		d.tabs.Store(&tabs)
	}
	*tabs.at(id) = data
	d.texts.Insert(data.Text, id, (*dictTexts)(d))
	for _, g := range data.Grams {
		// Occurrence k is the gram's first when the gram is new: its entry
		// and the entry's gram offset are in place, and occs and gramSets
		// hold it before the next gram's lookup can read it.
		k, num, prev := uint32(len(d.gramSets)), uint32(len(d.heads)), noOcc
		if first, added := d.grams.Insert(g, k, (*dictGrams)(d)); added {
			d.heads = append(d.heads, k)
		} else {
			num = d.gramSets[first]
			prev, d.heads[num] = d.heads[num], k
		}
		d.occs = append(d.occs, gramOcc{prev: prev, id: id})
		d.gramSets = append(d.gramSets, num)
	}
	d.gramOff = append(d.gramOff, uint32(len(d.gramSets)))
	d.scores = append(d.scores, data.Score())
	return id, sim.SegmentData{}
}

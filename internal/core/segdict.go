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
type SegDict struct {
	mu      sync.RWMutex
	ids     map[string]uint32
	entries []*sim.SegmentData // ID → shared table
	limit   int                // segDictCap; lowered by tests
}

// NewSegDict returns an empty dictionary.
func NewSegDict() *SegDict {
	return &SegDict{ids: make(map[string]uint32), limit: segDictCap}
}

// Len returns the number of distinct segment texts interned so far; every ID
// the dictionary has handed out is below it.
func (d *SegDict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// read is the probe side's view of the dictionary: every segment gets
// NoSegID and, where the dictionary holds its text, the shared derivation
// table; the number of segments left without one is returned. Nothing is
// written, and a nil dictionary holds no text.
func (d *SegDict) read(segs []PreparedSegment) (missing int) {
	if d != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	for i := range segs {
		segs[i].ID, segs[i].Data = NoSegID, nil
		if d != nil {
			if id, ok := d.ids[strutil.JoinTokens(segs[i].Tokens)]; ok {
				segs[i].Data = d.entries[id]
				continue
			}
		}
		missing++
	}
	return missing
}

// intern returns the ID and shared derivation table of a segment's text,
// deriving and storing them on first sight; a full dictionary answers
// NoSegID and a private table.
func (d *SegDict) intern(ctx *sim.Context, tokens []string) (uint32, *sim.SegmentData) {
	text := strutil.JoinTokens(tokens)
	d.mu.RLock()
	id, ok := d.ids[text]
	if ok {
		data := d.entries[id]
		d.mu.RUnlock()
		return id, data
	}
	d.mu.RUnlock()
	data := ctx.PrepareSegment(text) // derived outside the lock
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[text]; ok {
		return id, d.entries[id] // a concurrent intern of the same text won
	}
	if len(d.entries) >= d.limit {
		return NoSegID, &data
	}
	id = uint32(len(d.entries))
	d.ids[data.Text] = id
	d.entries = append(d.entries, &data)
	return id, &data
}

package core

import (
	"fmt"

	"github.com/aujoin/aujoin/internal/strutil"
)

// SegPersist is the persisted identity of one prepared segment: its token
// span and provenance flags. Everything else about a segment — its tokens
// and its measure-evaluation tables — is a deterministic function of the
// span, the record tokens and the similarity context, so it is recomputed
// on restore instead of being serialized.
type SegPersist struct {
	Span   strutil.Span
	Rule   bool
	Entity bool
}

// PersistMeta returns the metadata a snapshot needs to reconstruct the
// record via RestorePrepared: the segment spans and flags in enumeration
// order, plus the partition-size lower bound.
func (pr *PreparedRecord) PersistMeta() ([]SegPersist, int) {
	segs := make([]SegPersist, len(pr.Segs))
	for i := range pr.Segs {
		segs[i] = SegPersist{Span: pr.Segs[i].Span, Rule: pr.Segs[i].Rule, Entity: pr.Segs[i].Entity}
	}
	return segs, pr.minPart
}

// RestorePrepared rebuilds a PreparedRecord from persisted metadata without
// re-running segment enumeration or the partition-size set cover — only the
// per-segment derivation tables are recomputed (deterministically, from the
// same context), so the result verifies bit-identically to the original.
// The metadata is validated against the token sequence: a snapshot that
// survived its checksum but describes impossible segments is rejected here.
// The segments are interned into d exactly as PrepareIn would (segment IDs
// are never persisted); a nil d restores a record without a dictionary.
func (c *Calculator) RestorePrepared(tokens []string, segs []SegPersist, minPart int, d *SegDict) (*PreparedRecord, error) {
	pr := &PreparedRecord{Tokens: tokens}
	if len(tokens) == 0 {
		if len(segs) != 0 {
			return nil, fmt.Errorf("core: %d segments on an empty record", len(segs))
		}
		return pr, nil
	}
	if minPart < 1 || minPart > len(tokens) {
		return nil, fmt.Errorf("core: partition bound %d out of range for %d tokens", minPart, len(tokens))
	}
	pr.Segs = make([]PreparedSegment, len(segs))
	pr.single = make([]int32, len(tokens))
	covered := make([]bool, len(tokens))
	prevStart := -1
	for i, s := range segs {
		sp := s.Span
		if sp.Start < 0 || sp.End > len(tokens) || sp.Len() < 1 {
			return nil, fmt.Errorf("core: segment span [%d,%d) out of range for %d tokens", sp.Start, sp.End, len(tokens))
		}
		if sp.Start < prevStart {
			return nil, fmt.Errorf("core: segments not in enumeration order at %d", i)
		}
		prevStart = sp.Start
		pr.Segs[i] = PreparedSegment{Span: sp, Rule: s.Rule, Entity: s.Entity}
		if sp.Len() == 1 {
			pr.single[sp.Start] = int32(i)
			covered[sp.Start] = true
		}
	}
	for pos, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("core: no singleton segment at position %d", pos)
		}
	}
	c.deriveSegments(d, true, pr)
	pr.minPart = minPart
	return pr, nil
}

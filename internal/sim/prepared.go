package sim

import (
	"sort"

	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// GramSet is the deduplicated q-gram set of a string, sorted ascending.
// Unlike the map form returned by strutil.QGramSet it supports allocation-free
// intersection by merging, which is what the verification hot path needs.
type GramSet []string

// newGramSet sorts and deduplicates a q-gram multiset in place, and returns
// with it, for a multiset that repeats a gram, how often each gram of the
// set occurs (nil when none repeats). The grams share their string's backing
// storage, so a GramSet costs one slice beyond the string.
func newGramSet(grams []string) (GramSet, *[]int32) {
	if len(grams) == 0 {
		return nil, nil
	}
	sort.Strings(grams)
	out := grams[:1]
	var reps []int32
	for i, g := range grams[1:] {
		if g != out[len(out)-1] {
			out = append(out, g)
			if reps != nil {
				reps = append(reps, 1)
			}
			continue
		}
		if reps == nil {
			// The first repeat: every gram before it occurred once.
			reps = make([]int32, len(out), len(out)+len(grams)-2-i)
			for k := range reps {
				reps[k] = 1
			}
		}
		reps[len(reps)-1]++
	}
	if reps == nil {
		return out, nil
	}
	return out, &reps
}

// Overlap returns |a ∩ b| by merging the two sorted sets.
func (a GramSet) Overlap(b GramSet) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// SegmentData is the per-segment derivation table of the prepare-once
// verification engine: everything the base measures need about one token
// span, computed once per record instead of once per candidate pair. The
// zero value describes an empty span. It holds no pebble key: a Jaccard
// pebble's key is GramKeyPrefix and a gram, built only where a segment is
// signed by key, and the table keeps of the gram occurrence multiset only
// what the pebbles need without keys — its size (Occ) and, for a text that
// repeats a gram, each gram's count (Reps).
type SegmentData struct {
	// Text is the space-joined segment text.
	Text string
	// Grams is the sorted q-gram set of Text (nil when Jaccard is disabled).
	Grams GramSet
	// Node is the taxonomy entity the text maps to, or InvalidNode.
	Node taxonomy.NodeID
	// Occ is the number of q-gram occurrences of Text (strutil.QGrams), each
	// one Jaccard pebble (Table 2); 0 when Jaccard is disabled.
	Occ int32
	// Side is Text's number as a synonym rule side (synonym.RuleSet.SideOf),
	// or synonym.NoSide: the rules whose left / right side equals Text are
	// Rules.SideRules(Side).
	Side int32
	// Reps, for a text that repeats a gram, points at how often each gram of
	// Grams occurs in Text, in Grams order; it is nil for a text whose grams
	// each occur once.
	Reps *[]int32
}

// GramCount returns how often gram i of a.Grams occurs in a.Text.
func (a *SegmentData) GramCount(i int) int {
	if a.Reps == nil {
		return 1
	}
	return int((*a.Reps)[i])
}

// GramKeyPrefix namespaces the pebble keys of q-grams, so that a gram can
// never collide with a rule side or an entity name in the inverted index.
const GramKeyPrefix = "g:"

// OccurrenceGram returns the q-gram occurrence i of text, in the order
// strutil.QGrams lists them: text itself when it is shorter than q.
func OccurrenceGram(text string, q, i int) string {
	if len(text) < q {
		return text
	}
	return text[i : i+q]
}

// PrepareSegment derives the SegmentData of a token span under this context
// from its space-joined text. The tokens must already be normalised (the
// output of strutil.Tokenize).
func (c *Context) PrepareSegment(text string) SegmentData {
	d := SegmentData{Text: text, Node: taxonomy.InvalidNode, Side: synonym.NoSide}
	if c.JaccardEnabled() {
		grams := strutil.QGrams(d.Text, c.GramQ())
		d.Occ = int32(len(grams))
		d.Grams, d.Reps = newGramSet(grams)
	}
	if c.SynonymEnabled() {
		d.Side = c.Rules.SideOf(d.Text)
	}
	if c.TaxonomyEnabled() {
		if id, ok := c.Tax.LookupText(text); ok {
			d.Node = id
		}
	}
	return d
}

// SegmentJaccardData is SegmentJaccard over prepared gram sets; it returns
// exactly the value SegmentJaccard returns for the underlying spans.
func (c *Context) SegmentJaccardData(a, b *SegmentData) float64 {
	if a.Text == "" && b.Text == "" {
		return 1
	}
	if a.Text == "" || b.Text == "" {
		return 0
	}
	la, lb := len(a.Grams), len(b.Grams)
	if la == 0 && lb == 0 {
		// union == 0: identical to the merge path's answer.
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	inter := a.Grams.Overlap(b.Grams)
	union := la + lb - inter
	return float64(inter) / float64(union)
}

// SegmentSynonymData is SegmentSynonym over prepared rule-side numbers.
func (c *Context) SegmentSynonymData(a, b *SegmentData) float64 {
	if !c.SynonymEnabled() {
		return 0
	}
	s, ok := c.Rules.MatchSides(a.Side, b.Side)
	if !ok {
		return 0
	}
	return s
}

// SegmentTaxonomyData is SegmentTaxonomy over prepared entity nodes.
func (c *Context) SegmentTaxonomyData(a, b *SegmentData) float64 {
	if !c.TaxonomyEnabled() || a.Node == taxonomy.InvalidNode || b.Node == taxonomy.InvalidNode {
		return 0
	}
	return c.Tax.Similarity(a.Node, b.Node)
}

// MSimData implements Eq. (4) over prepared segment data. It evaluates the
// same measures in the same order as MSim and therefore returns bit-identical
// values for the same underlying token spans.
func (c *Context) MSimData(a, b *SegmentData) float64 {
	best := 0.0
	if c.JaccardEnabled() {
		if v := c.SegmentJaccardData(a, b); v > best {
			best = v
		}
	}
	if c.SynonymEnabled() {
		if v := c.SegmentSynonymData(a, b); v > best {
			best = v
		}
	}
	if c.TaxonomyEnabled() {
		if v := c.SegmentTaxonomyData(a, b); v > best {
			best = v
		}
	}
	return best
}

// Score bits of a segment table (SegmentData.Score): what, other than a
// shared gram, can make MSimData(a, b) non-zero. Jaccard with no shared gram
// is non-zero only between two degenerate texts (both empty, or both without
// grams); the synonym measure only between two texts with a rule side; the
// taxonomy measure only between two texts with a node. So MSimData(a, b) is
// 0 whenever a and b share no gram and a.Score()&b.Score() == 0.
const (
	ScoreDegenerate uint8 = 1 << iota // empty text, or no grams
	ScoreRule                         // a synonym rule side
	ScoreNode                         // a taxonomy node
)

// Score returns a's score bits.
func (a *SegmentData) Score() uint8 {
	var s uint8
	if a.Text == "" || len(a.Grams) == 0 {
		s |= ScoreDegenerate
	}
	if a.Side != synonym.NoSide {
		s |= ScoreRule
	}
	if a.Node != taxonomy.InvalidNode {
		s |= ScoreNode
	}
	return s
}

// RowProbe is the right-hand record of an msim row (MSimRow): its segments'
// tables in order, the union of their score bits, and — listed once per
// record, so a row visits only them — the segments with a synonym rule side
// and the segments with a taxonomy node, the only ones those measures can
// score.
type RowProbe struct {
	segs  []*SegmentData
	ruled []int32
	nodes []int32
	score uint8
}

// Reset empties p for the next record, keeping its buffers.
func (p *RowProbe) Reset() {
	p.segs, p.ruled, p.nodes, p.score = p.segs[:0], p.ruled[:0], p.nodes[:0], 0
}

// Add appends the record's next segment.
func (p *RowProbe) Add(b *SegmentData) {
	j := int32(len(p.segs))
	p.segs = append(p.segs, b)
	s := b.Score()
	p.score |= s
	if s&ScoreRule != 0 {
		p.ruled = append(p.ruled, j)
	}
	if s&ScoreNode != 0 {
		p.nodes = append(p.nodes, j)
	}
}

// Score returns the union of the score bits of p's segments: a row of a text
// that shares no gram with p and none of these bits is all zeros.
func (p *RowProbe) Score() uint8 { return p.score }

// MSimRow sets row[j] to MSimData(a, b_j) for every segment b_j of p and
// returns the row's maximum, given inter[j] = |a.Grams ∩ b_j.Grams| counted
// by the caller (the verifier's probe-gram slot lists); a nil inter says a
// shares no gram with any b_j. The measures are taken in MSimData's order,
// each only where it can score: Jaccard, for a degenerate a, in every cell
// under SegmentJaccardData's degenerate cases, and otherwise only in the
// cells with a non-zero count, since with no shared gram and a gram on each
// side it is 0; the synonym measure, when a has a rule side, in the cells of
// p's segments with one; the taxonomy measure, when a has a node, in the
// cells of p's segments with one. Everywhere else those measures are 0 and
// leave the maximum as it is, so for the true counts every cell is
// bit-identical to MSimData(a, b_j).
func (c *Context) MSimRow(row []float64, a *SegmentData, p *RowProbe, inter []int32) float64 {
	clear(row)
	best := 0.0
	if c.JaccardEnabled() {
		if la := len(a.Grams); a.Text == "" || la == 0 {
			for j, b := range p.segs {
				row[j] = jaccardFromOverlap(a, b, 0)
				best = max(best, row[j])
			}
		} else {
			for j, n := range inter {
				if n != 0 {
					// Both sides have grams: jaccardFromOverlap's last case.
					row[j] = float64(n) / float64(la+len(p.segs[j].Grams)-int(n))
					best = max(best, row[j])
				}
			}
		}
	}
	if c.SynonymEnabled() && a.Side != synonym.NoSide {
		for _, j := range p.ruled {
			if v, ok := c.Rules.MatchSides(a.Side, p.segs[j].Side); ok && v > row[j] {
				row[j] = v
				best = max(best, v)
			}
		}
	}
	if c.TaxonomyEnabled() && a.Node != taxonomy.InvalidNode {
		for _, j := range p.nodes {
			if v := c.Tax.Similarity(a.Node, p.segs[j].Node); v > row[j] {
				row[j] = v
				best = max(best, v)
			}
		}
	}
	return best
}

// jaccardFromOverlap is SegmentJaccardData given the size of the gram
// intersection: the same four degenerate cases, then inter / union.
func jaccardFromOverlap(a, b *SegmentData, inter int) float64 {
	if a.Text == "" && b.Text == "" {
		return 1
	}
	if a.Text == "" || b.Text == "" {
		return 0
	}
	la, lb := len(a.Grams), len(b.Grams)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	return float64(inter) / float64(la+lb-inter)
}

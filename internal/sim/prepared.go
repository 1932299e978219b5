package sim

import (
	"sort"
	"strings"

	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// GramSet is the deduplicated q-gram set of a string, sorted ascending.
// Unlike the map form returned by strutil.QGramSet it supports allocation-free
// intersection by merging, which is what the verification hot path needs.
type GramSet []string

// newGramSet sorts and deduplicates a q-gram multiset in place. The grams
// share their string's backing storage, so a GramSet costs one slice beyond
// the string.
func newGramSet(grams []string) GramSet {
	if len(grams) == 0 {
		return nil
	}
	sort.Strings(grams)
	out := grams[:1]
	for _, g := range grams[1:] {
		if g != out[len(out)-1] {
			out = append(out, g)
		}
	}
	return out
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
// zero value describes an empty span.
type SegmentData struct {
	// Text is the space-joined segment text.
	Text string
	// Grams is the sorted q-gram set of Text (nil when Jaccard is disabled).
	Grams GramSet
	// GramKeys is the multiset form pebble generation reads (Table 2's Jaccard
	// row): GramKeyPrefix + gram for every q-gram occurrence of Text, in order
	// of occurrence, all cut out of one backing string.
	GramKeys []string
	// Node is the taxonomy entity the text maps to, or InvalidNode.
	Node taxonomy.NodeID
	// LHS and RHS list the identifiers (ascending) of the synonym rules whose
	// left / right side equals Text. The slices alias the rule set's index
	// and must not be modified.
	LHS, RHS []int
}

// GramKeyPrefix namespaces the pebble keys of q-grams, so that a gram can
// never collide with a rule side or an entity name in the inverted index.
const GramKeyPrefix = "g:"

// gramKeys returns the pebble key of every gram, in the order given.
func gramKeys(grams []string) []string {
	if len(grams) == 0 {
		return nil
	}
	var b strings.Builder
	b.Grow(len(grams) * (len(GramKeyPrefix) + len(grams[0]))) // grams of one text are equally long
	for _, g := range grams {
		b.WriteString(GramKeyPrefix)
		b.WriteString(g)
	}
	all, keys := b.String(), make([]string, len(grams))
	for i, g := range grams {
		n := len(GramKeyPrefix) + len(g)
		keys[i], all = all[:n], all[n:]
	}
	return keys
}

// PrepareSegment derives the SegmentData of a token span under this context
// from its space-joined text. The tokens must already be normalised (the
// output of strutil.Tokenize).
func (c *Context) PrepareSegment(text string) SegmentData {
	d := SegmentData{Text: text, Node: taxonomy.InvalidNode}
	if c.JaccardEnabled() {
		grams := strutil.QGrams(d.Text, c.GramQ())
		d.GramKeys = gramKeys(grams)
		d.Grams = newGramSet(grams)
	}
	if c.SynonymEnabled() {
		d.LHS = c.Rules.ByLHSText(d.Text)
		d.RHS = c.Rules.ByRHSText(d.Text)
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

// SegmentSynonymData is SegmentSynonym over prepared rule-side id lists.
func (c *Context) SegmentSynonymData(a, b *SegmentData) float64 {
	if !c.SynonymEnabled() {
		return 0
	}
	s, ok := c.Rules.MatchIDLists(a.LHS, a.RHS, b.LHS, b.RHS)
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
	if len(a.LHS) > 0 || len(a.RHS) > 0 {
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
	if c.SynonymEnabled() && (len(a.LHS) > 0 || len(a.RHS) > 0) {
		for _, j := range p.ruled {
			b := p.segs[j]
			if v, ok := c.Rules.MatchIDLists(a.LHS, a.RHS, b.LHS, b.RHS); ok && v > row[j] {
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

// Package sim implements the three base similarity measures of Section 2.1
// of the paper — the gram-based Jaccard measure and thin adapters over the
// synonym and taxonomy substrates — their maximum msim (Eq. 4), and the
// prepared per-segment tables and row kernel verification evaluates them
// through. The unified measure in internal/core composes these per-segment.
package sim

import (
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// DefaultQ is the gram length used throughout the paper's examples (2-grams
// in Example 2) and the default for all gram-based measures in this
// repository.
const DefaultQ = 2

// Measure identifies one of the three base similarity types the unified
// framework combines.
type Measure int

const (
	// Jaccard is the gram-based syntactic measure of Eq. (1).
	Jaccard Measure = iota
	// Synonym is the rule-based semantic measure of Eq. (2).
	Synonym
	// Taxonomy is the hierarchy-based semantic measure of Eq. (3).
	Taxonomy
	numMeasures
)

// NumMeasures is the number of base measures.
const NumMeasures = int(numMeasures)

// String returns the single-letter code used by the paper's tables
// (J, S, T).
func (m Measure) String() string {
	switch m {
	case Jaccard:
		return "J"
	case Synonym:
		return "S"
	case Taxonomy:
		return "T"
	default:
		return "?"
	}
}

// MeasureSet is a bit set of enabled measures; the paper evaluates all seven
// non-empty combinations (J, S, T, TJ, TS, JS, TJS).
type MeasureSet uint8

// Set bits for the individual measures.
const (
	SetJaccard  MeasureSet = 1 << iota // J
	SetSynonym                         // S
	SetTaxonomy                        // T
)

// SetAll enables all three measures (the TJS configuration).
const SetAll = SetJaccard | SetSynonym | SetTaxonomy

// Has reports whether the given measure is enabled.
func (ms MeasureSet) Has(m Measure) bool {
	switch m {
	case Jaccard:
		return ms&SetJaccard != 0
	case Synonym:
		return ms&SetSynonym != 0
	case Taxonomy:
		return ms&SetTaxonomy != 0
	}
	return false
}

// String renders the combination in the paper's notation (e.g. "TJS").
func (ms MeasureSet) String() string {
	s := ""
	if ms.Has(Taxonomy) {
		s += "T"
	}
	if ms.Has(Jaccard) {
		s += "J"
	}
	if ms.Has(Synonym) {
		s += "S"
	}
	if s == "" {
		return "none"
	}
	return s
}

// ParseMeasureSet parses a combination string such as "TJS", "js" or "T".
// Unknown letters are ignored; an empty result defaults to SetAll.
func ParseMeasureSet(s string) MeasureSet {
	var ms MeasureSet
	for _, r := range s {
		switch r {
		case 'j', 'J':
			ms |= SetJaccard
		case 's', 'S':
			ms |= SetSynonym
		case 't', 'T':
			ms |= SetTaxonomy
		}
	}
	if ms == 0 {
		return SetAll
	}
	return ms
}

// JaccardGrams computes the Jaccard coefficient of the q-gram sets of two
// strings (Eq. 1). It returns 1 for two empty strings and 0 when exactly one
// is empty.
func JaccardGrams(s, t string, q int) float64 {
	if s == "" && t == "" {
		return 1
	}
	if s == "" || t == "" {
		return 0
	}
	gs := strutil.QGramSet(s, q)
	gt := strutil.QGramSet(t, q)
	inter := strutil.OverlapCount(gs, gt)
	union := len(gs) + len(gt) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Context carries the knowledge sources and configuration every similarity
// computation needs. A single Context is shared by the unified measure, the
// pebble generator, and the join algorithms.
type Context struct {
	// Q is the gram length for the Jaccard measure; zero means DefaultQ.
	Q int
	// Rules is the synonym rule set; may be nil when the synonym measure is
	// disabled.
	Rules *synonym.RuleSet
	// Tax is the taxonomy hierarchy; may be nil when the taxonomy measure
	// is disabled.
	Tax *taxonomy.Tree
	// Measures selects which base measures participate in the unified
	// similarity. Zero means all measures.
	Measures MeasureSet
}

// NewContext builds a Context with the given knowledge sources and all
// measures enabled.
func NewContext(rules *synonym.RuleSet, tax *taxonomy.Tree) *Context {
	return &Context{Q: DefaultQ, Rules: rules, Tax: tax, Measures: SetAll}
}

// WithMeasures returns a copy of the context restricted to the given
// measures (used to reproduce the per-measure columns of Tables 8, 13 and
// Figure 6).
func (c *Context) WithMeasures(ms MeasureSet) *Context {
	cp := *c
	cp.Measures = ms
	return &cp
}

// GramQ returns the effective gram length.
func (c *Context) GramQ() int {
	if c == nil || c.Q <= 0 {
		return DefaultQ
	}
	return c.Q
}

// enabled reports whether measure m participates.
func (c *Context) enabled(m Measure) bool {
	if c == nil {
		return true
	}
	if c.Measures == 0 {
		return true
	}
	return c.Measures.Has(m)
}

// JaccardEnabled, SynonymEnabled and TaxonomyEnabled report whether the
// respective measure participates in this context (the measure must be both
// selected and backed by its knowledge source where one is required).
func (c *Context) JaccardEnabled() bool { return c.enabled(Jaccard) }

// SynonymEnabled reports whether the synonym measure participates.
func (c *Context) SynonymEnabled() bool { return c.enabled(Synonym) && c.Rules != nil }

// TaxonomyEnabled reports whether the taxonomy measure participates.
func (c *Context) TaxonomyEnabled() bool { return c.enabled(Taxonomy) && c.Tax != nil }

// SegmentJaccard returns the Jaccard similarity between two token spans
// rendered as text.
func (c *Context) SegmentJaccard(a, b []string) float64 {
	return JaccardGrams(strutil.JoinTokens(a), strutil.JoinTokens(b), c.GramQ())
}

// SegmentSynonym returns the synonym similarity between two token spans,
// 0 when the measure is disabled.
func (c *Context) SegmentSynonym(a, b []string) float64 {
	if !c.SynonymEnabled() {
		return 0
	}
	s, ok := c.Rules.MatchPair(a, b)
	if !ok {
		return 0
	}
	return s
}

// SegmentTaxonomy returns the taxonomy similarity between two token spans,
// 0 when either span is not a taxonomy entity or the measure is disabled.
func (c *Context) SegmentTaxonomy(a, b []string) float64 {
	if !c.TaxonomyEnabled() {
		return 0
	}
	na, ok := c.Tax.LookupTokens(a)
	if !ok {
		return 0
	}
	nb, ok := c.Tax.LookupTokens(b)
	if !ok {
		return 0
	}
	return c.Tax.Similarity(na, nb)
}

// MSim implements Eq. (4): the maximum of the enabled base measures applied
// to the two token spans. This is the per-vertex weight of the conflict
// graph and the per-edge weight of the bipartite matching.
func (c *Context) MSim(a, b []string) float64 {
	best := 0.0
	if c.JaccardEnabled() {
		if v := c.SegmentJaccard(a, b); v > best {
			best = v
		}
	}
	if c.SynonymEnabled() {
		if v := c.SegmentSynonym(a, b); v > best {
			best = v
		}
	}
	if c.TaxonomyEnabled() {
		if v := c.SegmentTaxonomy(a, b); v > best {
			best = v
		}
	}
	return best
}

// MaxRuleTokens returns the claw parameter k: the maximal number of tokens
// on any side of an applicable synonym rule or taxonomy entity.
func (c *Context) MaxRuleTokens() int {
	k := 1
	if c.SynonymEnabled() {
		if v := c.Rules.MaxSideTokens(); v > k {
			k = v
		}
	}
	if c.TaxonomyEnabled() {
		if v := c.Tax.MaxEntityTokens(); v > k {
			k = v
		}
	}
	return k
}

// MaxRuleTokensFrom returns the token count of the longest applicable
// synonym-rule side or taxonomy entity name of two or more tokens whose first
// token is head, or 0 when there is none: no span of two or more tokens
// starting with any other token is a well-defined segment.
func (c *Context) MaxRuleTokensFrom(head string) int {
	k := 0
	if c.SynonymEnabled() {
		k = c.Rules.MaxSideTokensFrom(head)
	}
	if c.TaxonomyEnabled() {
		k = max(k, c.Tax.MaxEntityTokensFrom(head))
	}
	return k
}

// Package datagen generates the synthetic datasets, taxonomies, synonym
// rule sets and ground-truth pairs used by the experiment harness.
//
// The paper evaluates on the MED dataset (research-paper keywords mapped to
// the MeSH taxonomy) and the WIKI dataset (Wikipedia category strings with
// the Wikipedia category hierarchy and synonym lists). Those corpora and
// the crowd-sourced ground truth are not redistributable, so this package
// builds structurally equivalent substitutes: token vocabularies with
// Zipfian frequencies, random IS-A taxonomies with the height/fan-out
// profile of Table 6, synonym rules with 1–4 token sides, and record
// collections whose length distribution follows Table 7 (scaled down).
// Ground truth comes for free because variants are generated by applying
// known transformations (typos, synonym replacement, taxonomy-sibling
// replacement) to base records.
package datagen

import (
	"fmt"
	"math/rand"

	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// Config controls dataset generation.
type Config struct {
	// Name labels the dataset in reports ("MED-like", "WIKI-like").
	Name string
	// Seed makes generation deterministic.
	Seed int64
	// Size is the number of base records.
	Size int
	// VocabSize is the number of distinct plain tokens.
	VocabSize int
	// MinTokens / MaxTokens bound the record length in tokens.
	MinTokens, MaxTokens int
	// TaxonomyNodes is the number of entities in the generated taxonomy.
	TaxonomyNodes int
	// TaxonomyFanout is the maximal number of children per node.
	TaxonomyFanout int
	// TaxonomyDepth is the maximal tree depth.
	TaxonomyDepth int
	// SynonymRules is the number of generated rules.
	SynonymRules int
	// MaxRuleTokens bounds the number of tokens on the left-hand side of a
	// generated rule (the k of the approximation analysis); zero means 3.
	MaxRuleTokens int
	// EntityRate is the probability that a token position is replaced by a
	// taxonomy entity mention; SynonymTermRate likewise for rule sides.
	EntityRate      float64
	SynonymTermRate float64
	// Variant injection rates: probability that a variant applies each
	// transformation at least once.
	TypoRate, SynonymSwapRate, TaxonomySwapRate float64
	// ZipfS, when above 1, draws plain tokens from a true Zipf
	// distribution with exponent s over the vocabulary ranks (rank-k
	// tokens appear with probability ∝ 1/k^s), the regime large-corpus
	// benchmarks use to stress the dense posting lists. At the default 0
	// the legacy squared-uniform skew is kept, preserving the output of
	// existing seeds.
	ZipfS float64
	// DistinctTokens suppresses repeated plain tokens within one record
	// (a bounded number of redraws per position, so a tiny vocabulary
	// cannot loop forever). Short natural-language strings rarely repeat
	// words; repetition also multiplies a shared token's contribution to
	// the filter overlap, which distorts selectivity studies on small
	// vocabularies.
	DistinctTokens bool
}

// MEDLike returns a configuration mirroring the MED dataset's structure
// (short keyword strings, deep domain taxonomy, many exact synonyms),
// scaled to the given number of records.
func MEDLike(size int, seed int64) Config {
	return Config{
		Name: "MED-like", Seed: seed, Size: size,
		VocabSize: 400, MinTokens: 2, MaxTokens: 9,
		TaxonomyNodes: 300, TaxonomyFanout: 6, TaxonomyDepth: 7,
		SynonymRules: 150, EntityRate: 0.3, SynonymTermRate: 0.3,
		TypoRate: 0.5, SynonymSwapRate: 0.6, TaxonomySwapRate: 0.4,
	}
}

// WIKILike returns a configuration mirroring the WIKI dataset's structure
// (longer category strings, very wide shallow taxonomy, fewer synonyms per
// string), scaled to the given number of records.
func WIKILike(size int, seed int64) Config {
	return Config{
		Name: "WIKI-like", Seed: seed, Size: size,
		VocabSize: 900, MinTokens: 3, MaxTokens: 12,
		TaxonomyNodes: 600, TaxonomyFanout: 18, TaxonomyDepth: 6,
		SynonymRules: 80, EntityRate: 0.4, SynonymTermRate: 0.15,
		TypoRate: 0.6, SynonymSwapRate: 0.3, TaxonomySwapRate: 0.6,
	}
}

func (c Config) withDefaults() Config {
	if c.Size <= 0 {
		c.Size = 1000
	}
	if c.VocabSize <= 0 {
		c.VocabSize = 300
	}
	if c.MinTokens <= 0 {
		c.MinTokens = 2
	}
	if c.MaxTokens < c.MinTokens {
		c.MaxTokens = c.MinTokens + 6
	}
	if c.TaxonomyNodes <= 0 {
		c.TaxonomyNodes = 200
	}
	if c.TaxonomyFanout <= 0 {
		c.TaxonomyFanout = 8
	}
	if c.TaxonomyDepth <= 1 {
		c.TaxonomyDepth = 6
	}
	if c.SynonymRules <= 0 {
		c.SynonymRules = 100
	}
	if c.MaxRuleTokens <= 0 {
		c.MaxRuleTokens = 3
	}
	if c.EntityRate <= 0 {
		c.EntityRate = 0.3
	}
	if c.SynonymTermRate <= 0 {
		c.SynonymTermRate = 0.2
	}
	if c.TypoRate <= 0 {
		c.TypoRate = 0.5
	}
	if c.SynonymSwapRate <= 0 {
		c.SynonymSwapRate = 0.4
	}
	if c.TaxonomySwapRate <= 0 {
		c.TaxonomySwapRate = 0.4
	}
	if c.Name == "" {
		c.Name = "synthetic"
	}
	return c
}

// Provenance records which transformations produced a variant record; the
// effectiveness experiments use it to characterise ground-truth pairs.
type Provenance struct {
	Typo         bool
	SynonymSwap  bool
	TaxonomySwap bool
}

// Dataset is a generated join benchmark: two record collections, the
// knowledge sources, and the ground-truth pairs (index into S, index into
// T) that are semantically equivalent by construction.
type Dataset struct {
	Name  string
	Rules *synonym.RuleSet
	Tax   *taxonomy.Tree
	S     []strutil.Record
	T     []strutil.Record
	// Truth maps [sIndex, tIndex] pairs to the provenance of the variant.
	Truth map[[2]int]Provenance
}

// Context returns a similarity context over the dataset's knowledge
// sources with all measures enabled.
func (d *Dataset) Context() *sim.Context { return sim.NewContext(d.Rules, d.Tax) }

// TruthPairs returns the ground-truth pairs as a slice.
func (d *Dataset) TruthPairs() [][2]int {
	out := make([][2]int, 0, len(d.Truth))
	for k := range d.Truth {
		out = append(out, k)
	}
	return out
}

// Generator produces datasets from a configuration.
type Generator struct {
	cfg   Config
	rng   *rand.Rand
	vocab []string
	tax   *taxonomy.Tree
	// entities holds the names of taxonomy leaves and internal nodes that
	// records may mention.
	entities []string
	rules    *synonym.RuleSet
	// ruleSides holds one representative side text per rule for injection.
	ruleSides [][2]string
	// zipf is the true-Zipf token sampler, non-nil iff Config.ZipfS > 1.
	zipf *rand.Zipf
}

// New creates a Generator (building vocabulary, taxonomy and rules).
func New(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.buildVocab()
	g.buildTaxonomy()
	g.buildRules()
	if cfg.ZipfS > 1 {
		g.zipf = rand.NewZipf(g.rng, cfg.ZipfS, 1, uint64(len(g.vocab)-1))
	}
	return g
}

// Config returns the effective configuration (with defaults applied).
func (g *Generator) Config() Config { return g.cfg }

// Taxonomy returns the generated taxonomy.
func (g *Generator) Taxonomy() *taxonomy.Tree { return g.tax }

// Rules returns the generated synonym rules.
func (g *Generator) Rules() *synonym.RuleSet { return g.rules }

// buildVocab creates the plain-token vocabulary. Tokens are pronounceable
// 4–9 letter words so q-grams behave like natural language.
func (g *Generator) buildVocab() {
	consonants := "bcdfghklmnprstvz"
	vowels := "aeiou"
	seen := map[string]struct{}{}
	for len(g.vocab) < g.cfg.VocabSize {
		n := 2 + g.rng.Intn(3) // 2-4 syllables
		w := make([]byte, 0, n*2)
		for i := 0; i < n; i++ {
			w = append(w, consonants[g.rng.Intn(len(consonants))], vowels[g.rng.Intn(len(vowels))])
		}
		word := string(w)
		if _, ok := seen[word]; ok {
			continue
		}
		seen[word] = struct{}{}
		g.vocab = append(g.vocab, word)
	}
}

// buildTaxonomy grows a random tree with the configured size, fan-out and
// depth; entity names are one or two vocabulary tokens (suffixed to stay
// distinct from plain tokens only through usage, as in real taxonomies).
func (g *Generator) buildTaxonomy() {
	g.tax = taxonomy.NewTree("entity root")
	type slot struct {
		id    taxonomy.NodeID
		depth int
	}
	frontier := []slot{{id: g.tax.Root(), depth: 1}}
	for g.tax.Len() < g.cfg.TaxonomyNodes && len(frontier) > 0 {
		// Pick a random frontier node that still has depth budget.
		idx := g.rng.Intn(len(frontier))
		parent := frontier[idx]
		if parent.depth >= g.cfg.TaxonomyDepth {
			frontier = append(frontier[:idx], frontier[idx+1:]...)
			continue
		}
		children := 1 + g.rng.Intn(g.cfg.TaxonomyFanout)
		for c := 0; c < children && g.tax.Len() < g.cfg.TaxonomyNodes; c++ {
			name := g.entityName()
			id, err := g.tax.AddChild(parent.id, name)
			if err != nil {
				continue
			}
			frontier = append(frontier, slot{id: id, depth: parent.depth + 1})
		}
		// Parent keeps a chance of growing again only occasionally.
		if g.rng.Float64() < 0.7 {
			frontier = append(frontier[:idx], frontier[idx+1:]...)
		}
	}
	g.tax.Finalize()
	for _, name := range g.tax.EntityNames() {
		if name == "entity root" {
			continue
		}
		g.entities = append(g.entities, name)
	}
}

// entityName builds a 1–2 token entity name from the vocabulary.
func (g *Generator) entityName() string {
	a := g.vocab[g.rng.Intn(len(g.vocab))]
	if g.rng.Float64() < 0.4 {
		b := g.vocab[g.rng.Intn(len(g.vocab))]
		return fmt.Sprintf("%s %s", a, b)
	}
	return fmt.Sprintf("%s%d", a, g.rng.Intn(50))
}

// buildRules creates synonym rules with 1–3 token sides over the
// vocabulary (multi-token lhs → shorter rhs, like abbreviations).
func (g *Generator) buildRules() {
	g.rules = synonym.NewRuleSet()
	for g.rules.Len() < g.cfg.SynonymRules {
		lhsLen := 1 + g.rng.Intn(g.cfg.MaxRuleTokens)
		rhsLen := 1 + g.rng.Intn(2)
		if g.rules.Len() == 0 {
			// Guarantee the configured maximal rule size actually occurs.
			lhsLen = g.cfg.MaxRuleTokens
		}
		lhs := g.phrase(lhsLen)
		rhs := g.phrase(rhsLen)
		if lhs == rhs {
			continue
		}
		closeness := 1.0
		if g.rng.Float64() < 0.3 {
			closeness = 0.8 + 0.2*g.rng.Float64()
		}
		if _, err := g.rules.Add(lhs, rhs, closeness); err != nil {
			continue
		}
		g.ruleSides = append(g.ruleSides, [2]string{lhs, rhs})
	}
}

func (g *Generator) phrase(n int) string {
	toks := make([]string, n)
	for i := range toks {
		toks[i] = g.vocab[g.rng.Intn(len(g.vocab))]
	}
	return strutil.JoinTokens(toks)
}

// zipfToken draws a vocabulary token with a Zipf-like skew: a true Zipf
// sampler over the vocabulary ranks when Config.ZipfS is set, otherwise the
// legacy rank-1/rank weighting approximated by squaring a uniform draw.
func (g *Generator) zipfToken() string {
	if g.zipf != nil {
		return g.vocab[g.zipf.Uint64()]
	}
	u := g.rng.Float64()
	idx := int(u * u * float64(len(g.vocab)))
	if idx >= len(g.vocab) {
		idx = len(g.vocab) - 1
	}
	return g.vocab[idx]
}

// BaseRecord generates one base record string: a mix of plain tokens,
// taxonomy entity mentions and synonym-rule sides.
func (g *Generator) BaseRecord() string {
	length := g.cfg.MinTokens
	if g.cfg.MaxTokens > g.cfg.MinTokens {
		length += g.rng.Intn(g.cfg.MaxTokens - g.cfg.MinTokens + 1)
	}
	var toks []string
	for len(toks) < length {
		r := g.rng.Float64()
		switch {
		case r < g.cfg.EntityRate && len(g.entities) > 0:
			toks = append(toks, strutil.Tokenize(g.entities[g.rng.Intn(len(g.entities))])...)
		case r < g.cfg.EntityRate+g.cfg.SynonymTermRate && len(g.ruleSides) > 0:
			side := g.ruleSides[g.rng.Intn(len(g.ruleSides))]
			toks = append(toks, strutil.Tokenize(side[g.rng.Intn(2)])...)
		default:
			tok := g.zipfToken()
			if g.cfg.DistinctTokens {
				for retry := 0; retry < 8 && contains(toks, tok); retry++ {
					tok = g.zipfToken()
				}
			}
			toks = append(toks, tok)
		}
	}
	return strutil.JoinTokens(toks)
}

// Collection generates n base record strings.
func (g *Generator) Collection(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.BaseRecord()
	}
	return out
}

// Variant derives a similar record from a base record by applying typo,
// synonym-replacement and taxonomy-sibling-replacement transformations
// according to the configured rates, and reports which were applied.
func (g *Generator) Variant(base string) (string, Provenance) {
	tokens := strutil.Tokenize(base)
	var prov Provenance

	// Synonym replacement: replace a span matching a rule side with the
	// opposite side.
	if g.rng.Float64() < g.cfg.SynonymSwapRate {
		if out, ok := g.applySynonymSwap(tokens); ok {
			tokens = out
			prov.SynonymSwap = true
		}
	}
	// Taxonomy-sibling replacement: replace an entity mention with one of
	// its siblings (shared parent).
	if g.rng.Float64() < g.cfg.TaxonomySwapRate {
		if out, ok := g.applyTaxonomySwap(tokens); ok {
			tokens = out
			prov.TaxonomySwap = true
		}
	}
	// Typo: perturb one character of a random token.
	if g.rng.Float64() < g.cfg.TypoRate && len(tokens) > 0 {
		idx := g.rng.Intn(len(tokens))
		if typo := g.applyTypo(tokens[idx]); typo != tokens[idx] {
			tokens[idx] = typo
			prov.Typo = true
		}
	}
	return strutil.JoinTokens(tokens), prov
}

func (g *Generator) applySynonymSwap(tokens []string) ([]string, bool) {
	maxSpan := g.rules.MaxSideTokens()
	// Try random starting points.
	for attempt := 0; attempt < 8; attempt++ {
		if len(tokens) == 0 {
			return tokens, false
		}
		start := g.rng.Intn(len(tokens))
		limit := maxSpan
		if rem := len(tokens) - start; rem < limit {
			limit = rem
		}
		for length := limit; length >= 1; length-- {
			span := tokens[start : start+length]
			if ids := g.rules.ByLHS(span); len(ids) > 0 {
				r := g.rules.Rule(ids[g.rng.Intn(len(ids))])
				return spliceTokens(tokens, start, length, r.RHS), true
			}
			if ids := g.rules.ByRHS(span); len(ids) > 0 {
				r := g.rules.Rule(ids[g.rng.Intn(len(ids))])
				return spliceTokens(tokens, start, length, r.LHS), true
			}
		}
	}
	return tokens, false
}

func (g *Generator) applyTaxonomySwap(tokens []string) ([]string, bool) {
	maxSpan := g.tax.MaxEntityTokens()
	for attempt := 0; attempt < 8; attempt++ {
		if len(tokens) == 0 {
			return tokens, false
		}
		start := g.rng.Intn(len(tokens))
		limit := maxSpan
		if rem := len(tokens) - start; rem < limit {
			limit = rem
		}
		for length := limit; length >= 1; length-- {
			span := tokens[start : start+length]
			node, ok := g.tax.LookupTokens(span)
			if !ok || node == g.tax.Root() {
				continue
			}
			parent := g.tax.Node(node).Parent
			siblings := g.tax.Node(parent).Children
			if len(siblings) < 2 {
				continue
			}
			sib := siblings[g.rng.Intn(len(siblings))]
			if sib == node {
				continue
			}
			return spliceTokens(tokens, start, length, strutil.Tokenize(g.tax.Name(sib))), true
		}
	}
	return tokens, false
}

// applyTypo perturbs one character: substitution, deletion, insertion or
// transposition.
func (g *Generator) applyTypo(token string) string {
	if len(token) < 2 {
		return token
	}
	pos := g.rng.Intn(len(token))
	letters := "abcdefghijklmnopqrstuvwxyz"
	switch g.rng.Intn(4) {
	case 0: // substitution
		return token[:pos] + string(letters[g.rng.Intn(len(letters))]) + token[pos+1:]
	case 1: // deletion
		return token[:pos] + token[pos+1:]
	case 2: // insertion
		return token[:pos] + string(letters[g.rng.Intn(len(letters))]) + token[pos:]
	default: // transposition
		if pos == len(token)-1 {
			pos--
		}
		return token[:pos] + string(token[pos+1]) + string(token[pos]) + token[pos+2:]
	}
}

func spliceTokens(tokens []string, start, length int, replacement []string) []string {
	out := make([]string, 0, len(tokens)-length+len(replacement))
	out = append(out, tokens[:start]...)
	out = append(out, replacement...)
	out = append(out, tokens[start+length:]...)
	return out
}

// Generate builds a complete benchmark dataset: |S| = Size base records,
// |T| = Size records of which roughly half are labelled variants of S
// records and the rest are fresh (dissimilar) records.
func (g *Generator) Generate() *Dataset {
	cfg := g.cfg
	ds := &Dataset{
		Name:  cfg.Name,
		Rules: g.rules,
		Tax:   g.tax,
		Truth: map[[2]int]Provenance{},
	}
	baseRaws := g.Collection(cfg.Size)
	ds.S = strutil.NewCollection(baseRaws)

	tRaws := make([]string, 0, cfg.Size)
	for i := 0; i < cfg.Size; i++ {
		if i%2 == 0 && i/2 < len(baseRaws) {
			src := i / 2
			variant, prov := g.Variant(baseRaws[src])
			ds.Truth[[2]int{src, len(tRaws)}] = prov
			tRaws = append(tRaws, variant)
		} else {
			tRaws = append(tRaws, g.BaseRecord())
		}
	}
	ds.T = strutil.NewCollection(tRaws)
	return ds
}

// contains reports whether toks already holds tok (records are a handful of
// tokens, so a linear scan beats any set).
func contains(toks []string, tok string) bool {
	for _, t := range toks {
		if t == tok {
			return true
		}
	}
	return false
}

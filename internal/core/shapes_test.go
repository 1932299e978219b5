package core

import "github.com/aujoin/aujoin/internal/datagen"

// shapes are the three generators the verifier is held to: the paper's MED
// shape, the titles shape (a 10 000-token flat vocabulary, 10–14 distinct
// tokens a record, q = 5) and a rule- and taxonomy-heavy one (a 40-token
// vocabulary under 150 rules and 120 entities), each with the threshold its
// workloads run at.
var shapes = []struct {
	name  string
	cfg   datagen.Config
	q     int
	theta float64
}{
	{"MED", datagen.MEDLike(150, 7), 2, 0.8},
	{"titles", titlesShape(150), 5, 0.9},
	{"heavy", datagen.Config{
		Name: "heavy", Seed: 3, Size: 150, VocabSize: 40, MinTokens: 2, MaxTokens: 8,
		TaxonomyNodes: 120, TaxonomyFanout: 4, TaxonomyDepth: 6, SynonymRules: 150, MaxRuleTokens: 4,
		EntityRate: 0.5, SynonymTermRate: 0.5, TypoRate: 0.5, SynonymSwapRate: 0.6, TaxonomySwapRate: 0.6,
	}, 2, 0.7},
}

// titlesShape is the titles corpus' generator at the given size.
func titlesShape(size int) datagen.Config {
	cfg := datagen.MEDLike(size, 20190811)
	cfg.VocabSize = 10000
	cfg.MinTokens, cfg.MaxTokens = 10, 14
	cfg.DistinctTokens = true
	cfg.EntityRate, cfg.SynonymTermRate = 0.05, 0.05
	cfg.TaxonomyNodes, cfg.SynonymRules = 1000, 200
	return cfg
}

// Command poidedup demonstrates deduplicating a collection of points of
// interest (POIs) with SelfJoin: the motivating scenario of the paper's
// introduction (Section 1), where the same venue appears with typos,
// abbreviations and category-level variants that no single similarity
// measure catches alone.
package main

import (
	"fmt"

	"github.com/aujoin/aujoin"
)

func main() {
	j := aujoin.New(
		aujoin.WithSynonym("coffee shop", "cafe", 1.0),
		aujoin.WithSynonym("st", "street", 1.0),
		aujoin.WithSynonym("ctr", "center", 1.0),
		aujoin.WithSynonym("natl", "national", 1.0),
		aujoin.WithTaxonomyPath("poi", "food venue", "coffee venue", "espresso bar"),
		aujoin.WithTaxonomyPath("poi", "food venue", "coffee venue", "latte bar"),
		aujoin.WithTaxonomyPath("poi", "food venue", "bakery"),
		aujoin.WithTaxonomyPath("poi", "culture venue", "museum"),
		aujoin.WithTaxonomyPath("poi", "culture venue", "gallery"),
	)

	pois := []string{
		"espresso bar mannerheim street helsinki",
		"latte bar mannerheim st helsinki",
		"coffee shop aleksanterinkatu helsinki",
		"cafe aleksanterinkatu helsingki",
		"natl museum of finland",
		"national museum of finland",
		"design museum helsinki",
		"kiasma gallery helsinki",
		"central railway station helsinki",
	}

	// τ = 1: these records are a few tokens long, so a larger τ lengthens
	// every signature — 13 candidate pairs at τ = 2 to 4 against 6 at τ = 1,
	// for the same three duplicates.
	matches, stats := j.SelfJoin(pois, aujoin.JoinOptions{
		Theta:  0.72,
		Tau:    1,
		Filter: aujoin.AUFilterDP,
	})

	fmt.Printf("self-join of %d POIs at θ=0.72 (τ=%d, %d candidates, %v total)\n",
		len(pois), stats.Tau, stats.Candidates, stats.Total())
	fmt.Println("likely duplicates:")
	for _, m := range matches {
		fmt.Printf("  %.3f  %q\n         %q\n", m.Similarity, pois[m.S], pois[m.T])
	}
}

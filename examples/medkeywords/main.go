// Command medkeywords demonstrates a full join on a MED-style workload,
// mirroring the paper's MED dataset (Section 5.1): research-paper keyword
// strings matched against a controlled vocabulary using a medical-style
// taxonomy and alternative-name synonyms. It runs entirely on generated
// data so the example works offline.
package main

import (
	"bytes"
	"fmt"
	"log"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/datagen"
)

func main() {
	// Generate a MED-like benchmark: two record collections, a taxonomy
	// and synonym rules, plus ground-truth pairs with known provenance.
	gen := datagen.New(datagen.MEDLike(400, 7))
	ds := gen.Generate()

	// Export the generated knowledge through the public API loaders, the
	// same way a real deployment would load MeSH trees and synonym lists.
	var taxBuf, synBuf bytes.Buffer
	if err := ds.Tax.Write(&taxBuf); err != nil {
		log.Fatal(err)
	}
	if err := ds.Rules.Write(&synBuf); err != nil {
		log.Fatal(err)
	}
	j, err := aujoin.NewStrict(
		aujoin.WithTaxonomyFrom(&taxBuf),
		aujoin.WithSynonymsFrom(&synBuf),
	)
	if err != nil {
		log.Fatal(err)
	}

	left := make([]string, len(ds.S))
	for i, r := range ds.S {
		left[i] = r.Raw
	}
	right := make([]string, len(ds.T))
	for i, r := range ds.T {
		right[i] = r.Raw
	}

	// τ = 1: on this corpus every τ from 1 to 8 admits the same 107 650
	// candidate pairs and returns the same 170 matches: a larger τ buys no
	// pruning here.
	matches, stats := j.Join(left, right, aujoin.JoinOptions{Theta: 0.8, Tau: 1})
	fmt.Printf("joined %d x %d keyword records at θ=0.8: %d matches (τ=%d, %v)\n",
		len(left), len(right), len(matches), stats.Tau, stats.Total())

	// How many of the known ground-truth pairs did the unified join recover?
	found := 0
	matched := map[[2]int]bool{}
	for _, m := range matches {
		matched[[2]int{m.S, m.T}] = true
	}
	for pair := range ds.Truth {
		if matched[pair] {
			found++
		}
	}
	fmt.Printf("recovered %d / %d labelled variant pairs\n", found, len(ds.Truth))
	for i, m := range matches {
		if i >= 5 {
			break
		}
		fmt.Printf("  %.3f  %q ~ %q\n", m.Similarity, left[m.S], right[m.T])
	}
}

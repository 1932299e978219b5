package aujoin_test

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/aujoin/aujoin"
)

// ExampleJoiner_JoinSeq streams a join instead of buffering it: matches are
// yielded as soon as the worker that filtered a probe record has verified
// its candidates, and the context bounds the whole pipeline — sampling,
// filtering and verification — with one deadline.
func ExampleJoiner_JoinSeq() {
	j := aujoin.New(
		aujoin.WithSynonym("coffee shop", "cafe", 1.0),
		aujoin.WithTaxonomyPath("wikipedia", "food", "coffee", "coffee drinks", "espresso"),
		aujoin.WithTaxonomyPath("wikipedia", "food", "coffee", "coffee drinks", "latte"),
	)
	left := []string{"coffee shop latte Helsingki", "apple cake bakery"}
	right := []string{"espresso cafe Helsinki", "cake gateau bakery", "unrelated"}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var matches []aujoin.Match
	for m, err := range j.JoinSeq(ctx, left, right, aujoin.JoinOptions{Theta: 0.75, Tau: 2}) {
		if err != nil {
			fmt.Println("join aborted:", err) // deadline or cancellation
			return
		}
		matches = append(matches, m) // or process and drop — nothing is buffered
	}
	// Streaming yields in completion order; sort by (S, T) for Join's order.
	sort.Slice(matches, func(a, b int) bool {
		if matches[a].S != matches[b].S {
			return matches[a].S < matches[b].S
		}
		return matches[a].T < matches[b].T
	})
	for _, m := range matches {
		fmt.Printf("%q ~ %q\n", left[m.S], right[m.T])
	}
	// Output:
	// "coffee shop latte Helsingki" ~ "espresso cafe Helsinki"
}

// ExampleIndex_QueryCtx serves one lookup under a request deadline with
// per-request options: the similarity threshold is raised for this call
// only, without rebuilding the index.
func ExampleIndex_QueryCtx() {
	j := aujoin.New(aujoin.WithSynonym("st", "street", 1.0))
	ix := j.Index([]string{
		"espresso bar mannerheim street",
		"espresso bar mannerheim st",
		"apple cake bakery",
	}, aujoin.JoinOptions{Theta: 0.6, Tau: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()

	matches, err := ix.QueryCtx(ctx, "espresso bar mannerheim street", aujoin.QueryOptions{
		MinSimilarity: 0.95, // stricter than the build-time θ, for this request only
	})
	if err != nil {
		fmt.Println("query aborted:", err)
		return
	}
	for _, m := range matches {
		fmt.Printf("record %d (similarity %.2f)\n", m.Record, m.Similarity)
	}
	// Output:
	// record 0 (similarity 1.00)
	// record 1 (similarity 1.00)
}

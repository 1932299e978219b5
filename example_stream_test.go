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

// ExampleView_Query serves lookups from a snapshot under a request deadline.
// The zero QueryOptions return every match reaching the build-time θ, best
// first; K bounds the answer to the best K, and MinSimilarity raises the
// threshold for one request without rebuilding the index.
func ExampleView_Query() {
	j := aujoin.New(aujoin.WithSynonym("st", "street", 1.0))
	ix := j.Index([]string{
		"espresso bar mannerheim street",
		"espresso bar mannerheim st",
		"espresso bar mannerheim",
		"apple cake bakery",
	}, aujoin.JoinOptions{Theta: 0.6, Tau: 1})
	view := ix.Snapshot()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()

	for _, opts := range []aujoin.QueryOptions{
		{},                    // every match reaching θ = 0.6, best first
		{K: 1},                // the best match only (ties go to the lower ID)
		{MinSimilarity: 0.95}, // stricter than θ, for this request only
	} {
		matches, err := view.Query(ctx, "espresso bar mannerheim street", opts)
		if err != nil {
			fmt.Println("query aborted:", err)
			return
		}
		fmt.Printf("%+v:", opts)
		for _, m := range matches {
			fmt.Printf(" record %d (%.2f)", m.Record, m.Similarity)
		}
		fmt.Println()
	}
	// Output:
	// {MinSimilarity:0 K:0}: record 0 (1.00) record 1 (1.00) record 2 (0.75)
	// {MinSimilarity:0 K:1}: record 0 (1.00)
	// {MinSimilarity:0.95 K:0}: record 0 (1.00) record 1 (1.00)
}

// ExampleView_Probe joins a batch against a snapshot as a stream: a probe
// record's matches are yielded as soon as the worker that filtered it has
// verified its candidates, and the context bounds the whole pipeline.
func ExampleView_Probe() {
	j := aujoin.New(
		aujoin.WithSynonym("coffee shop", "cafe", 1.0),
		aujoin.WithSynonym("cake", "gateau", 1.0),
		aujoin.WithTaxonomyPath("wikipedia", "food", "coffee", "coffee drinks", "espresso"),
		aujoin.WithTaxonomyPath("wikipedia", "food", "coffee", "coffee drinks", "latte"),
	)
	catalog := []string{"coffee shop latte Helsingki", "apple cake bakery"}
	ix := j.Index(catalog, aujoin.JoinOptions{Theta: 0.75, Tau: 2})
	batch := []string{"espresso cafe Helsinki", "apple gateau bakery", "unrelated"}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var matches []aujoin.Match
	for m, err := range ix.Snapshot().Probe(ctx, batch) {
		if err != nil {
			fmt.Println("probe aborted:", err) // deadline or cancellation
			return
		}
		matches = append(matches, m)
	}
	// The stream yields in completion order; sort by (S, T) for a fixed one.
	sort.Slice(matches, func(a, b int) bool {
		if matches[a].S != matches[b].S {
			return matches[a].S < matches[b].S
		}
		return matches[a].T < matches[b].T
	})
	for _, m := range matches {
		fmt.Printf("%q ~ %q (%.2f)\n", catalog[m.S], batch[m.T], m.Similarity)
	}
	// Output:
	// "coffee shop latte Helsingki" ~ "espresso cafe Helsinki" (0.82)
	// "apple cake bakery" ~ "apple gateau bakery" (1.00)
}

// Command queryserve demonstrates the build-once/probe-many API of the
// Section 3 filtering pipeline through the streaming v2 surface: a catalog
// is indexed once (signatures, interned pebble order, inverted index), then
// served with context-bounded single-string queries and a streaming batch
// probe — matches arrive as soon as the worker that filtered a probe record
// has verified its candidates, and every request runs under a deadline
// (this serving layer is the implementation's extension beyond the paper;
// see ARCHITECTURE.md).
//
// The -deadline flag sets the per-request timeout; try -deadline 1ns to
// watch every query abort with context.DeadlineExceeded instead of running
// to completion.
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"github.com/aujoin/aujoin"
)

func main() {
	deadline := flag.Duration("deadline", 2*time.Second, "per-request timeout (try 1ns to see queries abort)")
	flag.Parse()

	j := aujoin.New(
		aujoin.WithSynonym("coffee shop", "cafe", 1.0),
		aujoin.WithSynonym("st", "street", 1.0),
		aujoin.WithTaxonomyPath("wikipedia", "food", "coffee", "coffee drinks", "espresso"),
		aujoin.WithTaxonomyPath("wikipedia", "food", "coffee", "coffee drinks", "latte"),
	)

	catalog := []string{
		"coffee shop latte Helsingki",
		"espresso bar mannerheim street",
		"apple cake bakery",
		"national museum of finland",
	}
	ix := j.Index(catalog, aujoin.JoinOptions{Theta: 0.75, Tau: 2, Filter: aujoin.AUFilterDP})

	// Single-string lookups run under a per-request deadline; QueryOptions
	// can tighten the threshold per call without rebuilding the index.
	for _, q := range []string{"espresso cafe Helsinki", "latte bar mannerheim st", "apple pie"} {
		ctx, cancel := context.WithTimeout(context.Background(), *deadline)
		hits, err := ix.QueryCtx(ctx, q, aujoin.QueryOptions{})
		cancel()
		if err != nil {
			fmt.Printf("query %q aborted: %v\n", q, err)
			continue
		}
		fmt.Printf("query %q:\n", q)
		for _, h := range hits {
			fmt.Printf("  %.3f  %q\n", h.Similarity, catalog[h.Record])
		}
	}

	// Batch probes stream: each match is yielded the moment verification
	// confirms it, nothing is buffered, and the same deadline covers the
	// whole pipeline. Breaking out of the loop would stop the join early.
	batch := []string{"espresso cafe Helsinki", "cake gateau bakery"}
	ctx, cancel := context.WithTimeout(context.Background(), *deadline)
	streamed := 0
	for m, err := range ix.ProbeSeq(ctx, batch) {
		if err != nil {
			fmt.Printf("probe aborted after %d matches: %v\n", streamed, err)
			break
		}
		streamed++
		fmt.Printf("  streamed: %q ~ %q  sim=%.3f\n", catalog[m.S], batch[m.T], m.Similarity)
	}
	cancel()

	// The index is dynamic: inserts become visible to fresh snapshots
	// immediately, removed records are tombstoned, and a snapshot taken
	// before a mutation keeps serving the old catalog state.
	ids := ix.Insert([]string{"espresso coffee shop helsinki"})
	fmt.Printf("inserted record id %d\n", ids[0])
	ctx, cancel = context.WithTimeout(context.Background(), *deadline)
	top, err := ix.QueryTopKCtx(ctx, "espresso cafe helsinki", aujoin.QueryOptions{K: 2})
	cancel()
	if err != nil {
		fmt.Printf("top-k aborted: %v\n", err)
	}
	for _, h := range top {
		fmt.Printf("  top-k: id=%d sim=%.3f\n", h.Record, h.Similarity)
	}
	afterInsert := ix.Snapshot()
	ix.Remove(ids[0])
	fmt.Printf("after remove: %d hits current, %d hits on the pre-remove snapshot\n",
		len(ix.Query("espresso coffee shop helsinki")),
		len(afterInsert.Query("espresso coffee shop helsinki")))
	st := ix.Stats()
	fmt.Printf("index stats: %d live, %d inserted over lifetime, %d rebuilds\n",
		st.Live, st.Inserts, st.Rebuilds)
}

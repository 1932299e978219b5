// Command aujoin joins two files of strings (one record per line) under the
// unified similarity measure and prints the matching pairs.
//
// Usage:
//
//	aujoin -left a.txt -right b.txt -theta 0.8 [-tau 3] \
//	       [-filter dp|heuristic|u] [-synonyms rules.tsv] [-taxonomy tax.tsv] \
//	       [-measures TJS]
//
// Output lines have the form "<left-index>\t<right-index>\t<similarity>".
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/cmdutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aujoin: ")

	var (
		leftPath  = flag.String("left", "", "path to the left collection (one record per line)")
		rightPath = flag.String("right", "", "path to the right collection; omit for a self-join of -left")
		theta     = flag.Float64("theta", 0.8, "unified similarity threshold in [0,1]")
		tau       = flag.Int("tau", 1, "overlap constraint (values below 1 run at 1)")
		filter    = flag.String("filter", "dp", "signature filter: u, heuristic or dp")
		synPath   = flag.String("synonyms", "", "optional synonym rules file (lhs<TAB>rhs[<TAB>closeness])")
		taxPath   = flag.String("taxonomy", "", "optional taxonomy file (node<TAB>parent)")
		measures  = flag.String("measures", "TJS", "measure combination (e.g. J, TS, TJS)")
		stats     = flag.Bool("stats", false, "print join statistics to stderr")
	)
	flag.Parse()

	if *leftPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := cmdutil.CheckFilter(*filter); err != nil {
		log.Fatal(err)
	}

	opts := []aujoin.Option{aujoin.WithMeasures(*measures)}
	if *synPath != "" {
		f, err := os.Open(*synPath)
		if err != nil {
			log.Fatalf("open synonyms: %v", err)
		}
		opts = append(opts, aujoin.WithSynonymsFrom(f))
		defer f.Close()
	}
	if *taxPath != "" {
		f, err := os.Open(*taxPath)
		if err != nil {
			log.Fatalf("open taxonomy: %v", err)
		}
		opts = append(opts, aujoin.WithTaxonomyFrom(f))
		defer f.Close()
	}
	joiner, err := aujoin.NewStrict(opts...)
	if err != nil {
		log.Fatalf("configuration: %v", err)
	}

	left, err := cmdutil.ReadLines(*leftPath)
	if err != nil {
		log.Fatalf("read left: %v", err)
	}

	jopts := aujoin.JoinOptions{Theta: *theta, Tau: *tau, Filter: cmdutil.ParseFilter(*filter)}

	var matches []aujoin.Match
	var jstats aujoin.Stats
	if *rightPath == "" {
		matches, jstats = joiner.SelfJoin(left, jopts)
	} else {
		right, err := cmdutil.ReadLines(*rightPath)
		if err != nil {
			log.Fatalf("read right: %v", err)
		}
		matches, jstats = joiner.Join(left, right, jopts)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, m := range matches {
		fmt.Fprintf(w, "%d\t%d\t%.4f\n", m.S, m.T, m.Similarity)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "tau=%d candidates=%d results=%d filter=%v verify=%v total=%v\n",
			jstats.Tau, jstats.Candidates, jstats.Results, jstats.FilterTime, jstats.VerifyTime, jstats.Total())
	}
}

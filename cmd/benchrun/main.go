// Command benchrun regenerates the paper's tables and figures on synthetic
// MED-like and WIKI-like datasets and prints them as plain-text tables.
//
// Usage:
//
//	benchrun -exp table8            # one experiment
//	benchrun -exp all -med 2000 -wiki 4000
//
// Experiment identifiers follow DESIGN.md §3: table8, table9, fig3, fig4,
// fig5, fig6, fig7, table10, table11, table12, fig8, table13, table14.
// Serving, cluster, filter-phase and snapshot/restore performance is measured
// by benchmark/ (see its README).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/aujoin/aujoin/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrun: ")

	var (
		exp  = flag.String("exp", "all", "experiment id (see DESIGN.md §3) or 'all'")
		med  = flag.Int("med", 0, "MED-like dataset size (default from the harness)")
		wiki = flag.Int("wiki", 0, "WIKI-like dataset size (default from the harness)")
		seed = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *med > 0 {
		cfg.MEDSize = *med
	}
	if *wiki > 0 {
		cfg.WIKISize = *wiki
	}
	cfg.Seed = *seed

	runners := map[string]func() fmt.Stringer{
		"table8":  func() fmt.Stringer { return experiments.RunTable8(cfg, []float64{0.70, 0.75}) },
		"table9":  func() fmt.Stringer { return experiments.RunTable9(cfg, []int{3, 4, 5, 6}, 100) },
		"fig3":    func() fmt.Stringer { return experiments.RunFig3(cfg) },
		"fig4":    func() fmt.Stringer { return experiments.RunFig4(cfg, 3) },
		"fig5":    func() fmt.Stringer { return experiments.RunFig5(cfg, 0.85) },
		"fig6":    func() fmt.Stringer { return experiments.RunFig6(cfg, 3) },
		"fig7":    func() fmt.Stringer { return experiments.RunFig7(cfg, nil, 0.9, 3) },
		"table10": func() fmt.Stringer { return experiments.RunFig7(cfg, nil, 0.9, 3) },
		"table11": func() fmt.Stringer { return experiments.RunTable11(cfg) },
		"table12": func() fmt.Stringer { return experiments.RunTable12(cfg, 20) },
		"fig8":    func() fmt.Stringer { return experiments.RunFig8(cfg, nil) },
		"table13": func() fmt.Stringer { return experiments.RunTable13(cfg, []float64{0.70, 0.75}) },
		"table14": func() fmt.Stringer { return experiments.RunTable14(cfg, 3) },
	}
	order := []string{"table8", "table9", "fig3", "fig4", "fig5", "fig6", "fig7",
		"table10", "table11", "table12", "fig8", "table13", "table14"}

	ids := []string{strings.ToLower(*exp)}
	if *exp == "all" {
		ids = order
	}
	for _, id := range ids {
		run, ok := runners[id]
		if !ok {
			log.Printf("unknown experiment %q; known: %s", id, strings.Join(order, ", "))
			os.Exit(2)
		}
		fmt.Printf("=== %s ===\n%s\n", id, run().String())
	}
}

// Command benchrun regenerates the paper's tables and figures on synthetic
// MED-like and WIKI-like datasets and prints them as plain-text tables. It
// also hosts the concurrent serving load generator for the dynamic index.
//
// Usage:
//
//	benchrun -exp table8            # one experiment
//	benchrun -exp all -med 2000 -wiki 4000
//	benchrun -exp serve -serve-duration 10s -serve-workers 8 -shards 4
//
// Experiment identifiers follow DESIGN.md §3: table8, table9, fig3, fig4,
// fig5, fig6, fig7, table10, table11, table12, fig8, table13, table14.
// Four extra identifiers (not part of the paper, excluded from "all"):
//
//   - "serve" drives concurrent QueryTopK traffic against a mutating
//     dynamic index and reports QPS, latency percentiles and rebuild
//     counts.
//   - "filterscale" compares the hybrid bitmap candidate phase against the
//     classic slice layout on a large zipfian corpus (default 1M indexed
//     records), reporting per-layout filter wall time and the speedup.
//   - "recover" builds a sharded index cold, writes a durable snapshot,
//     restores a second index from it and reports cold-build vs restore
//     wall time plus snapshot size; it exits non-zero if the restored
//     index's top-k answers diverge, so it doubles as a recovery smoke.
//   - "cluster" boots an in-process multi-worker cluster (coordinator +
//     aujoind workers over loopback HTTP), drives closed-loop query load
//     with a background mutator at a 1-worker and an N-worker cluster,
//     optionally kills a worker mid-run, and reports aggregate QPS plus
//     end-to-end, coordinator-merge and per-worker latency percentiles;
//     -cluster-check additionally verifies the cluster's answers are
//     bit-identical to a single-node index (non-zero exit on divergence).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

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

		serveDuration = flag.Duration("serve-duration", 5*time.Second, "serve mode: load duration")
		serveWorkers  = flag.Int("serve-workers", runtime.GOMAXPROCS(0), "serve mode: concurrent query workers")
		serveTheta    = flag.Float64("serve-theta", 0.8, "serve mode: similarity threshold")
		serveTau      = flag.Int("serve-tau", 2, "serve mode: overlap constraint")
		serveTopK     = flag.Int("serve-k", 10, "serve mode: top-k per query")
		serveMutate   = flag.Duration("serve-mutate-every", 10*time.Millisecond, "serve mode: pause between mutation batches")
		serveTimeout  = flag.Duration("serve-query-timeout", 0, "serve mode: per-query deadline (0 = none)")
		shards        = flag.Int("shards", 1, "serve mode: index partitions (0 = GOMAXPROCS)")
		mixedQueries  = flag.Bool("mixed-queries", false, "serve mode: bimodal short/long query workload with per-length-bucket latency percentiles")
		servePlan     = flag.String("serve-plan", "auto", "serve mode: per-query filter planning: auto, fixed, or a pinned probe config (ufilter/t1, auheur/t2, audp/t3, ...)")

		recoverRecords = flag.Int("recover-records", 100_000, "recover mode: catalog size to snapshot and restore")
		recoverShards  = flag.Int("recover-shards", 4, "recover mode: index partitions (0 = GOMAXPROCS)")
		recoverTheta   = flag.Float64("recover-theta", 0.8, "recover mode: similarity threshold")
		recoverTau     = flag.Int("recover-tau", 2, "recover mode: overlap constraint")
		recoverProbes  = flag.Int("recover-probes", 100, "recover mode: top-k equivalence probe count")
		recoverDir     = flag.String("recover-dir", "", "recover mode: snapshot directory (empty = temp dir)")

		clusterWorkers  = flag.Int("cluster-workers", 3, "cluster mode: worker count for the full-cluster phase")
		clusterReplicas = flag.Int("cluster-replicas", 2, "cluster mode: replication factor")
		clusterRecords  = flag.Int("cluster-records", 2000, "cluster mode: seeded catalog size")
		clusterDuration = flag.Duration("cluster-duration", 3*time.Second, "cluster mode: load duration per phase")
		clusterClients  = flag.Int("cluster-clients", 4, "cluster mode: concurrent closed-loop query clients")
		clusterTopK     = flag.Int("cluster-k", 10, "cluster mode: top-k per query")
		clusterTheta    = flag.Float64("cluster-theta", 0.8, "cluster mode: similarity threshold")
		clusterTau      = flag.Int("cluster-tau", 2, "cluster mode: overlap constraint")
		clusterKill     = flag.Bool("cluster-kill", true, "cluster mode: kill one worker halfway through the full-cluster phase")
		clusterCheck    = flag.Bool("cluster-check", false, "cluster mode: verify the cluster answers bit-identically to a single-node index (non-zero exit on divergence)")

		scaleRecords = flag.Int("scale-records", 1_000_000, "filterscale mode: indexed-side corpus size")
		scaleProbes  = flag.Int("scale-probes", 200, "filterscale mode: probe-side record count")
		scaleVocab   = flag.Int("scale-vocab", 0, "filterscale mode: vocabulary size (0 = 200: every list dense)")
		scaleZipf    = flag.Float64("scale-zipf", 0, "filterscale mode: token-frequency Zipf exponent s > 1 (0 = legacy mild skew)")
		scaleTheta   = flag.Float64("scale-theta", 0.9, "filterscale mode: similarity threshold")
		scaleTau     = flag.Int("scale-tau", 12, "filterscale mode: overlap constraint")
	)
	flag.Parse()

	if _, err := parseServePlan(*servePlan); err != nil {
		log.Fatal(err)
	}

	cfg := experiments.DefaultConfig()
	if *med > 0 {
		cfg.MEDSize = *med
	}
	if *wiki > 0 {
		cfg.WIKISize = *wiki
	}
	cfg.Seed = *seed

	runners := map[string]func() fmt.Stringer{
		"serve": func() fmt.Stringer {
			return runServe(serveConfig{
				CatalogSize:  cfg.MEDSize,
				Theta:        *serveTheta,
				Tau:          *serveTau,
				Duration:     *serveDuration,
				Workers:      *serveWorkers,
				TopK:         *serveTopK,
				Shards:       *shards,
				MutateEvery:  *serveMutate,
				QueryTimeout: *serveTimeout,
				MixedQueries: *mixedQueries,
				PlanMode:     *servePlan,
				Seed:         *seed,
			})
		},
		"recover": func() fmt.Stringer {
			return runRecover(recoverConfig{
				Records: *recoverRecords,
				Shards:  *recoverShards,
				Theta:   *recoverTheta,
				Tau:     *recoverTau,
				Probes:  *recoverProbes,
				Dir:     *recoverDir,
				Seed:    *seed,
			})
		},
		"cluster": func() fmt.Stringer {
			return runClusterBench(clusterBenchConfig{
				Workers:  *clusterWorkers,
				Replicas: *clusterReplicas,
				Records:  *clusterRecords,
				Duration: *clusterDuration,
				Clients:  *clusterClients,
				TopK:     *clusterTopK,
				Theta:    *clusterTheta,
				Tau:      *clusterTau,
				Kill:     *clusterKill,
				Check:    *clusterCheck,
				Seed:     *seed,
			})
		},
		"filterscale": func() fmt.Stringer {
			return runFilterScale(filterScaleConfig{
				Records: *scaleRecords,
				Probes:  *scaleProbes,
				Vocab:   *scaleVocab,
				ZipfS:   *scaleZipf,
				Theta:   *scaleTheta,
				Tau:     *scaleTau,
				Seed:    *seed,
			})
		},
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
			log.Printf("unknown experiment %q; known: %s, serve, filterscale, recover, cluster", id, strings.Join(order, ", "))
			os.Exit(2)
		}
		fmt.Printf("=== %s ===\n%s\n", id, run().String())
	}
}

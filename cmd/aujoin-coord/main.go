// Command aujoin-coord is the cluster coordinator: it waits for the
// expected number of aujoind workers (started with -join) to register,
// consistent-hashes the record space across them in replica groups, seeds
// an optional catalog, and then serves the same /query, /probe, /insert,
// /remove and /remove-batch HTTP API as a single aujoind — answers are
// scatter-gathered from the workers and are bit-identical to a single-node
// index over the same records. See the Cluster section of ARCHITECTURE.md.
//
// Usage:
//
//	aujoin-coord -addr :8080 -expect-workers 3 -replicas 2 -catalog records.txt
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/aujoin/aujoin/internal/cluster"
	"github.com/aujoin/aujoin/internal/cmdutil"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		expect   = flag.Int("expect-workers", 3, "number of workers to wait for before bootstrapping")
		replicas = flag.Int("replicas", 2, "replication factor (clamped to the worker count)")
		catalog  = flag.String("catalog", "", "optional newline-delimited record file seeded at bootstrap")
		theta    = flag.Float64("theta", 0.8, "similarity threshold pushed to workers")
		tau      = flag.Int("tau", 2, "pebble overlap constraint tau")
		filter   = flag.String("filter", "dp", "signature filter: u, heuristic, dp")
		hedge    = flag.Duration("hedge", 50*time.Millisecond, "read hedging delay (negative disables)")
		hbEvery  = flag.Duration("heartbeat", 500*time.Millisecond, "worker health-check interval")
		syncFrac = flag.Float64("sync-fraction", 1.0, "auto epoch bump when a worker's dynamic keys reach this fraction of its frozen order (negative disables)")
	)
	flag.Parse()

	if *expect < 1 {
		log.Fatal("aujoin-coord: -expect-workers must be at least 1")
	}
	if err := cmdutil.CheckFilter(*filter); err != nil {
		log.Fatalf("aujoin-coord: %v", err)
	}
	var records []string
	if *catalog != "" {
		var err error
		records, err = cmdutil.ReadLines(*catalog)
		if err != nil {
			log.Fatalf("aujoin-coord: read catalog: %v", err)
		}
		log.Printf("catalog: %d records from %s", len(records), *catalog)
	}

	coord := cluster.NewCoordinator(cluster.CoordConfig{
		Workers:      *expect,
		Replicas:     *replicas,
		Theta:        *theta,
		Tau:          *tau,
		Filter:       *filter,
		Catalog:      records,
		HedgeDelay:   *hedge,
		Heartbeat:    *hbEvery,
		SyncFraction: *syncFrac,
		Logf:         log.Printf,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go coord.Run(ctx)

	srv := &http.Server{Addr: *addr, Handler: coord.Mux()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("aujoin-coord listening on %s, waiting for %d workers (replicas=%d, theta=%.2f, tau=%d, filter=%s)",
			*addr, *expect, *replicas, *theta, *tau, *filter)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("aujoin-coord: %v", err)
		}
	case <-ctx.Done():
		log.Print("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
	if err := coord.BootstrapErr(); err != nil {
		fmt.Fprintf(os.Stderr, "aujoin-coord: bootstrap had failed: %v\n", err)
		os.Exit(1)
	}
}

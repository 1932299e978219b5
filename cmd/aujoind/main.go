// Command aujoind serves a dynamic similarity-join index over HTTP: a
// catalog is indexed at startup and then queried, extended and shrunk
// online. Queries run lock-free against immutable snapshots while inserts
// and removes mutate the catalog underneath (see README.md, "Serving", and
// ARCHITECTURE.md, "The mutable index", for the snapshot model).
//
// Usage:
//
//	aujoind -catalog catalog.txt -theta 0.8 -tau 2 [-addr :8321] [-shards N] \
//	        [-synonyms rules.tsv] [-taxonomy tax.tsv] [-measures TJS] \
//	        [-data-dir /var/lib/aujoin] [-checkpoint-every 5m]
//	aujoind -join http://coord:8080 [-advertise http://host:8321] [-shards N]
//
// -shards partitions the index so insert/remove batches parallelize across
// shards and rebuild stalls are bounded by shard size (0 = GOMAXPROCS,
// default 1 = one shard, the same engine with a fan-out of one).
//
// -data-dir makes the catalog durable: every insert/remove batch is fsynced
// to a write-ahead log before it is applied, and the index state is folded
// into an atomic snapshot on demand (POST /snapshot), periodically
// (-checkpoint-every), and on graceful shutdown. On startup, a directory
// holding a usable snapshot wins over -catalog and the build flags: the
// daemon restores the snapshot (re-preparing and re-signing every record
// under the stored pebble order), replays the log, and serves the exact
// pre-restart state. The synonym/taxonomy/measure flags must match across
// restarts — similarity resources are not persisted.
//
// -join turns the daemon into a cluster worker: it registers with the
// aujoin-coord coordinator at the given URL, receives its replica-group
// assignment and build parameters from it (so -catalog, -theta, -tau,
// -filter and -data-dir conflict with -join), and serves coordinator
// traffic stamped with the cluster's order epoch. -advertise is the URL the
// coordinator reaches this worker at; it defaults to
// http://127.0.0.1<addr> when -addr is a bare port.
//
// Endpoints:
//
//	GET  /query?q=<string>&k=<n>         top-k matches for one query string,
//	                                     streamed as NDJSON (one match per
//	                                     line); k is required and must be ≥ 1,
//	                                     min_sim=<f> optionally raises the
//	                                     similarity threshold for this request
//	POST /probe {"records": [...]}       join a batch against the catalog,
//	                                     matches streamed as NDJSON lines as
//	                                     they are confirmed
//	POST /insert {"records": [...]}      append a batch, returns stable ids
//	POST /remove {"id": <n>}             tombstone one record by stable id
//	POST /remove-batch {"ids": [...]}    tombstone a batch, returns per-id
//	                                     booleans
//	POST /snapshot                       fold the WAL into a new durable
//	                                     checkpoint (requires -data-dir)
//	GET  /stats                          snapshot statistics
//	GET  /healthz                        liveness probe: 200 as soon as the
//	                                     listener is up
//	GET  /readyz                         readiness probe: 503 until recovery
//	                                     (or cluster configuration) finishes,
//	                                     then 200
//
// Every query and probe runs under the request's context: a client that
// hangs up or times out cancels the in-flight filter-and-verify work instead
// of leaving it to run to completion against a dead connection.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests before exiting.
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
	"strings"
	"syscall"
	"time"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/cluster"
	"github.com/aujoin/aujoin/internal/cmdutil"
)

// config is the parsed and validated flag set.
type config struct {
	addr      string
	catalog   string
	theta     float64
	tau       int
	filter    string
	shards    int
	synPath   string
	taxPath   string
	measures  string
	dataDir   string
	ckptIvl   time.Duration
	join      string
	advertise string
}

// validate rejects flag combinations that cannot mean what the operator
// intended, with errors that say which flag to drop.
func (c *config) validate() error {
	if err := cmdutil.CheckFilter(c.filter); err != nil {
		return err
	}
	if c.shards < 0 {
		return fmt.Errorf("-shards must be >= 0 (0 selects GOMAXPROCS), got %d", c.shards)
	}
	if c.join != "" {
		if c.catalog != "" {
			return errors.New("-catalog conflicts with -join: a cluster worker is seeded by the coordinator, not from a local file (seed the catalog on aujoin-coord instead)")
		}
		if c.dataDir != "" {
			return errors.New("-data-dir conflicts with -join: cluster workers hold coordinator-assigned record IDs, which the local WAL cannot represent (worker durability is not supported yet)")
		}
		if !strings.HasPrefix(c.join, "http://") && !strings.HasPrefix(c.join, "https://") {
			return fmt.Errorf("-join must be an http(s) URL, got %q", c.join)
		}
	}
	if c.ckptIvl > 0 && c.dataDir == "" {
		return errors.New("-checkpoint-every requires -data-dir")
	}
	return nil
}

// advertiseURL is the URL the coordinator reaches this worker at: the
// -advertise flag when set, else http://127.0.0.1<addr> when -addr is a
// bare port (the local-cluster default), else http://<addr>.
func (c *config) advertiseURL() string {
	if c.advertise != "" {
		return strings.TrimRight(c.advertise, "/")
	}
	if strings.HasPrefix(c.addr, ":") {
		return "http://127.0.0.1" + c.addr
	}
	return "http://" + c.addr
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("aujoind: ")

	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8321", "listen address")
	flag.StringVar(&cfg.catalog, "catalog", "", "path to the initial catalog (one record per line); optional")
	flag.Float64Var(&cfg.theta, "theta", 0.8, "unified similarity threshold in [0,1]")
	flag.IntVar(&cfg.tau, "tau", 2, "overlap constraint")
	flag.StringVar(&cfg.filter, "filter", "dp", "signature filter: u, heuristic or dp")
	flag.IntVar(&cfg.shards, "shards", 1, "index partitions (0 = GOMAXPROCS)")
	flag.StringVar(&cfg.synPath, "synonyms", "", "optional synonym rules file (lhs<TAB>rhs[<TAB>closeness])")
	flag.StringVar(&cfg.taxPath, "taxonomy", "", "optional taxonomy file (node<TAB>parent)")
	flag.StringVar(&cfg.measures, "measures", "TJS", "measure combination (e.g. J, TS, TJS)")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durable data directory (snapshot + WAL); empty = in-memory only")
	flag.DurationVar(&cfg.ckptIvl, "checkpoint-every", 0, "background checkpoint interval (requires -data-dir; 0 disables)")
	flag.StringVar(&cfg.join, "join", "", "coordinator URL: run as a cluster worker instead of a standalone daemon")
	flag.StringVar(&cfg.advertise, "advertise", "", "URL the coordinator reaches this worker at (default derived from -addr)")
	flag.Parse()

	if err := cfg.validate(); err != nil {
		log.Fatal(err)
	}

	opts := []aujoin.Option{aujoin.WithMeasures(cfg.measures)}
	if cfg.synPath != "" {
		f, err := os.Open(cfg.synPath)
		if err != nil {
			log.Fatalf("open synonyms: %v", err)
		}
		opts = append(opts, aujoin.WithSynonymsFrom(f))
		defer f.Close()
	}
	if cfg.taxPath != "" {
		f, err := os.Open(cfg.taxPath)
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

	// The listener comes up before the index does: /healthz answers the
	// moment the socket is bound, /readyz flips to 200 when recovery (or
	// cluster configuration) completes. A restarting durable daemon is
	// reachable-but-not-ready during WAL replay instead of invisible.
	var node *cluster.Node
	var worker *cluster.Worker
	if cfg.join != "" {
		worker = cluster.NewWorker(joiner, cfg.shards)
		node = cluster.NewWorkerNode(worker)
	} else {
		node = cluster.NewNode()
	}

	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           node.Mux(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if worker != nil {
		// Shutdown does not track the hijacked connections the coordinator's
		// group reads arrive on; the worker closes them itself.
		httpSrv.RegisterOnShutdown(worker.Close)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("serving on %s", cfg.addr)

	var px *aujoin.PersistentIndex
	ready := make(chan struct{}) // closed once recovery publishes px (or immediately in worker mode)
	if cfg.join != "" {
		close(ready)
		self := cfg.advertiseURL()
		go func() {
			if err := cluster.RegisterWorker(ctx, http.DefaultClient, strings.TrimRight(cfg.join, "/"), self); err != nil {
				if ctx.Err() == nil {
					log.Printf("register with %s: %v", cfg.join, err)
				}
				return
			}
			log.Printf("registered with %s as %s", cfg.join, self)
		}()
	} else {
		go func() {
			defer close(ready)
			var records []string
			if cfg.catalog != "" {
				if records, err = cmdutil.ReadLines(cfg.catalog); err != nil {
					log.Fatalf("read catalog: %v", err)
				}
			}
			start := time.Now()
			jopts := aujoin.JoinOptions{Theta: cfg.theta, Tau: cfg.tau, Filter: cmdutil.ParseFilter(cfg.filter)}
			iopts := aujoin.IndexOptions{Shards: cfg.shards}
			var ix *aujoin.Index
			if cfg.dataDir != "" {
				px, err = joiner.OpenPersistent(cfg.dataDir, records, jopts, iopts)
				if err != nil {
					log.Fatalf("open data dir: %v", err)
				}
				ix = px.Index()
				st := ix.Stats()
				log.Printf("recovered %d records (%d live) from %s in %v (θ=%v τ=%d shards=%d)",
					st.Records, st.Live, cfg.dataDir, time.Since(start).Round(time.Millisecond), st.Theta, st.Tau, st.Shards)
			} else {
				ix = joiner.IndexWith(records, jopts, iopts)
				log.Printf("indexed %d records in %v (θ=%v τ=%d shards=%d)",
					len(records), time.Since(start).Round(time.Millisecond), cfg.theta, cfg.tau, ix.Stats().Shards)
			}
			node.SetBackend(&cluster.Backend{IX: ix, PX: px})
		}()

		if cfg.ckptIvl > 0 {
			go func() {
				<-ready
				if px == nil {
					return
				}
				ticker := time.NewTicker(cfg.ckptIvl)
				defer ticker.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case <-ticker.C:
						start := time.Now()
						if err := px.Checkpoint(); err != nil {
							// Sticky store failure: further mutations are refused
							// anyway, so log loudly and keep serving reads.
							log.Printf("background checkpoint: %v", err)
							return
						}
						log.Printf("checkpointed in %v", time.Since(start).Round(time.Millisecond))
					}
				}
			}()
		}
	}

	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	log.Print("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	<-ready // px is published before ready closes (a failed recovery exits via log.Fatalf)
	if px != nil {
		// One final checkpoint folds the WAL so the next start restores a
		// compact snapshot instead of replaying the whole mutation log.
		if err := px.Checkpoint(); err != nil {
			log.Printf("final checkpoint: %v", err)
		}
		if err := px.Close(); err != nil {
			log.Printf("close data dir: %v", err)
		}
	}
}

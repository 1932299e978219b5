package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/store"
)

// recoverConfig parameterises the crash-recovery benchmark (the "recover"
// experiment): build a sharded index cold from a MED-like corpus, mutate it,
// write a durable snapshot, restore a second index from that snapshot, and
// compare the wall time of the two paths. The restored index is then checked
// for bit-identical top-k answers against the original — a mismatch is fatal,
// which is what makes this runnable as a CI recovery smoke.
type recoverConfig struct {
	Records int     // catalog size built cold and snapshotted
	Shards  int     // index partitions (0 = GOMAXPROCS)
	Theta   float64 // similarity threshold
	Tau     int     // overlap constraint
	Probes  int     // equivalence-check query count
	Dir     string  // snapshot directory; empty = a fresh temp dir
	Seed    int64
}

type recoverResult struct {
	cfg       recoverConfig
	coldBuild time.Duration // generate-free wall time of BuildShardedIndex
	capture   time.Duration // capture + encode + write + sync
	restore   time.Duration // read + decode + restore
	snapBytes int64
	probes    int
	matches   int
}

func (r recoverResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery: %d records, %d shards, θ=%.2f τ=%d (seed %d)\n",
		r.cfg.Records, r.cfg.Shards, r.cfg.Theta, r.cfg.Tau, r.cfg.Seed)
	fmt.Fprintf(&b, "cold build:       %v\n", r.coldBuild.Round(time.Millisecond))
	fmt.Fprintf(&b, "snapshot write:   %v (%d bytes, %.1f B/record)\n",
		r.capture.Round(time.Millisecond), r.snapBytes, float64(r.snapBytes)/float64(r.cfg.Records))
	fmt.Fprintf(&b, "snapshot restore: %v (%.1f%% of cold build)\n",
		r.restore.Round(time.Millisecond), 100*float64(r.restore)/float64(r.coldBuild))
	fmt.Fprintf(&b, "equivalence:      ok (%d top-k probes, %d matches, bit-identical)\n", r.probes, r.matches)
	return b.String()
}

// runRecover builds, snapshots, restores and verifies. Any divergence between
// the original and restored indexes — or any I/O failure — exits non-zero.
func runRecover(cfg recoverConfig) fmt.Stringer {
	gen := datagen.New(datagen.MEDLike(cfg.Records, cfg.Seed))
	ds := gen.Generate()
	j := join.NewJoiner(ds.Context())
	opts := join.Options{Theta: cfg.Theta, Tau: cfg.Tau, Method: pebble.AUDP}

	buildStart := time.Now()
	sx := j.BuildShardedIndex(ds.S, cfg.Shards, opts, join.DynamicOptions{})
	coldBuild := time.Since(buildStart)

	// Mutate before snapshotting so the image carries a dynamic intern
	// region, delta segments and tombstones, not just the frozen build.
	insert := make([]string, 0, 64)
	for i := 0; i < len(ds.T) && i < 64; i++ {
		insert = append(insert, ds.T[i].Raw)
	}
	ids := sx.InsertBatch(insert)
	if len(ids) > 4 {
		sx.RemoveBatch(ids[:4])
	}

	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "aujoin-recover-*")
		if err != nil {
			log.Fatalf("recover: temp dir: %v", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	path := filepath.Join(dir, "recover.aujs")

	captureStart := time.Now()
	data := sx.CaptureSnapshot().Encode()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("recover: write snapshot: %v", err)
	}
	capture := time.Since(captureStart)

	restoreStart := time.Now()
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("recover: read snapshot: %v", err)
	}
	snap, err := store.Decode(raw)
	if err != nil {
		log.Fatalf("recover: decode snapshot: %v", err)
	}
	restored, err := join.NewJoiner(ds.Context()).RestoreShardedIndex(snap, join.DynamicOptions{})
	if err != nil {
		log.Fatalf("recover: restore: %v", err)
	}
	restore := time.Since(restoreStart)

	// Equivalence: the restored index must answer top-k probes bit-identically
	// (same IDs, same similarities, same order) to the one it was cut from.
	want, got := sx.Snapshot(), restored.Snapshot()
	probes := cfg.Probes
	if probes > len(ds.T) {
		probes = len(ds.T)
	}
	matches := 0
	for i := 0; i < probes; i++ {
		a, _ := want.QueryTopKCtx(context.Background(), ds.T[i].Tokens, 10, join.QueryOpts{})
		b, _ := got.QueryTopKCtx(context.Background(), ds.T[i].Tokens, 10, join.QueryOpts{})
		if !reflect.DeepEqual(a, b) {
			log.Fatalf("recover: restored index diverged on probe %d: original %v, restored %v", i, a, b)
		}
		matches += len(a)
	}

	return recoverResult{
		cfg:       cfg,
		coldBuild: coldBuild,
		capture:   capture,
		restore:   restore,
		snapBytes: int64(len(data)),
		probes:    probes,
		matches:   matches,
	}
}

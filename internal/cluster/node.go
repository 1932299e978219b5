package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"github.com/aujoin/aujoin"
)

// Node is the aujoind data plane: the serving surface of surface.go mounted
// over either a single local index (classic aujoind) or a cluster worker's
// per-group indexes (worker mode, -join). The daemon binary is reduced to
// flag parsing and lifecycle; the protocol is written once, so the
// single-node, worker and coordinator paths cannot drift apart on it.
//
// In single-node mode the backend is attached asynchronously: the listener
// comes up first, /healthz answers immediately (liveness), and /readyz
// flips to 200 only once SetBackend delivers the recovered index — the
// load-balancer-facing readiness gap the split exists to close.
type Node struct {
	be atomic.Pointer[Backend]
	w  *Worker
}

// NewNode builds a single-node data plane with no backend yet; the node
// serves 503 on everything but /healthz until SetBackend.
func NewNode() *Node { return &Node{} }

// NewWorkerNode builds a cluster-worker data plane around w.
func NewWorkerNode(w *Worker) *Node { return &Node{w: w} }

// SetBackend attaches the recovered single-node index, flipping readiness.
func (n *Node) SetBackend(b *Backend) { n.be.Store(b) }

// Mux returns the node's route table: the public surface, plus the
// /cluster/* protocol in worker mode.
func (n *Node) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	if n.w != nil {
		mount(mux, n.w)
		n.w.register(mux)
	} else {
		mount(mux, n)
	}
	return mux
}

// backend is the attached Backend, or the not-ready refusal while recovery
// is still running.
func (n *Node) backend() (*Backend, error) {
	if be := n.be.Load(); be != nil {
		return be, nil
	}
	return nil, notReady("index is recovering")
}

func (n *Node) resolve(group, _ string, _ bool) (target, error) {
	be, err := n.backend()
	if err != nil {
		return nil, err
	}
	if group != "" {
		return nil, badRequest("group addressing requires worker mode (-join)")
	}
	return be, nil
}

// readyz: a single-node daemon is ready once snapshot/WAL recovery
// delivered its index.
func (n *Node) readyz() (any, error) {
	_, err := n.backend()
	return Heartbeat{Ready: true}, err
}

func (n *Node) stats() (any, error) {
	be, err := n.backend()
	if err != nil {
		return nil, err
	}
	return be.IX.Stats(), nil
}

// Backend is a serving target over one local index: the index, plus the
// durable wrapper when the daemon runs with -data-dir (mutations then route
// through the WAL). Its methods are the only place that choice is made.
type Backend struct {
	IX *aujoin.Index
	PX *aujoin.PersistentIndex
}

func (b *Backend) topK(ctx context.Context, q string, opts aujoin.QueryOptions) ([]aujoin.QueryMatch, error) {
	matches, err := b.IX.QueryTopKCtx(ctx, q, opts)
	if errors.Is(err, aujoin.ErrThetaBelowBuild) {
		return nil, thetaBelowBuild(b.IX.Stats().Theta)
	}
	return matches, err
}

func (b *Backend) probe(ctx context.Context, records []string, emit func(ProbeMatch) error) error {
	for m, err := range b.IX.ProbeSeq(ctx, records) {
		if err != nil {
			return err
		}
		if err := emit(m); err != nil {
			return err
		}
	}
	return nil
}

func (b *Backend) insert(_ context.Context, records []string) ([]int, error) {
	if b.PX == nil {
		return b.IX.Insert(records), nil
	}
	ids, err := b.PX.Insert(records)
	if err != nil {
		return nil, fmt.Errorf("durable insert: %w", err)
	}
	return ids, nil
}

func (b *Backend) remove(_ context.Context, ids []int) ([]bool, error) {
	if b.PX == nil {
		return b.IX.RemoveBatch(ids), nil
	}
	removed, err := b.PX.RemoveBatch(ids)
	if err != nil {
		return nil, fmt.Errorf("durable remove: %w", err)
	}
	return removed, nil
}

func (b *Backend) checkpoint() error {
	if b.PX == nil {
		return badRequest("daemon is not durable: start with -data-dir to enable snapshots")
	}
	if err := b.PX.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

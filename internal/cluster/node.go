package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/cmdutil"
)

// Node is the aujoind HTTP data plane: the full serving surface (/query,
// /probe, mutations, /stats, /snapshot, /healthz, /readyz) over either a
// single local index (classic aujoind) or a set of per-group cluster
// indexes (worker mode, -join). The daemon binary is reduced to flag
// parsing and lifecycle; every handler lives here so the single-node and
// worker paths cannot drift apart on protocol details.
//
// In single-node mode the backend is attached asynchronously: the listener
// comes up first, /healthz answers immediately (liveness), and /readyz
// flips to 200 only once SetBackend delivers the recovered index — the
// load-balancer-facing readiness gap the split exists to close.
type Node struct {
	be atomic.Pointer[Backend]
	w  *Worker
}

// Backend is a single-node serving target: the index, plus the durable
// wrapper when the daemon runs with -data-dir (mutations then route
// through the WAL).
type Backend struct {
	IX *aujoin.Index
	PX *aujoin.PersistentIndex
}

// NewNode builds a single-node data plane with no backend yet; the node
// serves 503 on everything but /healthz until SetBackend.
func NewNode() *Node { return &Node{} }

// NewWorkerNode builds a cluster-worker data plane around w.
func NewWorkerNode(w *Worker) *Node { return &Node{w: w} }

// SetBackend attaches the recovered single-node index, flipping readiness.
func (n *Node) SetBackend(b *Backend) { n.be.Store(b) }

// maxBodyBytes caps POST bodies (an insert batch has no business being
// larger) and maxTopK caps the per-query result heap, so a single request
// cannot balloon the daemon's memory.
const (
	maxBodyBytes = 8 << 20
	maxTopK      = 10000
)

// MaxTopK is the protocol's per-query k cap, shared with the coordinator.
const MaxTopK = maxTopK

// Mux returns the node's route table.
func (n *Node) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", n.handleQuery)
	mux.HandleFunc("/probe", n.handleProbe)
	mux.HandleFunc("/insert", n.handleInsert)
	mux.HandleFunc("/remove", n.handleRemove)
	mux.HandleFunc("/remove-batch", n.handleRemoveBatch)
	mux.HandleFunc("/snapshot", n.handleSnapshot)
	mux.HandleFunc("/stats", n.handleStats)
	mux.HandleFunc("/healthz", handleHealthz)
	mux.HandleFunc("/readyz", n.handleReadyz)
	if n.w != nil {
		n.w.register(mux)
	}
	return mux
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// Recovery state is /readyz's business.
func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports whether this node can serve correct answers now: a
// single-node daemon is ready once snapshot/WAL recovery delivered its
// index, a worker once the coordinator configured it (and, across epoch
// bumps, stays ready — adoption never blocks reads). Workers answer with
// their Heartbeat body, which doubles as the coordinator's health-check
// payload.
func (n *Node) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if n.w != nil {
		hb, ready := n.w.heartbeat()
		if !ready {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(hb)
			return
		}
		writeJSON(w, hb)
		return
	}
	if n.be.Load() == nil {
		writeError(w, http.StatusServiceUnavailable, ErrorBody{Error: "recovering", Code: "not_ready"})
		return
	}
	writeJSON(w, Heartbeat{Ready: true})
}

// resolve picks the index a read request addresses, writing the HTTP error
// and returning false when it cannot: not ready yet, a stale epoch stamp,
// or a group this node does not host.
func (n *Node) resolve(w http.ResponseWriter, r *http.Request) (*aujoin.Index, bool) {
	if n.w != nil {
		return n.w.resolve(w, r)
	}
	be := n.be.Load()
	if be == nil {
		writeError(w, http.StatusServiceUnavailable, ErrorBody{Error: "index is recovering", Code: "not_ready"})
		return nil, false
	}
	if r.URL.Query().Get("group") != "" {
		writeError(w, http.StatusBadRequest, ErrorBody{Error: "group addressing requires worker mode (-join)"})
		return nil, false
	}
	return be.IX, true
}

// ParseQueryOptions validates the /query parameters shared by the worker,
// single-node and coordinator paths: k is required in [1, MaxTopK], min_sim
// optional in (0, 1] (a value below the index's build θ is rejected later,
// by the index). The error text is the client-facing 400 body.
func ParseQueryOptions(r *http.Request) (aujoin.QueryOptions, error) {
	var opts aujoin.QueryOptions
	// A missing or non-positive k is rejected rather than passed through: an
	// unbounded "all matches" response is never what a serving client wants,
	// and silently treating k=0 as "everything" made the degenerate case the
	// most expensive one.
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil || k < 1 || k > maxTopK {
		return opts, fmt.Errorf("k is required and must be an integer in [1, %d]", maxTopK)
	}
	opts.K = k
	if raw := r.URL.Query().Get("min_sim"); raw != "" {
		minSim, err := strconv.ParseFloat(raw, 64)
		// Written as a negated range check so NaN, which ParseFloat accepts
		// and every comparison answers false for, is rejected too.
		if err != nil || !(minSim > 0 && minSim <= 1) {
			return opts, fmt.Errorf("min_sim must be a float in (0, 1]")
		}
		opts.MinSimilarity = minSim
	}
	return opts, nil
}

func (n *Node) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	opts, err := ParseQueryOptions(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ix, ok := n.resolve(w, r)
	if !ok {
		return
	}
	matches, err := ix.QueryTopKCtx(r.Context(), q, opts)
	if errors.Is(err, aujoin.ErrThetaBelowBuild) {
		writeThetaBelowBuild(w, ix.Stats().Theta)
		return
	}
	if err != nil {
		// The request context cancelled the fan-out mid-verification: the
		// client disconnected or timed out, there is no one left to tell,
		// so the handler just stops.
		return
	}
	nw := cmdutil.NewNDJSONWriter(w)
	for _, m := range matches {
		if nw.Write(m) != nil {
			return
		}
	}
}

// handleProbe joins a batch of records against the current snapshot and
// streams each match as an NDJSON line the moment the parallel verify stage
// confirms it — the response starts before the join finishes, peak match
// buffering stays bounded by the worker count, and a client hanging up
// mid-stream cancels the remaining filter-and-verify work via the request
// context.
func (n *Node) handleProbe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req ProbeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	ix, ok := n.resolve(w, r)
	if !ok {
		return
	}
	nw := cmdutil.NewNDJSONWriter(w)
	for m, err := range ix.ProbeSeq(r.Context(), req.Records) {
		if err != nil {
			// Cancelled (client gone or deadline passed) mid-join; the
			// pipeline has already stopped, and an NDJSON stream has no
			// in-band error channel worth inventing for a dead client.
			return
		}
		if nw.Write(ProbeMatch{S: m.S, T: m.T, Similarity: m.Similarity}) != nil {
			return
		}
	}
}

// rejectWorkerMutation fends direct mutations off a cluster worker: every
// write must flow through the coordinator's sequencing, or replicas
// diverge.
func (n *Node) rejectWorkerMutation(w http.ResponseWriter) bool {
	if n.w == nil {
		return false
	}
	writeError(w, http.StatusForbidden, ErrorBody{
		Error: "worker mode: mutations go through the coordinator", Code: "worker_mode",
	})
	return true
}

// singleBackend resolves the single-node backend for a mutation, writing
// 503 while recovery is still running.
func (n *Node) singleBackend(w http.ResponseWriter) (*Backend, bool) {
	be := n.be.Load()
	if be == nil {
		writeError(w, http.StatusServiceUnavailable, ErrorBody{Error: "index is recovering", Code: "not_ready"})
		return nil, false
	}
	return be, true
}

func (n *Node) handleInsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if n.rejectWorkerMutation(w) {
		return
	}
	var req InsertRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	be, ok := n.singleBackend(w)
	if !ok {
		return
	}
	var ids []int
	if be.PX != nil {
		var err error
		if ids, err = be.PX.Insert(req.Records); err != nil {
			http.Error(w, "durable insert: "+err.Error(), http.StatusInternalServerError)
			return
		}
	} else {
		ids = be.IX.Insert(req.Records)
	}
	if ids == nil {
		ids = []int{}
	}
	writeJSON(w, InsertResponse{IDs: ids})
}

func (n *Node) handleRemove(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if n.rejectWorkerMutation(w) {
		return
	}
	var req RemoveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	be, ok := n.singleBackend(w)
	if !ok {
		return
	}
	var removed bool
	if be.PX != nil {
		var err error
		if removed, err = be.PX.Remove(req.ID); err != nil {
			http.Error(w, "durable remove: "+err.Error(), http.StatusInternalServerError)
			return
		}
	} else {
		removed = be.IX.Remove(req.ID)
	}
	writeJSON(w, RemoveResponse{Removed: removed})
}

func (n *Node) handleRemoveBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if n.rejectWorkerMutation(w) {
		return
	}
	var req RemoveBatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	be, ok := n.singleBackend(w)
	if !ok {
		return
	}
	var removed []bool
	if be.PX != nil {
		var err error
		if removed, err = be.PX.RemoveBatch(req.IDs); err != nil {
			http.Error(w, "durable remove: "+err.Error(), http.StatusInternalServerError)
			return
		}
	} else {
		removed = be.IX.RemoveBatch(req.IDs)
	}
	if removed == nil {
		removed = []bool{}
	}
	count := 0
	for _, ok := range removed {
		if ok {
			count++
		}
	}
	writeJSON(w, RemoveBatchResponse{Removed: removed, RemovedCount: count})
}

// handleSnapshot folds the WAL into a new durable snapshot generation on
// demand. Mutations stall for the duration of the checkpoint; queries do
// not.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if n.w != nil {
		writeError(w, http.StatusBadRequest, ErrorBody{Error: "worker mode is not durable", Code: "worker_mode"})
		return
	}
	be, ok := n.singleBackend(w)
	if !ok {
		return
	}
	if be.PX == nil {
		http.Error(w, "daemon is not durable: start with -data-dir to enable snapshots", http.StatusBadRequest)
		return
	}
	if err := be.PX.Checkpoint(); err != nil {
		http.Error(w, "checkpoint: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, SnapshotResponse{Checkpointed: true})
}

func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if n.w != nil {
		writeJSON(w, n.w.stats())
		return
	}
	be, ok := n.singleBackend(w)
	if !ok {
		return
	}
	writeJSON(w, be.IX.Stats())
}

package cluster

import "github.com/aujoin/aujoin"

// Wire types of the cluster protocol. Everything is JSON over HTTP; query
// and probe results stream as NDJSON in the PR 5 wire format (one
// aujoin.QueryMatch / ProbeMatch per line), so the coordinator's
// scatter-gather speaks the exact protocol a single aujoind already
// serves.

// EpochHeader stamps coordinator-originated requests with the
// coordinator's current order epoch. A worker whose epoch disagrees
// answers 409 with an ErrorBody naming code "epoch_mismatch"; the
// coordinator re-stamps and retries, or fails the worker over.
const EpochHeader = "X-Aujoin-Epoch"

// ErrorBody is the JSON shape every failed request is answered in, on every
// route of a standalone daemon, a worker and the coordinator (writeErr).
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	// Epoch is the responder's current epoch on code "epoch_mismatch".
	Epoch int64 `json:"epoch,omitempty"`
	// Theta is the index's build threshold on code "theta_below_build": the
	// lowest min_sim the index can answer exactly.
	Theta float64 `json:"theta,omitempty"`
}

// RegisterRequest is a worker announcing itself to the coordinator.
type RegisterRequest struct {
	Addr string `json:"addr"`
}

// RegisterResponse acknowledges a registration. Configured reports whether
// the cluster has bootstrapped (the worker will have received its config).
type RegisterResponse struct {
	Accepted   bool `json:"accepted"`
	Configured bool `json:"configured"`
}

// ConfigRequest is the coordinator pushing cluster membership and build
// parameters to one worker at bootstrap. The worker builds one empty index
// per replica group it hosts and becomes ready.
type ConfigRequest struct {
	Workers  []string `json:"workers"` // advertise addresses, by worker index
	Self     int      `json:"self"`    // this worker's index
	Replicas int      `json:"replicas"`
	Epoch    int64    `json:"epoch"`
	Theta    float64  `json:"theta"`
	Tau      int      `json:"tau"`
	Filter   string   `json:"filter"` // cmdutil.ParseFilter spelling: u, heuristic, dp
}

// ApplyRequest is one sequenced mutation batch for one replica group:
// inserts with coordinator-assigned stable IDs, then removes. Seq must be
// exactly the group's last applied sequence plus one; a replayed (≤ last)
// sequence is acknowledged without re-applying, a gap is a 409.
type ApplyRequest struct {
	Epoch   int64    `json:"epoch"`
	Group   int      `json:"group"`
	Seq     uint64   `json:"seq"`
	IDs     []int    `json:"ids,omitempty"`
	Records []string `json:"records,omitempty"`
	Removes []int    `json:"removes,omitempty"`
}

// ApplyResponse acknowledges an ApplyRequest. Removed reports, per entry of
// Removes, whether the record was present and live (identical across
// replicas, since replica indexes are identical).
type ApplyResponse struct {
	Applied bool   `json:"applied"`
	Removed []bool `json:"removed,omitempty"`
}

// BuildOrderRequest asks the elected builder worker to construct the next
// global frozen order: fetch the per-group key-frequency tables from the
// given sources (one live replica per group — groups partition the record
// space, so the tables sum to the global frequencies), merge them, and
// return the finalize-ordered image.
type BuildOrderRequest struct {
	Epoch   int64        `json:"epoch"`
	Sources []FreqSource `json:"sources"`
}

// FreqSource names one group and a live replica to read its table from.
type FreqSource struct {
	Group int    `json:"group"`
	Addr  string `json:"addr"`
}

// OrderPayload carries a frozen-order image: the prepare phase of an epoch
// bump ships it to every worker (POST /cluster/adopt), and the builder
// returns it from /cluster/build-order. Epoch is the epoch being prepared.
type OrderPayload struct {
	Epoch int64             `json:"epoch"`
	Order aujoin.OrderImage `json:"order"`
}

// CommitRequest flips a worker's epoch to the prepared value — phase two of
// the bump, after every ready worker has adopted the order.
type CommitRequest struct {
	Epoch int64 `json:"epoch"`
}

// Heartbeat is a worker's /readyz body: readiness, its current epoch, the
// interned-key split of its order (the coordinator's auto-bump trigger
// watches the dynamic region), and per-group applied sequence numbers
// (keyed by decimal group index; the coordinator readmits a suspect worker
// only when these match its own).
type Heartbeat struct {
	Ready       bool              `json:"ready"`
	Epoch       int64             `json:"epoch"`
	FrozenKeys  int               `json:"frozen_keys"`
	DynamicKeys int               `json:"dynamic_keys"`
	Groups      map[string]uint64 `json:"groups,omitempty"`
}

// ProbeRequest is the body of POST /probe, single-node and cluster alike.
type ProbeRequest struct {
	Records []string `json:"records"`
}

// ProbeMatch is one streamed probe result line: the stable ID of the
// matched catalog record, the position of the probe record in the request
// batch, and their unified similarity.
type ProbeMatch = aujoin.Match

// InsertRequest / InsertResponse are the /insert body shapes.
type InsertRequest struct {
	Records []string `json:"records"`
}

type InsertResponse struct {
	IDs []int `json:"ids"`
}

// RemoveRequest / RemoveResponse are the /remove body shapes.
type RemoveRequest struct {
	ID int `json:"id"`
}

type RemoveResponse struct {
	Removed bool `json:"removed"`
}

// RemoveBatchRequest / RemoveBatchResponse are the /remove-batch shapes.
type RemoveBatchRequest struct {
	IDs []int `json:"ids"`
}

type RemoveBatchResponse struct {
	// Removed reports, positionally for each requested id, whether it was
	// present and live; RemovedCount totals the true entries.
	Removed      []bool `json:"removed"`
	RemovedCount int    `json:"removed_count"`
}

// SnapshotResponse is the POST /snapshot acknowledgement.
type SnapshotResponse struct {
	Checkpointed bool `json:"checkpointed"`
}

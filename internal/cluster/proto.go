package cluster

import (
	"encoding/json"

	"github.com/aujoin/aujoin"
)

// Wire types of the cluster protocol. The public routes and the control
// plane (registration, configuration, sequenced applies, the epoch bump's
// order exchange, heartbeats) are JSON over HTTP, and query and probe results
// reach clients as NDJSON (one aujoin.QueryMatch / ProbeMatch per line), the
// same from a single aujoind, a worker and the coordinator. The coordinator's
// own group reads alone travel as binary frames on pooled connections
// (frames.go).

// EpochHeader names a header a client may stamp a worker read with: the
// reader's order epoch. Every host accepts and ignores it — a worker that
// missed a bump is fenced by its heartbeat (Coordinator.checkHealth), not by
// its reads.
const EpochHeader = "X-Aujoin-Epoch"

// ErrorBody is the JSON shape every failed request is answered in, on every
// route of a standalone daemon, a worker and the coordinator (writeErr).
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	// Theta is the index's build threshold on code "theta_below_build": the
	// lowest min_sim the index can answer exactly.
	Theta float64 `json:"theta,omitempty"`
}

// RegisterRequest is a worker announcing itself to the coordinator.
type RegisterRequest struct {
	Addr string `json:"addr"`
}

// RegisterResponse answers a registration. Accepted reports whether the
// address is a member: already registered, or admitted now while places were
// left — a worker past the expected count is refused and will never be
// configured. Configured reports whether the cluster has bootstrapped (the
// worker will have received its config).
type RegisterResponse struct {
	Accepted   bool `json:"accepted"`
	Configured bool `json:"configured"`
}

// ConfigRequest is the coordinator pushing cluster membership and build
// parameters to one worker at bootstrap. The worker builds one empty index
// per replica group it hosts and becomes ready; the seed chunks that follow
// (ApplyRequest.Seed) and the bootstrap's order replace each with the index
// over the group's share of the catalog.
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
//
// Seed marks one chunk of the bootstrap seed instead: its records are
// staged, not inserted, and the chunk marked Last prepares every staged
// record at once and counts their keys; the group's index is built under
// the first order the group adopts after it. A seed chunk is sequenced like any
// batch, so a replica that misses one is taken out by the same gap rule.
// The seed comes first: a seed chunk after the last one, after an ordinary
// batch or after an order adoption is refused with a 400, and so is an
// ordinary batch between the last chunk and that order.
type ApplyRequest struct {
	Group   int      `json:"group"`
	Seq     uint64   `json:"seq"`
	IDs     []int    `json:"ids,omitempty"`
	Records []string `json:"records,omitempty"`
	Removes []int    `json:"removes,omitempty"`
	Seed    bool     `json:"seed,omitempty"`
	Last    bool     `json:"last,omitempty"`
}

// ApplyResponse acknowledges an ApplyRequest. Removed reports, per entry of
// Removes, whether the record was present and live (identical across
// replicas, since replica indexes are identical). Order is the group's
// key-frequency table, an aujoin.OrderImage, on the acknowledgement of the
// last seed chunk: the bootstrap merges one a group into the cluster's first
// order. It stays raw until then, so the coordinator decodes one table a
// group, not one a replica.
type ApplyResponse struct {
	Applied bool            `json:"applied"`
	Removed []bool          `json:"removed,omitempty"`
	Order   json.RawMessage `json:"order,omitempty"`
}

// OrderPayload carries a frozen-order image: an epoch bump, and the
// bootstrap's order step, ship the image the coordinator merged from every
// group's table to every worker (POST /cluster/adopt). Epoch is the epoch
// the adopt moves the worker to.
type OrderPayload struct {
	Epoch int64             `json:"epoch"`
	Order aujoin.OrderImage `json:"order"`
}

// Heartbeat is a worker's /readyz body: readiness, the epoch of its last
// adopt, the interned-key split of its order (the coordinator's auto-bump
// trigger watches the dynamic region), and per-group applied sequence
// numbers (keyed by decimal group index; the coordinator readmits a suspect
// worker only when these and the epoch match its own, and takes out a ready
// one whose epoch is behind).
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

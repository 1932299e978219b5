package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/cmdutil"
)

// Worker is the cluster-mode state of an aujoind process: one aujoin.Index
// per replica group it hosts (a worker with R-way replication hosts R group
// indexes), the coordinator-pushed membership, and the order-epoch state
// machine. Workers start with nothing and receive everything — config,
// records, orders — from the coordinator, which is what keeps every replica
// of a group byte-identical: same records, same IDs, same application order,
// same frequency order from every adopt.
type Worker struct {
	joiner *aujoin.Joiner
	shards int

	// epoch is the epoch of the last order this worker adopted, which its
	// heartbeat reports: the coordinator's one fence against a worker that
	// missed a bump (checkHealth). Reads are not fenced — answers are exact
	// under any order.
	epoch atomic.Int64
	ready atomic.Bool
	// adoptMu serializes adopt rounds with releaseSkipped, so a release
	// waits out the adopt it could otherwise overtake.
	adoptMu sync.Mutex

	mu     sync.Mutex
	ring   *Ring
	self   int
	jopts  aujoin.JoinOptions
	groups map[int]*workerGroup

	// The frame connections being served (frames.go), which Close closes.
	fmu     sync.Mutex
	fconns  map[net.Conn]struct{}
	fclosed bool
	// frameHook, when set, sees every decoded frame request, with the
	// request's context, before it is dispatched: it may stall it, rewrite
	// it, or answer it with its error.
	// It is the tests' fault-injection point on the frame path, as a handler
	// wrapper is on the HTTP one.
	frameHook func(context.Context, *frameRequest) error
}

// workerGroup is one hosted replica group: its index — a Backend, the read
// target a request for the group resolves to — and the apply sequencing.
// The group mutex serializes ApplyRequests and adoptions so the sequence
// check and the mutation are atomic; queries never take it. The Backend is
// replaced once, when the first order adoption installs the group's seeded
// share; until then a group serves the empty index config made.
type workerGroup struct {
	be  atomic.Pointer[Backend]
	mu  sync.Mutex
	seq atomic.Uint64
	// seedIDs and seedRecs are the catalog share the bootstrap seed's chunks
	// staged, until the last chunk prepares it; guarded by mu.
	seedIDs  []int
	seedRecs []string
	// pending is the share the last seed chunk prepared and counted, until
	// the first order adoption installs it; guarded by mu.
	pending *aujoin.PendingIndex
	// sealed is set, under mu, once the seed is over: its last chunk
	// arrived, an ordinary batch was applied or an order adopted. A seed
	// chunk after that would replace an index holding writes or an order.
	sealed bool
	// skipped is set, under mu, when releaseSkipped dropped the pending
	// share or the staged chunks of a seed that never ended: the bootstrap
	// published its order without this replica, so the group refuses the seed
	// chunks, adopts and batches that would make it look current.
	skipped bool
}

// ix is the group's index.
func (wg *workerGroup) ix() *aujoin.Index { return wg.be.Load().IX }

// NewWorker builds an unconfigured worker around the joiner (which carries
// the locally configured synonym/taxonomy/measure resources — those must
// match across the cluster, exactly as they must match across restarts of a
// durable daemon). shards is the per-group index partition count.
func NewWorker(joiner *aujoin.Joiner, shards int) *Worker {
	return &Worker{joiner: joiner, shards: shards}
}

// register mounts the worker-only protocol endpoints.
func (wk *Worker) register(mux *http.ServeMux) {
	mux.HandleFunc("POST /cluster/config", rpc(maxBodyBytes, wk.config))
	mux.HandleFunc("POST /cluster/apply", rpc(maxBodyBytes, wk.apply))
	mux.HandleFunc("GET /cluster/freqs", func(w http.ResponseWriter, r *http.Request) {
		var img aujoin.OrderImage
		g, err := parseGroup(r.URL.Query().Get("group"))
		if err == nil {
			img, err = wk.freqs(g)
		}
		answer(w, img, err)
	})
	mux.HandleFunc("POST /cluster/adopt", rpc(maxOrderBytes, wk.adopt))
	mux.HandleFunc("GET "+framesPath, wk.frames)
}

// ack is the body of a protocol call that has nothing to report.
var ack = map[string]bool{"ok": true}

// RegisterWorker announces a worker to the coordinator, retrying until the
// coordinator answers or ctx ends. It fails when the coordinator answers that
// it did not admit the worker: every expected worker has already registered,
// so this one would never be configured. Configuration arrives by push once
// every expected worker has registered.
func RegisterWorker(ctx context.Context, client *http.Client, coordURL, selfAddr string) error {
	if client == nil {
		client = http.DefaultClient
	}
	var resp RegisterResponse
	for call(ctx, client, coordURL+"/cluster/register", RegisterRequest{Addr: selfAddr}, &resp) != nil {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(300 * time.Millisecond):
		}
	}
	if !resp.Accepted {
		return fmt.Errorf("coordinator %s did not admit %s: every worker place is taken", coordURL, selfAddr)
	}
	return nil
}

// readyz is the worker's Heartbeat, which doubles as the coordinator's
// health-check payload: the epoch of its last adopt, per-group applied
// sequences, and the interned-key split summed over the hosted groups (the
// coordinator's auto-bump trigger watches the dynamic region's growth). A
// worker is ready once the coordinator configured it and, across epoch
// bumps, stays ready — adoption never blocks reads. The coordinator's
// health check passes its epoch as ?epoch=, which releaseSkipped reads.
func (wk *Worker) readyz(q url.Values) (any, error) {
	if !wk.ready.Load() {
		return nil, notReady("worker is not configured yet")
	}
	if e, err := strconv.ParseInt(q.Get("epoch"), 10, 64); err == nil {
		wk.releaseSkipped(e)
	}
	hb := Heartbeat{Ready: true, Epoch: wk.epoch.Load()}
	wk.mu.Lock()
	groups := make(map[int]*workerGroup, len(wk.groups))
	for g, wg := range wk.groups {
		groups[g] = wg
	}
	wk.mu.Unlock()
	hb.Groups = make(map[string]uint64, len(groups))
	for g, wg := range groups {
		hb.Groups[strconv.Itoa(g)] = wg.seq.Load()
		st := wg.ix().Stats()
		hb.FrozenKeys += st.FrozenKeys
		hb.DynamicKeys += st.DynamicKeys
	}
	return hb, nil
}

// stats is the worker-mode /stats body.
func (wk *Worker) stats() (any, error) {
	out := map[string]any{
		"ready": wk.ready.Load(),
		"epoch": wk.epoch.Load(),
	}
	wk.mu.Lock()
	defer wk.mu.Unlock()
	groups := make(map[string]any, len(wk.groups))
	for g, wg := range wk.groups {
		groups[strconv.Itoa(g)] = map[string]any{"seq": wg.seq.Load(), "index": wg.ix().Stats()}
	}
	out["groups"] = groups
	if wk.ring != nil {
		out["self"] = wk.self
		out["workers"] = wk.ring.Workers()
		out["replicas"] = wk.ring.Replicas()
	}
	return out, nil
}

// resolve maps a read to the hosted group it addresses, after checking
// readiness and the group parameter. A write is refused outright: every
// mutation must flow through the coordinator's sequencing, or replicas
// diverge.
func (wk *Worker) resolve(group string, write bool) (target, error) {
	if write {
		return nil, &apiError{http.StatusForbidden, ErrorBody{
			Error: "worker mode: mutations go through the coordinator", Code: "worker_mode",
		}}
	}
	if !wk.ready.Load() {
		return nil, notReady("worker is not configured yet")
	}
	if group == "" {
		return nil, badRequest("worker mode: group parameter is required")
	}
	g, err := parseGroup(group)
	if err != nil {
		return nil, err
	}
	wg, err := wk.group(g)
	if err != nil {
		return nil, err
	}
	return wg.be.Load(), nil
}

func parseGroup(raw string) (int, error) {
	g, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("group must be an integer")
	}
	return g, nil
}

// group looks a hosted group up.
func (wk *Worker) group(g int) (*workerGroup, error) {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if wg := wk.groups[g]; wg != nil {
		return wg, nil
	}
	return nil, &apiError{http.StatusNotFound, ErrorBody{Error: fmt.Sprintf("group %d is not hosted here", g), Code: "wrong_group"}}
}

// config is the coordinator's bootstrap push: membership, join parameters
// and the initial epoch. The worker builds one empty index per group it
// replicates — the index a group keeps when the catalog gives it no record —
// and becomes ready. A repeated identical push is acknowledged idempotently
// (the coordinator retries on timeouts).
func (wk *Worker) config(_ context.Context, cfg *ConfigRequest) (map[string]bool, error) {
	if len(cfg.Workers) == 0 || cfg.Self < 0 || cfg.Self >= len(cfg.Workers) {
		return nil, badRequest("config: self out of range")
	}
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if wk.ring != nil {
		if wk.ring.Workers() == len(cfg.Workers) && wk.self == cfg.Self {
			return ack, nil
		}
		return nil, &apiError{http.StatusConflict, ErrorBody{Error: "worker is already configured differently"}}
	}
	wk.ring = NewRing(len(cfg.Workers), cfg.Replicas)
	wk.self = cfg.Self
	wk.jopts = aujoin.JoinOptions{Theta: cfg.Theta, Tau: cfg.Tau, Filter: cmdutil.ParseFilter(cfg.Filter)}
	wk.groups = make(map[int]*workerGroup)
	for _, g := range wk.ring.GroupsOf(cfg.Self) {
		wg := &workerGroup{}
		wg.adopt(wk.joiner.IndexWith(nil, wk.jopts, aujoin.IndexOptions{Shards: wk.shards}))
		wk.groups[g] = wg
	}
	wk.epoch.Store(cfg.Epoch)
	wk.ready.Store(true)
	return ack, nil
}

// adopt makes ix the group's index. The order is owned by the coordinator's
// epoch protocol from here on: no local threshold may ever re-freeze it.
func (wg *workerGroup) adopt(ix *aujoin.Index) {
	ix.DisableAutoRefreeze()
	wg.be.Store(&Backend{IX: ix})
}

// apply applies one sequenced mutation batch to one hosted group, or stages
// one chunk of its bootstrap seed. Sequencing makes application idempotent
// and gap-detecting: a replayed sequence acknowledges without re-applying, a
// gap means this replica missed a batch or a seed chunk (it answers 409 and
// the coordinator takes it out — a replica that missed a write must not
// serve). A seed chunk after the group's seed is over (workerGroup.sealed)
// is a 400.
func (wk *Worker) apply(_ context.Context, req *ApplyRequest) (ApplyResponse, error) {
	var none ApplyResponse
	if !wk.ready.Load() {
		return none, notReady("worker is not configured yet")
	}
	wg, err := wk.group(req.Group)
	if err != nil {
		return none, err
	}
	wg.mu.Lock()
	defer wg.mu.Unlock()
	last := wg.seq.Load()
	if req.Seq <= last {
		return none, nil
	}
	if req.Seq != last+1 {
		return none, &apiError{http.StatusConflict, ErrorBody{
			Error: fmt.Sprintf("sequence gap on group %d: have %d, got %d", req.Group, last, req.Seq),
			Code:  "seq_gap",
		}}
	}
	if req.Seed && wg.sealed {
		return none, badRequest(fmt.Sprintf("apply: seed chunk %d for group %d after the group's seed ended", req.Seq, req.Group))
	}
	if !req.Seed && (wg.pending != nil || wg.skipped) {
		return none, badRequest(fmt.Sprintf("apply: batch %d for group %d, whose seed no order installed", req.Seq, req.Group))
	}
	resp := ApplyResponse{Applied: true}
	if req.Seed {
		table, err := wk.stage(wg, req)
		if err != nil {
			return none, err
		}
		resp.Order = table
	} else if len(req.IDs) > 0 {
		if err := wg.ix().InsertWithIDs(req.IDs, req.Records); err != nil {
			return none, fmt.Errorf("apply insert: %w", err)
		}
	}
	if len(req.Removes) > 0 {
		resp.Removed = wg.ix().RemoveBatch(req.Removes)
	}
	if !req.Seed || req.Last {
		wg.sealed = true
	}
	wg.seq.Store(req.Seq)
	return resp, nil
}

// stage adds one seed chunk to the group's staged share. The last chunk
// prepares the whole share at once, as a single node builds its catalog, up
// to the order (aujoin.Joiner.PrepareWithIDs): the records are prepared
// against the group index's dictionary and their keys counted, but nothing
// is frozen or signed. The share waits in wg.pending for the order the
// coordinator merges from every group's table, and stage returns this
// group's table, encoded, for the chunk's acknowledgement. The caller holds
// wg.mu.
func (wk *Worker) stage(wg *workerGroup, req *ApplyRequest) (json.RawMessage, error) {
	if wg.skipped {
		return nil, badRequest(fmt.Sprintf("apply: seed chunk %d for group %d, whose seed the cluster went on without", req.Seq, req.Group))
	}
	wg.seedIDs = append(wg.seedIDs, req.IDs...)
	wg.seedRecs = append(wg.seedRecs, req.Records...)
	if !req.Last {
		return nil, nil
	}
	p, err := wk.joiner.PrepareWithIDs(wg.seedIDs, wg.seedRecs, wk.jopts, aujoin.IndexOptions{Shards: wk.shards})
	if err != nil {
		return nil, fmt.Errorf("seed build: %w", err)
	}
	wg.pending = p
	wg.seedIDs, wg.seedRecs = nil, nil
	return json.Marshal(p.KeyFrequencies())
}

// freqs exports one hosted group's live key-frequency table — what the
// coordinator sums into the next global order during an epoch bump.
func (wk *Worker) freqs(g int) (aujoin.OrderImage, error) {
	wg, err := wk.group(g)
	if err != nil {
		return aujoin.OrderImage{}, err
	}
	return wg.ix().KeyFrequencies(), nil
}

// hosted returns the hosted groups, in no particular order.
func (wk *Worker) hosted() []*workerGroup {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	groups := make([]*workerGroup, 0, len(wk.groups))
	for _, wg := range wk.groups {
		groups = append(groups, wg)
	}
	return groups
}

// releaseSkipped drops the seed of every hosted group whose seed is not
// installed once the coordinator is at an epoch past the worker's — the
// pending share of a group whose last chunk arrived, and the staged chunks
// of a group whose seed never ended (its last chunk had not arrived when
// the worker was taken out): the coordinator moves only after an adopt
// round, so the bootstrap published its order without this replica (its
// last-chunk acknowledgement failed, say), and no later adopt reaches a
// worker whose heartbeat is behind. The share — every prepared record and
// the key count, or every staged record — would otherwise stay on the heap
// for the life of the process. Such a group is marked skipped, and refuses
// the chunks that may still arrive.
// Only a worker behind takes adoptMu, so a heartbeat never waits on an
// adopt the coordinator is still counting on.
func (wk *Worker) releaseSkipped(coordEpoch int64) {
	if coordEpoch <= wk.epoch.Load() {
		return
	}
	wk.adoptMu.Lock()
	defer wk.adoptMu.Unlock()
	if coordEpoch <= wk.epoch.Load() {
		return // the adopt it waited out was the coordinator's round
	}
	for _, wg := range wk.hosted() {
		wg.mu.Lock()
		if wg.pending != nil || !wg.sealed {
			wg.pending, wg.seedIDs, wg.seedRecs, wg.skipped = nil, nil, nil, true
		}
		wg.mu.Unlock()
	}
}

// adopt is an epoch bump on the worker side, and the bootstrap's one order
// step: the shipped global order is restored once, and every hosted group
// takes it, one group at a time (adoptOrder) — a group the seed left
// pending is installed under it, every other group index rebuilt under it;
// reads keep being served from the pre-adoption snapshots throughout. Then
// the worker moves to the payload's epoch. An adopt at the worker's own
// epoch is a replay, acknowledged; one behind it is refused with a 409.
func (wk *Worker) adopt(_ context.Context, payload *OrderPayload) (map[string]bool, error) {
	cur := wk.epoch.Load()
	if payload.Epoch == cur {
		return ack, nil // a replayed adopt
	}
	if payload.Epoch < cur {
		return nil, &apiError{http.StatusConflict, ErrorBody{
			Error: fmt.Sprintf("adopt epoch %d behind the worker's %d", payload.Epoch, cur), Code: "epoch_mismatch",
		}}
	}
	// One restore for every hosted group: each group's order wraps the same
	// frozen value with a dynamic region of its own.
	img, err := payload.Order.Restore()
	if err != nil {
		return nil, fmt.Errorf("adopt order: %w", err)
	}
	wk.adoptMu.Lock()
	defer wk.adoptMu.Unlock()
	for _, wg := range wk.hosted() {
		if err := wg.adoptOrder(img); err != nil {
			return nil, fmt.Errorf("adopt order: %w", err)
		}
	}
	wk.epoch.Store(payload.Epoch)
	return ack, nil
}

// adoptOrder puts the group under the order: a pending seed is installed
// under it — each record signed once, and the staged share released — and
// an index already built re-signs its records under it (AdoptOrder). Either
// way the group's seed is over. A group whose share was released
// (releaseSkipped) refuses: it holds none of its records.
func (wg *workerGroup) adoptOrder(img aujoin.OrderImage) error {
	wg.mu.Lock()
	defer wg.mu.Unlock()
	if wg.skipped {
		return errors.New("the group's seed share was released: the bootstrap went on without this replica")
	}
	wg.sealed = true
	if wg.pending == nil {
		return wg.ix().AdoptOrder(img)
	}
	ix, err := wg.pending.Install(img)
	if err != nil {
		return err
	}
	wg.pending = nil
	wg.adopt(ix)
	return nil
}

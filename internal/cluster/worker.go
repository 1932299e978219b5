package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
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
// same adopted frequency order.
type Worker struct {
	joiner *aujoin.Joiner
	shards int

	// epoch is this worker's committed order epoch; adopted (guarded by mu)
	// is the prepared-but-uncommitted one during a bump's window. Requests
	// stamped with either are served: after adoption the indexes already
	// answer under the new order, and answers are exact under any order —
	// the stamp only exists to fence out workers that missed a bump
	// entirely.
	epoch atomic.Int64
	ready atomic.Bool

	mu      sync.Mutex
	ring    *Ring
	self    int
	jopts   aujoin.JoinOptions
	groups  map[int]*workerGroup
	adopted int64

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
// The group mutex serializes ApplyRequests so the sequence check and the
// mutation are atomic; queries never take it. The Backend is replaced once,
// when the bootstrap seed's last chunk builds the group's index.
type workerGroup struct {
	be  atomic.Pointer[Backend]
	mu  sync.Mutex
	seq atomic.Uint64
	// seedIDs and seedRecs are the catalog share the bootstrap seed's chunks
	// staged, until the last chunk builds the index over it; guarded by mu.
	seedIDs  []int
	seedRecs []string
	// sealed is set, under mu, once the seed is over: its last chunk built
	// the index, an ordinary batch was applied or an order adopted. A seed
	// chunk after that would replace an index holding writes or an order.
	sealed bool
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
	mux.HandleFunc("POST /cluster/commit", rpc(maxBodyBytes, wk.commit))
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
// health-check payload: committed epoch, per-group applied sequences, and
// the interned-key split summed over the hosted groups (the coordinator's
// auto-bump trigger watches the dynamic region's growth). A worker is ready
// once the coordinator configured it and, across epoch bumps, stays ready —
// adoption never blocks reads.
func (wk *Worker) readyz() (any, error) {
	if !wk.ready.Load() {
		return nil, notReady("worker is not configured yet")
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
// readiness, the epoch stamp and the group parameter. A write is refused
// outright: every mutation must flow through the coordinator's sequencing,
// or replicas diverge.
func (wk *Worker) resolve(group, stamp string, write bool) (target, error) {
	if write {
		return nil, &apiError{http.StatusForbidden, ErrorBody{
			Error: "worker mode: mutations go through the coordinator", Code: "worker_mode",
		}}
	}
	if !wk.ready.Load() {
		return nil, notReady("worker is not configured yet")
	}
	// Unstamped requests (direct debugging access) pass the fence.
	if stamp != "" {
		e, err := strconv.ParseInt(stamp, 10, 64)
		if err != nil {
			return nil, badRequest("bad epoch stamp")
		}
		if err := wk.checkEpoch(e); err != nil {
			return nil, err
		}
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

// checkEpoch enforces the order-sync fence: a request stamped with an epoch
// this worker has neither committed nor prepared is answered 409 with the
// worker's committed epoch, telling the coordinator this replica missed a
// bump and must not serve.
func (wk *Worker) checkEpoch(e int64) error {
	cur := wk.epoch.Load()
	if e == cur {
		return nil
	}
	wk.mu.Lock()
	adopted := wk.adopted
	wk.mu.Unlock()
	if adopted != 0 && e == adopted {
		return nil
	}
	return epochMismatch(fmt.Sprintf("epoch mismatch: request %d, worker %d", e, cur), cur)
}

func epochMismatch(msg string, cur int64) error {
	return &apiError{http.StatusConflict, ErrorBody{Error: msg, Code: "epoch_mismatch", Epoch: cur}}
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
	if err := wk.checkEpoch(req.Epoch); err != nil {
		return none, err
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
	if req.Seed {
		if err := wk.stage(wg, req); err != nil {
			return none, err
		}
	} else if len(req.IDs) > 0 {
		if err := wg.ix().InsertWithIDs(req.IDs, req.Records); err != nil {
			return none, fmt.Errorf("apply insert: %w", err)
		}
	}
	var removed []bool
	if len(req.Removes) > 0 {
		removed = wg.ix().RemoveBatch(req.Removes)
	}
	if !req.Seed || req.Last {
		wg.sealed = true
	}
	wg.seq.Store(req.Seq)
	return ApplyResponse{Applied: true, Removed: removed}, nil
}

// stage adds one seed chunk to the group's staged share; the last chunk
// builds the group's index over the whole share at once, as a single node
// builds its catalog (aujoin.Joiner.IndexWithIDs), and replaces the empty
// index config made. The caller holds wg.mu.
func (wk *Worker) stage(wg *workerGroup, req *ApplyRequest) error {
	wg.seedIDs = append(wg.seedIDs, req.IDs...)
	wg.seedRecs = append(wg.seedRecs, req.Records...)
	if !req.Last {
		return nil
	}
	ix, err := wk.joiner.IndexWithIDs(wg.seedIDs, wg.seedRecs, wk.jopts, aujoin.IndexOptions{Shards: wk.shards})
	if err != nil {
		return fmt.Errorf("seed build: %w", err)
	}
	wg.adopt(ix)
	wg.seedIDs, wg.seedRecs = nil, nil
	return nil
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

// adopt is the prepare phase of an epoch bump on the worker side: the hosted
// group indexes are rebuilt under the shipped global order, one group at a
// time — a rolling rebuild; reads keep being served from the pre-adoption
// snapshots throughout. The worker's committed epoch does not change yet;
// the prepared epoch is remembered so requests stamped with it are already
// accepted.
func (wk *Worker) adopt(_ context.Context, payload *OrderPayload) (map[string]bool, error) {
	cur := wk.epoch.Load()
	if payload.Epoch == cur {
		return ack, nil // replayed commit-complete bump
	}
	if payload.Epoch < cur {
		return nil, epochMismatch(fmt.Sprintf("adopt epoch %d behind committed %d", payload.Epoch, cur), cur)
	}
	wk.mu.Lock()
	groups := make([]*workerGroup, 0, len(wk.groups))
	for _, wg := range wk.groups {
		groups = append(groups, wg)
	}
	wk.mu.Unlock()
	for _, wg := range groups {
		wg.mu.Lock()
		wg.sealed = true // an apply staging a seed chunk has finished
		wg.mu.Unlock()
		if err := wg.ix().AdoptOrder(payload.Order); err != nil {
			return nil, fmt.Errorf("adopt order: %w", err)
		}
	}
	wk.mu.Lock()
	wk.adopted = payload.Epoch
	wk.mu.Unlock()
	return ack, nil
}

// commit is phase two: flip the committed epoch to the prepared one.
func (wk *Worker) commit(_ context.Context, req *CommitRequest) (map[string]bool, error) {
	cur := wk.epoch.Load()
	if req.Epoch == cur {
		return ack, nil
	}
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if req.Epoch != wk.adopted {
		return nil, epochMismatch(fmt.Sprintf("commit epoch %d was never prepared (committed %d, prepared %d)", req.Epoch, cur, wk.adopted), cur)
	}
	wk.epoch.Store(req.Epoch)
	wk.adopted = 0
	return ack, nil
}

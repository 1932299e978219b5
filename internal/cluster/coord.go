package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/metrics"
)

// CoordConfig parameterises a Coordinator.
type CoordConfig struct {
	// Workers is the expected membership size; the cluster bootstraps once
	// that many workers have registered (membership is fixed afterwards —
	// worker loss changes availability, never placement).
	Workers int
	// Replicas is the replication factor R (clamped to [1, Workers]).
	Replicas int
	// Theta/Tau/Filter are the join parameters pushed to every worker.
	Theta  float64
	Tau    int
	Filter string
	// Catalog is seeded through the normal sequenced apply path at
	// bootstrap, after which the coordinator runs the first epoch bump so
	// the cluster serves under a properly frozen global order.
	Catalog []string
	// HedgeDelay is how long a group read waits on its first replica before
	// racing the request against a second one (0 = 50ms; < 0 disables
	// hedging).
	HedgeDelay time.Duration
	// Heartbeat is the health-check interval (0 = 500ms).
	Heartbeat time.Duration
	// SyncFraction triggers an automatic epoch bump when any worker's
	// dynamic key region reaches this fraction of its frozen prefix
	// (0 = 1.0, the single-node re-freeze trigger; < 0 disables auto
	// bumps — POST /epoch/bump still works).
	SyncFraction float64
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// Worker health states, tracked per registered worker.
const (
	workerJoining int32 = iota
	workerReady
	workerDown
)

// Coordinator is the cluster's stateless-over-workers control and data
// plane: membership and health, consistent-hash placement, the order-epoch
// state machine, sequenced mutation routing, and scatter-gather serving of
// /query and /probe. It holds no record data — every answer is assembled
// from worker responses — so a lost coordinator is replaced by starting a
// new one against a fresh worker set.
type Coordinator struct {
	cfg    CoordConfig
	client *http.Client

	epoch atomic.Int64
	ready atomic.Bool

	mu      sync.Mutex // membership, ID allocation, bootstrap latch
	workers []*workerRef
	ring    *Ring
	nextID  int
	booted  bool
	bootErr error
	lanes   []*groupLane

	// mutMu orders mutations against epoch bumps: mutations hold it shared,
	// a bump exclusively — so a bump sees a quiescent sequence space and
	// mutations stall (reads do not) for the bump's duration.
	mutMu sync.RWMutex

	rr      atomic.Uint64 // read-plan rotation
	queries atomic.Int64
	bumps   atomic.Int64

	mergeMu sync.Mutex
	mergeMs []float64 // recent gather+merge wall times, milliseconds
}

// workerRef is one registered worker: its advertise address, health state,
// and last heartbeat.
type workerRef struct {
	addr  string
	state atomic.Int32
	fails atomic.Int32

	hbMu sync.Mutex
	hb   Heartbeat
}

// groupLane serializes one group's mutation stream: the lane mutex is held
// across the fan-out to the group's replicas, so sequence numbers reach
// every replica in allocation order.
type groupLane struct {
	mu  sync.Mutex
	seq uint64
}

// NewCoordinator builds a coordinator; workers register themselves via
// POST /cluster/register and the cluster bootstraps when the expected
// number have arrived.
func NewCoordinator(cfg CoordConfig) *Coordinator {
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = 50 * time.Millisecond
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.SyncFraction == 0 {
		cfg.SyncFraction = 1.0
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	return &Coordinator{cfg: cfg, client: &http.Client{}}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Mux returns the coordinator's route table: the public surface of
// surface.go — a cluster client speaks the same protocol against the
// coordinator that a single-node client speaks against the daemon — plus
// worker registration and the manual epoch bump.
func (c *Coordinator) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mount(mux, c)
	mux.HandleFunc("POST /cluster/register", rpc(maxBodyBytes, c.register))
	mux.HandleFunc("POST /epoch/bump", func(w http.ResponseWriter, _ *http.Request) {
		_, err := c.resolve("", "", true)
		if err == nil {
			err = c.BumpEpoch("manual")
		}
		answer(w, map[string]int64{"epoch": c.epoch.Load()}, err)
	})
	return mux
}

// resolve: the coordinator is the one target of every request it can answer,
// which is every request once the cluster has bootstrapped.
func (c *Coordinator) resolve(_, _ string, _ bool) (target, error) {
	if !c.ready.Load() {
		return nil, notReady("cluster is not bootstrapped")
	}
	return c, nil
}

func (c *Coordinator) readyz() (any, error) {
	_, err := c.resolve("", "", false)
	return map[string]any{"ready": true, "epoch": c.epoch.Load()}, err
}

func (c *Coordinator) stats() (any, error) { return c.Stats(), nil }

// Run drives the health checker (and the auto-bump trigger) until ctx ends.
func (c *Coordinator) Run(ctx context.Context) {
	ticker := time.NewTicker(c.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.checkHealth(ctx)
		}
	}
}

// --- membership and bootstrap ---

func (c *Coordinator) register(_ context.Context, req *RegisterRequest) (RegisterResponse, error) {
	if req.Addr == "" {
		return RegisterResponse{}, badRequest("bad request body: addr is required")
	}
	c.mu.Lock()
	accepted := false
	for _, ref := range c.workers {
		if ref.addr == req.Addr {
			accepted = true
			break
		}
	}
	if !accepted && len(c.workers) < c.cfg.Workers {
		c.workers = append(c.workers, &workerRef{addr: req.Addr})
		accepted = true
		c.logf("worker %d/%d registered: %s", len(c.workers), c.cfg.Workers, req.Addr)
	} else if !accepted {
		c.logf("worker %s refused: all %d places are taken", req.Addr, c.cfg.Workers)
	}
	boot := len(c.workers) == c.cfg.Workers && !c.booted
	if boot {
		c.booted = true
	}
	c.mu.Unlock()
	if boot {
		go c.bootstrap()
	}
	return RegisterResponse{Accepted: accepted, Configured: c.ready.Load()}, nil
}

// bootstrap fixes the membership and placement, pushes the configuration to
// every worker, seeds the catalog through the normal sequenced apply path,
// and runs the first epoch bump so the cluster serves under a global frozen
// order instead of an all-dynamic one. Only then does the coordinator
// become ready.
func (c *Coordinator) bootstrap() {
	c.mu.Lock()
	addrs := make([]string, len(c.workers))
	for i, ref := range c.workers {
		addrs[i] = ref.addr
	}
	c.ring = NewRing(len(addrs), c.cfg.Replicas)
	c.lanes = make([]*groupLane, len(addrs))
	for g := range c.lanes {
		c.lanes[g] = &groupLane{}
	}
	c.epoch.Store(1)
	c.mu.Unlock()

	ctx := context.Background()
	for i, ref := range c.refs() {
		cfg := ConfigRequest{
			Workers: addrs, Self: i, Replicas: c.ring.Replicas(), Epoch: 1,
			Theta: c.cfg.Theta, Tau: c.cfg.Tau, Filter: c.cfg.Filter,
		}
		if err := call(ctx, c.client, ref.addr+"/cluster/config", cfg, nil); err != nil {
			c.mu.Lock()
			c.bootErr = fmt.Errorf("configure %s: %w", ref.addr, err)
			c.mu.Unlock()
			c.logf("bootstrap failed: %v", c.bootErr)
			return
		}
		ref.state.Store(workerReady)
	}
	c.logf("configured %d workers (%d groups, %d-way replication)", len(addrs), c.ring.Workers(), c.ring.Replicas())

	if len(c.cfg.Catalog) > 0 {
		start := time.Now()
		const seedBatch = 512
		for at := 0; at < len(c.cfg.Catalog); at += seedBatch {
			end := min(at+seedBatch, len(c.cfg.Catalog))
			if _, err := c.insert(ctx, c.cfg.Catalog[at:end]); err != nil {
				c.mu.Lock()
				c.bootErr = fmt.Errorf("seed catalog: %w", err)
				c.mu.Unlock()
				c.logf("bootstrap failed: %v", c.bootErr)
				return
			}
		}
		c.logf("seeded %d records in %v", len(c.cfg.Catalog), time.Since(start).Round(time.Millisecond))
	}

	// The seeds were interned as dynamic keys under an empty frozen order;
	// the first bump freezes the true global frequencies over them.
	if err := c.BumpEpoch("bootstrap"); err != nil {
		c.mu.Lock()
		c.bootErr = fmt.Errorf("initial epoch bump: %w", err)
		c.mu.Unlock()
		c.logf("bootstrap failed: %v", c.bootErr)
		return
	}
	c.ready.Store(true)
	c.logf("cluster ready: epoch %d", c.epoch.Load())
}

// refs snapshots the registered workers.
func (c *Coordinator) refs() []*workerRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*workerRef(nil), c.workers...)
}

// BootstrapErr reports a failed bootstrap (nil while in progress or after
// success).
func (c *Coordinator) BootstrapErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bootErr
}

// Ready reports whether the cluster has bootstrapped.
func (c *Coordinator) Ready() bool { return c.ready.Load() }

// markDown takes a worker out of the read and write plans. It is called the
// moment a request to the worker hard-fails — conservative by design: a
// replica that may have missed a sequenced write must not serve until the
// health checker proves its sequences match again.
func (c *Coordinator) markDown(ref *workerRef, cause error) {
	if ref.state.Swap(workerDown) != workerDown {
		c.logf("worker %s marked down: %v", ref.addr, cause)
	}
}

// checkHealth polls every worker's /readyz, failing workers out after two
// consecutive misses and readmitting a down worker only when its heartbeat
// proves it is at the coordinator's epoch with matching per-group
// sequences (a network blip, not a missed write). It also fires the
// auto-bump when a worker's dynamic region outgrows the sync fraction.
func (c *Coordinator) checkHealth(ctx context.Context) {
	c.mu.Lock()
	placed := c.ring != nil
	c.mu.Unlock()
	if !placed {
		return // bootstrap has not fixed the membership yet
	}
	var maxFrozen, maxDyn int
	for _, ref := range c.refs() {
		hctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		var hb Heartbeat
		err := call(hctx, c.client, ref.addr+"/readyz", nil, &hb)
		cancel()
		if err != nil || !hb.Ready {
			if ref.fails.Add(1) >= 2 {
				c.markDown(ref, fmt.Errorf("health check: %v", err))
			}
			continue
		}
		ref.fails.Store(0)
		ref.hbMu.Lock()
		ref.hb = hb
		ref.hbMu.Unlock()
		if hb.FrozenKeys > maxFrozen {
			maxFrozen = hb.FrozenKeys
		}
		if hb.DynamicKeys > maxDyn {
			maxDyn = hb.DynamicKeys
		}
		if ref.state.Load() == workerDown && c.ready.Load() {
			if hb.Epoch == c.epoch.Load() && c.seqsMatch(hb) {
				ref.state.Store(workerReady)
				c.logf("worker %s readmitted", ref.addr)
			}
		}
	}
	if c.cfg.SyncFraction >= 0 && c.ready.Load() {
		frozen := max(maxFrozen, 1)
		if maxDyn > 0 && float64(maxDyn) >= c.cfg.SyncFraction*float64(frozen) {
			if err := c.BumpEpoch("dynamic region reached sync fraction"); err != nil {
				c.logf("auto epoch bump: %v", err)
			}
		}
	}
}

// seqsMatch reports whether a heartbeat's per-group applied sequences equal
// the coordinator's lanes for every group in the heartbeat.
func (c *Coordinator) seqsMatch(hb Heartbeat) bool {
	for raw, seq := range hb.Groups {
		g, err := strconv.Atoi(raw)
		if err != nil || g < 0 || g >= len(c.lanes) {
			return false
		}
		c.lanes[g].mu.Lock()
		want := c.lanes[g].seq
		c.lanes[g].mu.Unlock()
		if seq != want {
			return false
		}
	}
	return true
}

// --- scatter-gather reads ---

// GatherFailure is one group's unrecoverable read failure: every live
// replica was tried.
type GatherFailure struct {
	Group int
	Addr  string
	Err   error
}

// GatherError is the structured failure of a cluster scatter-gather: which
// groups failed, on which worker, with what error. Unwrap exposes the
// underlying errors to errors.Is/As.
type GatherError struct {
	Failures []GatherFailure
	// status is what the failure answers with: 502 for a read no live
	// replica could serve, 503 for a write no live replica applied.
	status int
}

func (e *GatherError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d group(s) failed", len(e.Failures))
	for i, f := range e.Failures {
		sep := ": "
		if i > 0 {
			sep = "; "
		}
		fmt.Fprintf(&b, "%sgroup %d (%s): %v", sep, f.Group, f.Addr, f.Err)
	}
	return b.String()
}

// Unwrap exposes the per-group errors.
func (e *GatherError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f.Err
	}
	return out
}

// body is the JSON shape a failed gather answers with.
func (e *GatherError) body() map[string]any {
	fails := make([]map[string]any, len(e.Failures))
	for i, f := range e.Failures {
		fails[i] = map[string]any{"group": f.Group, "addr": f.Addr, "error": f.Err.Error()}
	}
	return map[string]any{"error": "scatter-gather failed", "code": "gather_failed", "failures": fails}
}

// readCandidates returns the live replicas of group g in the order to try
// them, rotated per request so the read load spreads across the group.
func (c *Coordinator) readCandidates(g int) []*workerRef {
	reps := c.ring.GroupReplicas(g)
	rot := int(c.rr.Add(1)) % len(reps)
	refs := c.refs()
	out := make([]*workerRef, 0, len(reps))
	for i := range reps {
		ref := refs[reps[(i+rot)%len(reps)]]
		if ref.state.Load() == workerReady {
			out = append(out, ref)
		}
	}
	return out
}

// fetchGroup reads group g's top k from its replicas with hedging and
// failover: the first replica gets HedgeDelay of exclusive time, then a
// second attempt races it; remaining replicas are tried as earlier attempts
// fail. The first success wins and cancels the losers. Each attempt buffers
// its stream fully — failover must stay possible until the merge, so nothing
// is forwarded early. Hedging is the coordinator's only protection against a
// stalled replica (its HTTP client has no timeout): a slow replica costs a
// read HedgeDelay, and is not marked down for it.
func (c *Coordinator) fetchGroup(ctx context.Context, g int, rawQuery string) ([]aujoin.QueryMatch, error) {
	cands := c.readCandidates(g)
	if len(cands) == 0 {
		return nil, errors.New("no live replica")
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		val []aujoin.QueryMatch
		err error
		ref *workerRef
	}
	results := make(chan result, len(cands))
	launched := 0
	launch := func() {
		ref := cands[launched]
		launched++
		go func() {
			var out []aujoin.QueryMatch
			err := stream(fctx, c, fmt.Sprintf("%s/query?%s&group=%d", ref.addr, rawQuery, g), nil, func(m aujoin.QueryMatch) error {
				out = append(out, m)
				return nil
			})
			results <- result{val: out, err: err, ref: ref}
		}()
	}
	launch()
	var hedgeCh <-chan time.Time
	if c.cfg.HedgeDelay > 0 && len(cands) > 1 {
		hedge := time.NewTimer(c.cfg.HedgeDelay)
		defer hedge.Stop()
		hedgeCh = hedge.C
	}
	var errs []error
	pending := 1
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeCh:
			hedgeCh = nil
			if launched < len(cands) {
				launch()
				pending++
			}
		case res := <-results:
			pending--
			if res.err == nil {
				return res.val, nil
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if refused(res.err) {
				return nil, res.err
			}
			errs = append(errs, fmt.Errorf("%s: %w", res.ref.addr, res.err))
			c.markDown(res.ref, res.err)
			if launched < len(cands) {
				launch()
				pending++
			} else if pending == 0 {
				return nil, errors.Join(errs...)
			}
		}
	}
}

// gather runs op once per group, concurrently, and folds the failures into a
// GatherError answering with status (nil when every group succeeded).
func (c *Coordinator) gather(status int, op func(g int) error) error {
	gerrs := make([]error, c.ring.Workers())
	var wg sync.WaitGroup
	for g := range gerrs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gerrs[g] = op(g)
		}(g)
	}
	wg.Wait()
	var ge *GatherError
	for g, err := range gerrs {
		// A group cancelled because a sibling failed (or the client left) has
		// nothing of its own to report.
		if err == nil || errors.Is(err, context.Canceled) {
			continue
		}
		if refused(err) {
			return err // the request's answer, not a group's failure
		}
		if ge == nil {
			ge = &GatherError{status: status}
		}
		refs := c.refs()
		reps := c.ring.GroupReplicas(g)
		addrs := make([]string, len(reps))
		for i, w := range reps {
			addrs[i] = refs[w].addr
		}
		ge.Failures = append(ge.Failures, GatherFailure{Group: g, Addr: strings.Join(addrs, ","), Err: err})
	}
	if ge == nil {
		return nil // an untyped nil: a nil *GatherError in an error compares non-nil
	}
	return ge
}

// topK scatter-gathers a top-k query: one live replica per group answers for
// the group, the per-group lists are gathered and k-bound merged under the
// engine's total order (similarity descending, ID ascending). The context
// fans out to every worker stream: a client disconnect cancels them all.
func (c *Coordinator) topK(ctx context.Context, q string, opts aujoin.QueryOptions) ([]aujoin.QueryMatch, error) {
	if opts.MinSimilarity > 0 && opts.MinSimilarity < c.cfg.Theta {
		// Every worker index is built at cfg.Theta and would refuse; answer
		// here instead of scattering a request that cannot succeed.
		return nil, thetaBelowBuild(c.cfg.Theta)
	}
	c.queries.Add(1)
	start := time.Now()
	// Workers are sent what was validated, not the client's raw query string.
	vals := url.Values{"q": {q}, "k": {strconv.Itoa(opts.K)}}
	if opts.MinSimilarity > 0 {
		vals.Set("min_sim", strconv.FormatFloat(opts.MinSimilarity, 'g', -1, 64))
	}
	rawQuery := vals.Encode()
	parts := make([][]aujoin.QueryMatch, c.ring.Workers())
	err := c.gather(http.StatusBadGateway, func(g int) (err error) {
		parts[g], err = c.fetchGroup(ctx, g, rawQuery)
		return err
	})
	if err != nil {
		return nil, err
	}
	merged := mergeTopK(parts, opts.K)
	c.noteMerge(time.Since(start))
	return merged, nil
}

// mergeTopK folds per-group top-k lists into the global top k under the
// engine's total order: similarity descending, stable ID ascending on ties
// — exactly the order a single-node QueryTopK returns, which is what makes
// cluster answers bit-identical. Sound because each group's top k contains
// every group-local record that can reach the global top k.
func mergeTopK(parts [][]aujoin.QueryMatch, k int) []aujoin.QueryMatch {
	var all []aujoin.QueryMatch
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Similarity != all[b].Similarity {
			return all[a].Similarity > all[b].Similarity
		}
		return all[a].Record < all[b].Record
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// noteMerge records one gather+merge wall time for the /stats percentiles.
func (c *Coordinator) noteMerge(d time.Duration) {
	ms := float64(d.Microseconds()) / 1000
	c.mergeMu.Lock()
	if len(c.mergeMs) >= 4096 {
		c.mergeMs = append(c.mergeMs[:0], c.mergeMs[len(c.mergeMs)/2:]...)
	}
	c.mergeMs = append(c.mergeMs, ms)
	c.mergeMu.Unlock()
}

// probe scatter-gathers a probe batch: the same batch goes to one live
// replica per group and every confirmed match is handed to emit as it
// arrives (the groups partition the catalog, so the union of group streams
// is exactly the single-node result; S carries stable IDs, T positions in
// the request batch). A group whose replica dies before emitting anything
// fails over; once a group has emitted, a mid-stream death fails the probe.
func (c *Coordinator) probe(ctx context.Context, records []string, emit func(ProbeMatch) error) error {
	body, err := json.Marshal(ProbeRequest{Records: records})
	if err != nil {
		return err
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var outMu sync.Mutex
	serial := func(m ProbeMatch) error {
		outMu.Lock()
		defer outMu.Unlock()
		return emit(m)
	}
	return c.gather(http.StatusBadGateway, func(g int) error {
		err := c.probeGroup(fctx, g, body, serial)
		if err != nil {
			cancel() // one group failed, or the client hung up: abort every worker stream
		}
		return err
	})
}

// probeGroup streams one group's probe matches to emit, failing over to the
// next replica as long as nothing from this group has been forwarded yet.
func (c *Coordinator) probeGroup(ctx context.Context, g int, body []byte, emit func(ProbeMatch) error) error {
	cands := c.readCandidates(g)
	if len(cands) == 0 {
		return errors.New("no live replica")
	}
	var errs []error
	for _, ref := range cands {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		forwarded := 0
		err := stream(ctx, c, fmt.Sprintf("%s/probe?group=%d", ref.addr, g), body, func(m ProbeMatch) error {
			forwarded++
			return emit(m)
		})
		if err == nil {
			return nil
		}
		if forwarded > 0 || ctx.Err() != nil || refused(err) {
			// Mid-stream failure after lines went out, the whole request
			// being torn down, or a refusal every replica would repeat: no
			// failover.
			return err
		}
		c.markDown(ref, err)
		errs = append(errs, fmt.Errorf("%s: %w", ref.addr, err))
	}
	return errors.Join(errs...)
}

// --- sequenced mutations ---

// insert allocates stable IDs, partitions the batch by owning group and
// applies each partition to every live replica of its group under the
// group's next sequence number. IDs are allocated exactly as a single-node
// index would (sequentially, in request order) — the cornerstone of
// bit-identical placement and results.
func (c *Coordinator) insert(ctx context.Context, records []string) ([]int, error) {
	if len(records) == 0 {
		return nil, nil
	}
	c.mutMu.RLock()
	defer c.mutMu.RUnlock()
	c.mu.Lock()
	start := c.nextID
	c.nextID += len(records)
	c.mu.Unlock()
	ids := make([]int, len(records))
	parts := make([]*ApplyRequest, c.ring.Workers())
	for i, rec := range records {
		ids[i] = start + i
		p := c.part(parts, ids[i])
		p.IDs = append(p.IDs, ids[i])
		p.Records = append(p.Records, rec)
	}
	if _, err := c.applyParts(ctx, parts); err != nil {
		return nil, err
	}
	return ids, nil
}

// remove routes a removal set to the owning groups and maps the per-group
// answers back to request positions.
func (c *Coordinator) remove(ctx context.Context, ids []int) ([]bool, error) {
	c.mutMu.RLock()
	defer c.mutMu.RUnlock()
	parts := make([]*ApplyRequest, c.ring.Workers())
	at := make([][]int, len(parts)) // at[g][i]: the request position of parts[g].Removes[i]
	for i, id := range ids {
		p := c.part(parts, id)
		p.Removes = append(p.Removes, id)
		at[p.Group] = append(at[p.Group], i)
	}
	resps, err := c.applyParts(ctx, parts)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(ids))
	for g, resp := range resps {
		if resp == nil {
			continue
		}
		for i, ok := range resp.Removed {
			out[at[g][i]] = ok
		}
	}
	return out, nil
}

// checkpoint: the coordinator holds no record data to snapshot.
func (c *Coordinator) checkpoint() error {
	return badRequest("the coordinator is not durable: snapshot a daemon started with -data-dir")
}

// part returns the mutation batch of the group owning id, starting it on
// first use.
func (c *Coordinator) part(parts []*ApplyRequest, id int) *ApplyRequest {
	g := c.ring.Owner(id)
	if parts[g] == nil {
		parts[g] = &ApplyRequest{Group: g}
	}
	return parts[g]
}

// applyParts applies each group's batch (nil: the group has none) and
// gathers the answers by group; a write no live replica of some group
// applied is a 503 GatherError.
func (c *Coordinator) applyParts(ctx context.Context, parts []*ApplyRequest) ([]*ApplyResponse, error) {
	resps := make([]*ApplyResponse, len(parts))
	err := c.gather(http.StatusServiceUnavailable, func(g int) (err error) {
		if parts[g] != nil {
			resps[g], err = c.applyGroup(ctx, parts[g])
		}
		return err
	})
	return resps, err
}

// applyGroup delivers one mutation batch to every live replica of its group
// under the group's next sequence number. The lane mutex is held across the
// whole fan-out so sequences reach replicas in order; the write succeeds if
// at least one replica applied it (replicas that failed are taken out — they
// may have missed the write and must not serve), and the sequence advances
// only on success. A write no replica applied and some replica refused (its
// 400) is answered with the refusal; the refusing replicas missed nothing and
// stay in service.
func (c *Coordinator) applyGroup(ctx context.Context, req *ApplyRequest) (*ApplyResponse, error) {
	lane := c.lanes[req.Group]
	lane.mu.Lock()
	defer lane.mu.Unlock()
	req.Epoch, req.Seq = c.epoch.Load(), lane.seq+1

	refs := c.refs()
	reps := c.ring.GroupReplicas(req.Group)
	type res struct {
		resp *ApplyResponse
		err  error
		ref  *workerRef
	}
	results := make([]res, 0, len(reps))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, wi := range reps {
		ref := refs[wi]
		if ref.state.Load() != workerReady {
			continue
		}
		wg.Add(1)
		go func(ref *workerRef) {
			defer wg.Done()
			var ar ApplyResponse
			err := call(ctx, c.client, ref.addr+"/cluster/apply", req, &ar)
			mu.Lock()
			results = append(results, res{resp: &ar, err: err, ref: ref})
			mu.Unlock()
		}(ref)
	}
	wg.Wait()
	var first *ApplyResponse
	for _, r := range results {
		if r.err == nil {
			first = r.resp
			break
		}
	}
	var refusal error
	var errs []error
	for _, r := range results {
		switch {
		case r.err == nil:
		case first == nil && refused(r.err):
			refusal = r.err
		default:
			c.markDown(r.ref, r.err)
			errs = append(errs, fmt.Errorf("%s: %w", r.ref.addr, r.err))
		}
	}
	if first == nil {
		switch {
		case refusal != nil:
			return nil, refusal
		case len(errs) == 0:
			return nil, errors.New("no live replica")
		}
		return nil, errors.Join(errs...)
	}
	lane.seq = req.Seq
	return first, nil
}

// --- the order-sync protocol ---

// BumpEpoch runs a global re-finalize as a two-phase epoch bump. Mutations
// are blocked for the duration (mutMu held exclusively); reads never are —
// workers serve from pre-adoption snapshots while their group indexes
// rebuild, and requests stamped with either the old or the prepared epoch
// are accepted throughout.
//
// Prepare: the coordinator collects one key-frequency table per group, all
// groups at once, asking the group's ready replicas in turn until one
// answers (one that fails is not marked down: it may still adopt and commit)
// — groups partition the records, so the tables sum to the global document
// frequencies — merges them into the next frozen order
// (aujoin.MergeOrderImages), and every ready worker adopts it, one group
// index at a time (rolling rebuilds). Commit: the coordinator flips its
// epoch — the point of no return; every query from here on is stamped with
// the new epoch — and tells the workers to flip theirs. A worker that fails either phase is marked down: its epoch no
// longer matches, so the stamp check fences it out of serving until it is
// resynced (operator intervention; automatic resync is future work).
func (c *Coordinator) BumpEpoch(reason string) error {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	start := time.Now()
	cur := c.epoch.Load()
	next := cur + 1

	refs := c.refs()
	var ready []*workerRef
	for _, ref := range refs {
		if ref.state.Load() == workerReady {
			ready = append(ready, ref)
		}
	}
	if len(ready) == 0 {
		return errors.New("epoch bump: no ready workers")
	}

	ctx := context.Background()
	tables := make([]aujoin.OrderImage, c.ring.Workers())
	err := c.gather(http.StatusBadGateway, func(g int) error {
		var errs []error
		for _, wi := range c.ring.GroupReplicas(g) {
			ref := refs[wi]
			if ref.state.Load() != workerReady {
				continue
			}
			var table aujoin.OrderImage
			err := call(ctx, c.client, fmt.Sprintf("%s/cluster/freqs?group=%d", ref.addr, g), nil, &table)
			if err == nil {
				tables[g] = table
				return nil
			}
			errs = append(errs, fmt.Errorf("%s: %w", ref.addr, err))
		}
		if len(errs) == 0 {
			return errors.New("no live replica")
		}
		return errors.Join(errs...)
	})
	if err != nil {
		return fmt.Errorf("epoch bump: collect frequencies: %w", err)
	}
	order, err := aujoin.MergeOrderImages(tables...)
	if err != nil {
		return fmt.Errorf("epoch bump: merge frequencies: %w", err)
	}
	payload := OrderPayload{Epoch: next, Order: order}

	// Prepare: rolling adoption, worker by worker (each worker rolls its own
	// groups); reads keep flowing the whole time.
	adopted := ready[:0]
	for _, ref := range ready {
		if err := call(ctx, c.client, ref.addr+"/cluster/adopt", payload, nil); err != nil {
			c.markDown(ref, fmt.Errorf("adopt epoch %d: %w", next, err))
			continue
		}
		adopted = append(adopted, ref)
	}
	if len(adopted) == 0 {
		return errors.New("epoch bump: no worker adopted the order")
	}

	// Commit.
	c.epoch.Store(next)
	for _, ref := range adopted {
		if err := call(ctx, c.client, ref.addr+"/cluster/commit", CommitRequest{Epoch: next}, nil); err != nil {
			c.markDown(ref, fmt.Errorf("commit epoch %d: %w", next, err))
		}
	}
	c.bumps.Add(1)
	c.logf("epoch %d -> %d (%s): %d keys frozen, %d workers, %v",
		cur, next, reason, len(payload.Order.Keys), len(adopted), time.Since(start).Round(time.Millisecond))
	return nil
}

// --- stats ---

// CoordStats is the coordinator's /stats body.
type CoordStats struct {
	Ready    bool          `json:"ready"`
	Epoch    int64         `json:"epoch"`
	Groups   int           `json:"groups"`
	Replicas int           `json:"replicas"`
	NextID   int           `json:"next_id"`
	Queries  int64         `json:"queries"`
	Bumps    int64         `json:"epoch_bumps"`
	Workers  []WorkerState `json:"workers"`
	// MergeMsP50/95/99 are percentiles of recent whole-request
	// gather+merge wall times for scatter-gather queries, milliseconds.
	MergeMsP50 float64 `json:"merge_ms_p50"`
	MergeMsP95 float64 `json:"merge_ms_p95"`
	MergeMsP99 float64 `json:"merge_ms_p99"`
}

// WorkerState is one worker's row in CoordStats.
type WorkerState struct {
	Addr        string `json:"addr"`
	State       string `json:"state"`
	Epoch       int64  `json:"epoch"`
	FrozenKeys  int    `json:"frozen_keys"`
	DynamicKeys int    `json:"dynamic_keys"`
}

// Stats assembles the coordinator's current state.
func (c *Coordinator) Stats() CoordStats {
	st := CoordStats{Ready: c.ready.Load(), Epoch: c.epoch.Load(), Queries: c.queries.Load(), Bumps: c.bumps.Load()}
	c.mu.Lock()
	st.NextID = c.nextID
	ring := c.ring
	refs := append([]*workerRef(nil), c.workers...)
	c.mu.Unlock()
	if ring != nil {
		st.Groups = ring.Workers()
		st.Replicas = ring.Replicas()
	}
	for _, ref := range refs {
		state := "joining"
		switch ref.state.Load() {
		case workerReady:
			state = "ready"
		case workerDown:
			state = "down"
		}
		ref.hbMu.Lock()
		hb := ref.hb
		ref.hbMu.Unlock()
		st.Workers = append(st.Workers, WorkerState{
			Addr: ref.addr, State: state, Epoch: hb.Epoch,
			FrozenKeys: hb.FrozenKeys, DynamicKeys: hb.DynamicKeys,
		})
	}
	c.mergeMu.Lock()
	if len(c.mergeMs) > 0 {
		ps := metrics.Percentiles(c.mergeMs, 50, 95, 99)
		st.MergeMsP50, st.MergeMsP95, st.MergeMsP99 = ps[0], ps[1], ps[2]
	}
	c.mergeMu.Unlock()
	return st
}

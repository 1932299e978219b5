package cluster

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
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
	// Catalog is seeded at bootstrap: its records get the IDs a single node
	// would give them, each group's share goes to the group's replicas in
	// sequenced chunks, each replica counts the share's keys, and the
	// coordinator publishes the merged counts as the global frozen order,
	// under which each replica builds the group's index once.
	Catalog []string
	// HedgeDelay is how long a group read waits on its first replica before
	// racing the request against a second one (0 = 50ms; < 0 disables
	// hedging). A group read has no timeout of its own: hedging is what
	// keeps a read alive around a replica that accepted it and stalled.
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

	// seedChunk caps the JSON body of one seed chunk (0: seedChunkBytes);
	// tests lower it to split a small catalog into many chunks.
	seedChunk int

	mergeMu sync.Mutex
	mergeMs []float64 // recent gather+merge wall times, milliseconds
}

// workerRef is one registered worker: its advertise address, health state,
// last heartbeat, and the pooled frame connections the group reads take.
type workerRef struct {
	addr   string
	state  atomic.Int32
	fails  atomic.Int32
	frames framePool

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
		_, err := c.resolve("", true)
		if err == nil {
			err = c.BumpEpoch("manual")
		}
		answer(w, map[string]int64{"epoch": c.epoch.Load()}, err)
	})
	return mux
}

// resolve: the coordinator is the one target of every request it can answer,
// which is every request once the cluster has bootstrapped.
func (c *Coordinator) resolve(_ string, _ bool) (target, error) {
	if !c.ready.Load() {
		return nil, notReady("cluster is not bootstrapped")
	}
	return c, nil
}

func (c *Coordinator) readyz(url.Values) (any, error) {
	_, err := c.resolve("", false)
	return map[string]any{"ready": true, "epoch": c.epoch.Load()}, err
}

func (c *Coordinator) stats() (any, error) { return c.Stats(), nil }

// Run drives the health checker (and the auto-bump trigger) until ctx ends,
// and then closes the pooled frame connections to the workers.
func (c *Coordinator) Run(ctx context.Context) {
	ticker := time.NewTicker(c.cfg.Heartbeat)
	defer ticker.Stop()
	defer func() {
		for _, ref := range c.refs() {
			ref.frames.close()
		}
	}()
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
// every worker, seeds the catalog (seed), which leaves each replica's share
// prepared and counted and hands back one key-frequency table a group, and
// publishes the merge of those tables as the cluster's first global frozen
// order (publish), under which every replica builds its groups — each record
// signed once. Only then does the coordinator become ready.
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

	fail := func(err error) {
		c.mu.Lock()
		c.bootErr = err
		c.mu.Unlock()
		c.logf("bootstrap failed: %v", c.bootErr)
	}
	ctx := context.Background()
	for i, ref := range c.refs() {
		cfg := ConfigRequest{
			Workers: addrs, Self: i, Replicas: c.ring.Replicas(), Epoch: 1,
			Theta: c.cfg.Theta, Tau: c.cfg.Tau, Filter: c.cfg.Filter,
		}
		if err := call(ctx, c.client, ref.addr+"/cluster/config", cfg, nil); err != nil {
			fail(fmt.Errorf("configure %s: %w", ref.addr, err))
			return
		}
		ref.state.Store(workerReady)
	}
	c.logf("configured %d workers (%d groups, %d-way replication)", len(addrs), c.ring.Workers(), c.ring.Replicas())

	start := time.Now()
	tables, err := c.seed(ctx, c.cfg.Catalog)
	if err != nil {
		fail(fmt.Errorf("seed catalog: %w", err))
		return
	}
	c.logf("seeded %d records in %v", len(c.cfg.Catalog), time.Since(start).Round(time.Millisecond))
	order, err := aujoin.MergeOrderImages(tables...)
	if err == nil {
		err = c.publish(ctx, order, "bootstrap")
	}
	if err != nil {
		fail(fmt.Errorf("publish the first order: %w", err))
		return
	}
	c.ready.Store(true)
	c.logf("cluster ready: epoch %d", c.epoch.Load())
}

// seedChunkBytes caps the JSON body of one seed chunk: the workers' body cap
// less room for the request's other fields.
const seedChunkBytes = maxBodyBytes - 4<<10

// seed gives the catalog's records the IDs a single node would give them —
// sequentially, in catalog order, as insert does — and sends each group's
// share to the group's replicas as sequenced seed chunks, every group at
// once. A replica stages the chunks and, when the last one arrives, prepares
// the whole share and counts its keys, acknowledging the chunk with the
// group's key-frequency table: seed returns one table a group, taken from
// any replica that acknowledged with one (replicas hold identical shares),
// and empty for a group the catalog gives nothing. Nothing is inserted: no
// delta segment, dynamic key or compaction is made on the way. A chunk
// takes records while the bound on its JSON body stays under the cap (one
// record at least); a replica that misses a chunk is taken out as a missed
// write is, by applyGroup and the gap rule. bootstrap calls it before
// anything else can mutate or bump.
func (c *Coordinator) seed(ctx context.Context, catalog []string) ([]aujoin.OrderImage, error) {
	c.mu.Lock()
	start := c.nextID
	c.nextID += len(catalog)
	c.mu.Unlock()
	shares := make([]*ApplyRequest, c.ring.Workers())
	for i, rec := range catalog {
		p := c.part(shares, start+i)
		p.IDs = append(p.IDs, start+i)
		p.Records = append(p.Records, rec)
	}
	limit := cmp.Or(c.seedChunk, seedChunkBytes)
	tables := make([]aujoin.OrderImage, len(shares))
	err := c.gather(http.StatusServiceUnavailable, func(g int) error {
		share := shares[g]
		if share == nil {
			return nil // the group keeps the empty index config made
		}
		for at := 0; at < len(share.IDs); {
			end, size := at+1, seedCost(share.Records[at])
			for end < len(share.IDs) && size+seedCost(share.Records[end]) <= limit {
				size += seedCost(share.Records[end])
				end++
			}
			chunk := ApplyRequest{Group: g, Seed: true, Last: end == len(share.IDs), IDs: share.IDs[at:end], Records: share.Records[at:end]}
			resp, err := c.applyGroup(ctx, &chunk)
			if err != nil {
				return err
			}
			if chunk.Last {
				if len(resp.Order) == 0 {
					return errors.New("no replica acknowledged the last seed chunk with the group's table")
				}
				if err := json.Unmarshal(resp.Order, &tables[g]); err != nil {
					return fmt.Errorf("the group's table: %w", err)
				}
			}
			at = end
		}
		return nil
	})
	return tables, err
}

// seedCost bounds the bytes one record adds to a seed chunk's JSON body: its
// ID and separators, and its text at json.Marshal's widest escape, six
// bytes (\u00XX) a byte.
func seedCost(rec string) int { return 24 + 6*len(rec) }

// refs snapshots the registered workers. Registration only ever appends,
// so the snapshot shares the coordinator's array: its elements never change.
func (c *Coordinator) refs() []*workerRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers[:len(c.workers):len(c.workers)]
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
// consecutive misses, and is the one fence against a worker that missed an
// epoch bump: a ready worker whose heartbeat is behind the epoch the
// coordinator was at before it asked is marked down, and a down worker is
// readmitted only when its heartbeat proves it is at the coordinator's
// epoch with matching per-group sequences (a network blip, not a missed
// write or order). Each call carries the coordinator's epoch, from which a
// worker left out of the bootstrap learns to release its seed share
// (Worker.releaseSkipped). It also fires the auto-bump when a worker's dynamic
// region outgrows the sync fraction.
func (c *Coordinator) checkHealth(ctx context.Context) {
	c.mu.Lock()
	placed := c.ring != nil
	c.mu.Unlock()
	if !placed {
		return // bootstrap has not fixed the membership yet
	}
	var maxFrozen, maxDyn int
	for _, ref := range c.refs() {
		// Read before the call: a publish moves the coordinator only after
		// every worker it counts on has adopted, so a heartbeat behind this
		// epoch is behind for certain, whatever the call overlapped.
		epoch := c.epoch.Load()
		hctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		var hb Heartbeat
		err := call(hctx, c.client, ref.addr+"/readyz?epoch="+strconv.FormatInt(epoch, 10), nil, &hb)
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
		switch ref.state.Load() {
		case workerReady:
			if hb.Epoch < epoch {
				c.markDown(ref, fmt.Errorf("heartbeat at epoch %d, behind %d", hb.Epoch, epoch))
			}
		case workerDown:
			if c.ready.Load() && hb.Epoch == c.epoch.Load() && c.seqsMatch(hb) {
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

// readCandidates returns the live replicas of group g in the order a probe
// stream tries them, rotated per request so the read load spreads across the
// group.
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
	return c.gatherError(status, gerrs)
}

// gatherError folds per-group failures (gerrs[g]; nil: group g succeeded)
// into a GatherError answering with status, nil when no group failed. A
// refusal is returned as it is: it is the request's answer, not a group's
// failure.
func (c *Coordinator) gatherError(status int, gerrs []error) error {
	var ge *GatherError
	for g, err := range gerrs {
		// A group cancelled because a sibling failed (or the client left) has
		// nothing of its own to report.
		if err == nil || errors.Is(err, context.Canceled) {
			continue
		}
		if refused(err) {
			return err
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

// topK scatter-gathers a top-k query: every group is read once, and the
// per-group lists are k-bound merged under the engine's total order
// (similarity descending, ID ascending). The reads cross each worker once
// (see lookup): a frame carries every group its worker answers for. The
// context fans out to every worker read: a client disconnect cancels them
// all.
func (c *Coordinator) topK(ctx context.Context, q string, opts aujoin.QueryOptions) ([]aujoin.QueryMatch, error) {
	if opts.MinSimilarity > 0 && opts.MinSimilarity < c.cfg.Theta {
		// Every worker index is built at cfg.Theta and would refuse; answer
		// here instead of scattering a request that cannot succeed.
		return nil, thetaBelowBuild(c.cfg.Theta)
	}
	c.queries.Add(1)
	start := time.Now()
	lctx, cancel := context.WithCancel(ctx)
	defer cancel() // the reads still in flight are losers
	refs := c.refs()
	l := &lookup{
		c: c, ctx: lctx, refs: refs,
		req:   frameRequest{op: opQuery, k: opts.K, minSim: opts.MinSimilarity, q: q},
		reads: make([]groupRead, len(refs)),
		left:  len(refs),
		done:  make(chan struct{}),
	}
	frames := l.cover()
	l.mu.Lock()
	for g := range l.reads {
		if r := &l.reads[g]; r.first == nil {
			l.decide(r, errors.New("no live replica"))
		}
	}
	for _, f := range frames {
		l.launch(f.ref, f.groups)
	}
	l.mu.Unlock()
	if c.cfg.HedgeDelay > 0 && c.ring.Replicas() > 1 {
		hedge := time.AfterFunc(c.cfg.HedgeDelay, l.hedge)
		defer hedge.Stop()
	}
	select {
	case <-l.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.refusal != nil {
		return nil, l.refusal
	}
	var gerrs []error
	n := 0
	for g, r := range l.reads {
		if r.err != nil {
			if gerrs == nil {
				gerrs = make([]error, len(l.reads))
			}
			gerrs[g] = r.err
		}
		n += len(r.matches)
	}
	if gerrs != nil {
		return nil, c.gatherError(http.StatusBadGateway, gerrs)
	}
	all := make([]aujoin.QueryMatch, 0, n)
	for _, r := range l.reads {
		all = append(all, r.matches...)
	}
	merged := mergeTopK(all, opts.K)
	c.noteMerge(time.Since(start))
	return merged, nil
}

// lookup is one top-k query's reads. Its plan (cover) gives each group to
// one ready worker, and each worker one frame of every group it was given:
// the frame is each of its groups' first attempt. A group whose first
// attempt has not answered when the hedge delay passes, or has failed, goes
// on alone to its other ready replicas, as a replica race: one more attempt
// at the hedge, the next as each attempt fails; the first answer wins, and
// later ones are losers, which read their answers to the end in the
// background and pool their connections again (roundTrip). So a stalled
// worker costs a lookup one hedge delay and is not marked down — slow is not
// dead — and a dead one is marked down once, by its frame. Every attempt
// settles its groups under mu.
type lookup struct {
	c    *Coordinator
	ctx  context.Context // ends when topK returns
	req  frameRequest    // the query; each attempt sends it with its own groups
	refs []*workerRef

	mu      sync.Mutex
	reads   []groupRead // by group
	left    int         // groups not yet decided
	refusal error       // a worker's refusal: the lookup's answer
	over    bool        // every group is decided, or a worker refused: done is closed
	done    chan struct{}
}

// groupRead is one group's read.
type groupRead struct {
	first   *workerRef // the worker whose frame carries the group; nil: no ready worker hosts it
	next    int        // the replica (Ring.Replica) the next backup attempt may go to
	pending int        // attempts in flight
	decided bool
	matches []aujoin.QueryMatch // the answer
	errs    []error             // the failed attempts'
	err     error               // the group's failure: decided with no answer
}

// coverFrame is one frame of a lookup's plan.
type coverFrame struct {
	ref    *workerRef
	groups []int // ascending
}

// cover plans a lookup's frames. It walks the groups from the one the read
// rotation picks, and gives each group not yet given to the ready replica of
// it that hosts the most groups ahead of it, together with every other group
// not yet given that the worker hosts. Replica i of group g is worker g+i,
// which hosts groups g+i−R+1 … g+i, so the last ready replica reaches
// furthest: with every worker ready the plan is ⌈N/R⌉ frames. A worker is
// given at most one frame, and a group none of whose replicas is ready is
// given to none.
func (l *lookup) cover() []coverFrame {
	ring := l.c.ring
	n, reps := ring.Workers(), ring.Replicas()
	given := make([]int, 0, n)
	frames := make([]coverFrame, 0, (n+reps-1)/reps)
	start := int(l.c.rr.Add(1) % uint64(n))
	for i := range n {
		g := (start + i) % n
		if l.reads[g].first != nil {
			continue
		}
		for j := reps - 1; j >= 0; j-- {
			w := ring.Replica(g, j)
			ref := l.refs[w]
			if ref.state.Load() != workerReady {
				continue
			}
			at := len(given)
			for k := range reps {
				if h := ring.Hosted(w, k); l.reads[h].first == nil {
					l.reads[h].first = ref
					given = append(given, h)
				}
			}
			slices.Sort(given[at:])
			frames = append(frames, coverFrame{ref: ref, groups: given[at:len(given):len(given)]})
			break
		}
	}
	return frames
}

// launch starts one attempt: a frame of groups to ref. The caller holds mu.
func (l *lookup) launch(ref *workerRef, groups []int) {
	for _, g := range groups {
		l.reads[g].pending++
	}
	go l.attempt(ref, groups)
}

// attempt reads groups from ref in one frame and settles each group as its
// section of the answer closes.
func (l *lookup) attempt(ref *workerRef, groups []int) {
	req := l.req
	req.groups = groups
	var out []aujoin.QueryMatch
	at := 0
	stream(l.ctx, ref, &req, func(m frameMatch) error {
		out = append(out, aujoin.QueryMatch{Record: m.id, Similarity: m.sim})
		return nil
	}, func(g int, err error) {
		l.settle(g, ref, out[at:len(out):len(out)], err)
		at = len(out)
	})
}

// settle takes one attempt's outcome for group g. An answer decides the
// group. A failure takes ref out and sends the group on to its next replica,
// and decides it as failed once no replica is left and no attempt is in
// flight; a refusal, which every replica would repeat, is the lookup's
// answer. An outcome after the group is decided, or after the lookup ended,
// is a loser's and changes nothing.
func (l *lookup) settle(g int, ref *workerRef, matches []aujoin.QueryMatch, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := &l.reads[g]
	r.pending--
	if r.decided || l.over || l.ctx.Err() != nil {
		return
	}
	switch {
	case err == nil:
		r.matches = matches
		l.decide(r, nil)
	case refused(err):
		l.refusal = err
		l.finish()
	default:
		r.errs = append(r.errs, fmt.Errorf("%s: %w", ref.addr, err))
		l.c.markDown(ref, err)
		if !l.backup(g) && r.pending == 0 {
			l.decide(r, errors.Join(r.errs...))
		}
	}
}

// hedge runs once, when the hedge delay has passed: every group not yet
// decided is sent on to its next replica as well.
func (l *lookup) hedge() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.over {
		return
	}
	for g := range l.reads {
		if !l.reads[g].decided {
			l.backup(g)
		}
	}
}

// backup sends group g alone to the next of its ready replicas other than
// the one its frame went to; false when none is left. The caller holds mu.
func (l *lookup) backup(g int) bool {
	r := &l.reads[g]
	for r.next < l.c.ring.Replicas() {
		ref := l.refs[l.c.ring.Replica(g, r.next)]
		r.next++
		if ref != r.first && ref.state.Load() == workerReady {
			l.launch(ref, []int{g})
			return true
		}
	}
	return false
}

// decide closes group r's read: answered, or failed with err. The caller
// holds mu.
func (l *lookup) decide(r *groupRead, err error) {
	r.decided, r.err = true, err
	if l.left--; l.left == 0 {
		l.finish()
	}
}

// finish ends the lookup's wait. The caller holds mu.
func (l *lookup) finish() {
	if !l.over {
		l.over = true
		close(l.done)
	}
}

// mergeTopK sorts the groups' top-k lists, concatenated in all, into the
// global top k under the engine's total order: similarity descending, stable
// ID ascending on ties — exactly the order a single-node View.Query returns,
// which is what makes cluster answers bit-identical. Sound because each
// group's top k contains every group-local record that can reach the global
// top k.
func mergeTopK(all []aujoin.QueryMatch, k int) []aujoin.QueryMatch {
	slices.SortFunc(all, func(a, b aujoin.QueryMatch) int {
		if c := cmp.Compare(b.Similarity, a.Similarity); c != 0 {
			return c
		}
		return cmp.Compare(a.Record, b.Record)
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
	if requestSize(&frameRequest{op: opProbe, groups: []int{c.ring.Workers() - 1}, records: records}) > maxFrameBytes {
		// Only records that JSON decoding grew (invalid UTF-8 turns into
		// three bytes) can get here from a body within its cap.
		return badRequest(fmt.Sprintf("probe batch is over the %d-byte frame cap", maxFrameBytes))
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
		req := frameRequest{op: opProbe, groups: []int{g}, records: records}
		err := c.probeGroup(fctx, &req, serial)
		if err != nil {
			cancel() // one group failed, or the client hung up: abort every worker stream
		}
		return err
	})
}

// probeGroup streams one group's probe matches to emit, failing over to the
// next replica as long as nothing from this group has been forwarded yet.
func (c *Coordinator) probeGroup(ctx context.Context, req *frameRequest, emit func(ProbeMatch) error) error {
	cands := c.readCandidates(req.groups[0])
	if len(cands) == 0 {
		return errors.New("no live replica")
	}
	var errs []error
	for _, ref := range cands {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		forwarded := 0
		var err error
		stream(ctx, ref, req, func(m frameMatch) error {
			forwarded++
			return emit(ProbeMatch{S: m.id, T: m.pos, Similarity: m.sim})
		}, func(_ int, gerr error) { err = gerr })
		if err == nil {
			return nil
		}
		if forwarded > 0 || ctx.Err() != nil || refused(err) {
			// Mid-stream failure after matches went out, the whole request
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
	req.Seq = lane.seq + 1
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}

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
			err := call(ctx, c.client, ref.addr+"/cluster/apply", json.RawMessage(body), &ar)
			mu.Lock()
			results = append(results, res{resp: &ar, err: err, ref: ref})
			mu.Unlock()
		}(ref)
	}
	wg.Wait()
	// The answer is the first replica's that applied the batch — one that
	// carries a table if any does (the last seed chunk's, see seed).
	var first *ApplyResponse
	for _, r := range results {
		if r.err == nil && (first == nil || len(first.Order) == 0 && len(r.resp.Order) > 0) {
			first = r.resp
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

// BumpEpoch runs a global re-finalize as an epoch bump. Mutations are
// blocked for the duration (mutMu held exclusively); reads never are —
// workers serve from pre-adoption snapshots while their group indexes
// rebuild.
//
// The coordinator collects one key-frequency table per group, all groups at
// once, asking the group's ready replicas in turn until one answers (one
// that fails is not marked down: it may still adopt) — groups partition the
// records, so the tables sum to the global document frequencies — merges
// them into the next frozen order (aujoin.MergeOrderImages) and publishes
// it.
func (c *Coordinator) BumpEpoch(reason string) error {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	ctx := context.Background()
	refs := c.refs()
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
	return c.publish(ctx, order, reason)
}

// publish ships a merged order to every ready worker as the next epoch: the
// step every epoch bump ends in, and the bootstrap's one order step. It is
// one round. Every ready worker adopts the order at once (/cluster/adopt) —
// a group its seed left pending is built under it, any other group index
// rebuilt — while reads keep flowing, and the adopt moves the worker to the
// new epoch. Then the coordinator moves to it. A worker that fails its adopt
// is marked down, and its heartbeat, behind the new epoch, keeps it out
// (checkHealth) until it is resynced (operator intervention; automatic
// resync is future work). One whose adopt was applied but not acknowledged
// reports the new epoch and is readmitted.
func (c *Coordinator) publish(ctx context.Context, order aujoin.OrderImage, reason string) error {
	start := time.Now()
	cur := c.epoch.Load()
	next := cur + 1
	var ready []*workerRef
	for _, ref := range c.refs() {
		if ref.state.Load() == workerReady {
			ready = append(ready, ref)
		}
	}
	if len(ready) == 0 {
		return fmt.Errorf("epoch %d: no ready workers", next)
	}
	payload, err := json.Marshal(OrderPayload{Epoch: next, Order: order})
	if err != nil {
		return err
	}
	acked := c.each(ready, func(ref *workerRef) error {
		if err := call(ctx, c.client, ref.addr+"/cluster/adopt", json.RawMessage(payload), nil); err != nil {
			return fmt.Errorf("adopt epoch %d: %w", next, err)
		}
		return nil
	})
	if acked == 0 {
		return fmt.Errorf("epoch %d: no worker acknowledged the order", next)
	}
	c.epoch.Store(next)
	c.bumps.Add(1)
	c.logf("epoch %d -> %d (%s): %d keys frozen, %d workers, %v",
		cur, next, reason, len(order.Keys), acked, time.Since(start).Round(time.Millisecond))
	return nil
}

// each runs op on every worker of refs at once and returns how many it
// succeeded on; a worker it failed on is marked down.
func (c *Coordinator) each(refs []*workerRef, op func(*workerRef) error) int {
	errs := make([]error, len(refs))
	var wg sync.WaitGroup
	for i, ref := range refs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = op(ref)
		}()
	}
	wg.Wait()
	ok := 0
	for i, ref := range refs {
		if errs[i] != nil {
			c.markDown(ref, errs[i])
			continue
		}
		ok++
	}
	return ok
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

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/cluster"
	"github.com/aujoin/aujoin/internal/cmdutil"
	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// corpus is the generated input of one run: the catalog, the pool the op
// list draws from, and the knowledge sources in the text form the daemons
// read (-synonyms / -taxonomy files).
type corpus struct {
	catalog []string
	pool    []string // probes: half variants of catalog records, half unrelated
	rules   []byte
	tax     []byte
}

// corpusSeed fixes the knowledge sources — vocabulary, taxonomy, synonym
// rules — and the universe of base records for every run: they are the
// deployment's long-lived assets. The run's seed draws the catalog and the
// probes from that universe, so two seeds differ by sampling alone, not by
// how well their vocabularies happen to overlap.
const corpusSeed = 20190811

// universeFactor is the size of the universe in catalogs.
const universeFactor = 4

// generate builds the run's inputs from the seed. A query's cost grows
// twelvefold from a two-token to a nine-token record, so a simple random
// sample would make the seed decide how heavy the run is; instead the catalog
// and the probes the op list uses are stratified by token count: every seed
// gets the universe's mix of record lengths and differs in which records of
// each length it drew. Of those probes, half are variants (typo, synonym
// swap, taxonomy-sibling swap) of catalog records and half are universe
// records outside the catalog; the rest of the pool, which only the traced
// run's own mutations reach, is filled the same way without stratifying.
func generate(s spec, seed int64) (*corpus, error) {
	g := datagen.New(s.corpusConfig(corpusSeed))
	universe := g.Collection(universeFactor * s.records)
	rng := rand.New(rand.NewSource(seed))
	// The universe in order of token count, each length class shuffled.
	tokens := make([]int, len(universe))
	for i, r := range universe {
		tokens[i] = len(strutil.Tokenize(r))
	}
	byLength := rng.Perm(len(universe))
	sort.SliceStable(byLength, func(a, b int) bool { return tokens[byLength[a]] < tokens[byLength[b]] })
	var inCatalog, outside []int // both still in order of token count
	for k, i := range byLength {
		if k%universeFactor == 0 {
			inCatalog = append(inCatalog, i)
		} else {
			outside = append(outside, i)
		}
	}
	n := s.records
	c := &corpus{catalog: make([]string, n), pool: make([]string, 0, n)}
	for k, at := range rng.Perm(n) {
		c.catalog[at] = universe[inCatalog[k]]
	}
	// every returns the k-th of m evenly spaced picks from a list.
	every := func(list []int, k, m int) int { return list[k*len(list)/m] }
	m := min(s.probes(), n)
	used := map[int]bool{}
	for k := 0; k < m; k++ {
		if k%2 == 0 {
			v, _ := g.Variant(universe[every(inCatalog, k/2, (m+1)/2)])
			c.pool = append(c.pool, v)
		} else {
			i := every(outside, k/2, m/2)
			used[i] = true
			c.pool = append(c.pool, universe[i])
		}
	}
	rng.Shuffle(m, func(a, b int) { c.pool[a], c.pool[b] = c.pool[b], c.pool[a] })
	var spare []int // outside records no probe has taken yet
	for _, i := range outside {
		if !used[i] {
			spare = append(spare, i)
		}
	}
	rng.Shuffle(len(spare), func(a, b int) { spare[a], spare[b] = spare[b], spare[a] })
	for k := m; k < n; k++ {
		if k%2 == 0 {
			v, _ := g.Variant(c.catalog[rng.Intn(n)])
			c.pool = append(c.pool, v)
		} else {
			c.pool = append(c.pool, universe[spare[k-m]])
		}
	}
	var rb, tb bytes.Buffer
	if err := g.Rules().Write(&rb); err != nil {
		return nil, fmt.Errorf("write rules: %w", err)
	}
	if err := g.Taxonomy().Write(&tb); err != nil {
		return nil, fmt.Errorf("write taxonomy: %w", err)
	}
	c.rules, c.tax = rb.Bytes(), tb.Bytes()
	return c, nil
}

// fromTail returns the n-th pool record from the end: the part of the pool
// the op list does not reach, used for the traced run's own mutations.
func (c *corpus) fromTail(n int) string { return c.pool[len(c.pool)-1-n%len(c.pool)] }

// publicJoiner builds the aujoin.Joiner a daemon would build from the
// corpus's rule and taxonomy files.
func (c *corpus) publicJoiner(s spec) (*aujoin.Joiner, error) {
	return aujoin.NewStrict(
		aujoin.WithSynonymsFrom(bytes.NewReader(c.rules)),
		aujoin.WithTaxonomyFrom(bytes.NewReader(c.tax)),
		aujoin.WithGramLength(s.q),
	)
}

// internalJoiner builds a join.Joiner over the same files, for the oracle
// and the per-layer measurements. Parsing the same bytes the public Joiner
// parsed makes the two contexts compute bit-identical similarities.
func (c *corpus) internalJoiner(s spec) (*join.Joiner, error) {
	rules, err := synonym.Read(bytes.NewReader(c.rules))
	if err != nil {
		return nil, fmt.Errorf("read rules: %w", err)
	}
	tax, err := taxonomy.Read(bytes.NewReader(c.tax))
	if err != nil {
		return nil, fmt.Errorf("read taxonomy: %w", err)
	}
	ctx := sim.NewContext(rules, tax)
	ctx.Q = s.q
	return join.NewJoiner(ctx), nil
}

func (s spec) joinOptions() aujoin.JoinOptions {
	return aujoin.JoinOptions{Theta: s.theta, Tau: s.tau, Filter: cmdutil.ParseFilter(s.filter)}
}

// queryOpts is the in-process form of the lookups' request parameters.
func (s spec) queryOpts() join.QueryOpts {
	if s.fixedPlan {
		return join.QueryOpts{Plan: join.PlanFixed}
	}
	return join.QueryOpts{}
}

func (s spec) internalOptions() join.Options {
	return join.Options{Theta: s.theta, Tau: s.tau, Method: s.method()}
}

// target is a booted engine under test. Lookups and churn talk to url over
// one keep-alive connection; a join workload only has the joiner.
type target struct {
	spec   spec
	url    string
	client *http.Client
	joiner *aujoin.Joiner
	// cluster only
	coord   *cluster.Coordinator
	workers []string
	// churn only
	px  *aujoin.PersistentIndex
	dir string

	closers []func()
}

// stop shuts the servers down and waits for them; the durable workload's
// data directory stays, so it can be opened again.
func (t *target) stop() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
	t.client.CloseIdleConnections()
}

func (t *target) close() {
	t.stop()
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * runtime.GOMAXPROCS(0),
		MaxIdleConnsPerHost: runtime.GOMAXPROCS(0),
	}}
}

// boot starts the engine the workload measures, with the daemons' defaults
// (hedge 50 ms, heartbeat 500 ms, rebuild fraction 0.25, 64 segments).
func boot(s spec, c *corpus, scratchDir string) (*target, error) {
	j, err := c.publicJoiner(s)
	if err != nil {
		return nil, err
	}
	t := &target{spec: s, client: newClient(), joiner: j}
	switch s.kind {
	case kindJoin:
		return t, nil
	case kindNode:
		ix := j.IndexWith(c.catalog, s.joinOptions(), aujoin.IndexOptions{Shards: s.shards})
		t.serveNode(&cluster.Backend{IX: ix})
		return t, nil
	case kindChurn:
		dir, err := os.MkdirTemp(scratchDir, "churn-")
		if err != nil {
			return nil, err
		}
		t.dir = dir
		if err := t.openDurable(s, c.catalog); err != nil {
			t.close()
			return nil, err
		}
		return t, nil
	default:
		if err := t.bootCluster(s, c); err != nil {
			t.close()
			return nil, err
		}
		return t, nil
	}
}

func (t *target) serveNode(be *cluster.Backend) {
	node := cluster.NewNode()
	node.SetBackend(be)
	ts := httptest.NewServer(node.Mux())
	t.url = ts.URL
	t.closers = append(t.closers, ts.Close)
}

// openDurable opens (or, on a fresh directory, builds and checkpoints) the
// persistent index in t.dir and serves it. Reopening an existing directory
// ignores the catalog: the durable state wins.
func (t *target) openDurable(s spec, catalog []string) error {
	px, err := t.joiner.OpenPersistent(t.dir, catalog, s.joinOptions(), aujoin.IndexOptions{Shards: s.shards})
	if err != nil {
		return fmt.Errorf("open data dir: %w", err)
	}
	t.px = px
	t.closers = append(t.closers, func() { px.Close() })
	t.serveNode(&cluster.Backend{IX: px.Index(), PX: px})
	return nil
}

// checkpoint folds the durable node's log into a snapshot, as an operator's
// POST /snapshot does.
func (t *target) checkpoint() error {
	resp, err := t.client.Post(t.url+"/snapshot", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("checkpoint: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

const clusterWorkers, clusterReplicas = 3, 2

func (t *target) bootCluster(s spec, c *corpus) error {
	ctx, cancel := context.WithCancel(context.Background())
	t.closers = append(t.closers, cancel)
	t.coord = cluster.NewCoordinator(cluster.CoordConfig{
		Workers: clusterWorkers, Replicas: clusterReplicas,
		Theta: s.theta, Tau: s.tau, Filter: s.filter, Catalog: c.catalog,
	})
	cts := httptest.NewServer(t.coord.Mux())
	t.url = cts.URL
	t.closers = append(t.closers, cts.Close)
	done := make(chan struct{})
	go func() { defer close(done); t.coord.Run(ctx) }()
	t.closers = append(t.closers, func() { cancel(); <-done })
	for i := 0; i < clusterWorkers; i++ {
		j, err := c.publicJoiner(s)
		if err != nil {
			return err
		}
		wts := httptest.NewServer(cluster.NewWorkerNode(cluster.NewWorker(j, s.shards)).Mux())
		t.workers = append(t.workers, wts.URL)
		t.closers = append(t.closers, wts.Close)
		if err := cluster.RegisterWorker(ctx, t.client, cts.URL, wts.URL); err != nil {
			return fmt.Errorf("register worker %d: %w", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Minute)
	for !t.coord.Ready() {
		if err := t.coord.BootstrapErr(); err != nil {
			return fmt.Errorf("cluster bootstrap: %w", err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster did not become ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// queryPath is the URL path and query string of one top-k lookup.
func (s spec) queryPath(q string) string {
	path := "/query?k=" + strconv.Itoa(topK) + "&q=" + url.QueryEscape(q)
	if s.fixedPlan {
		path += "&plan=fixed"
	}
	return path
}

// opKind is the type of one scripted operation.
type opKind byte

const (
	opQuery opKind = iota
	opInsert
	opRemove
	opJoin
)

func (k opKind) String() string {
	return [...]string{"query", "insert", "remove", "join"}[k]
}

// op is one entry of a pass's script. A query carries its ready-made URL
// path, an insert its ready-made body; a remove names the insert op whose
// returned ids it deletes, so its body is only known while the pass runs.
type op struct {
	kind opKind
	text string // query string (opQuery)
	path string // "/query?k=10&q=…" (opQuery)
	body []byte // JSON body (opInsert)
	recs []string
	ref  int // index of the paired insert op (opRemove)
	// lo, hi bound the batch of pool records an opJoin joins with the catalog.
	lo, hi int
}

// buildOps derives the op list from the corpus: queries are drawn from the
// pool without replacement, inserts take the following pool records, and
// mutations are interleaved at fixed positions so that every pass leaves
// the live set as it found it. A join pass joins the catalog with the whole
// pool, one batch of the pool an op.
func buildOps(s spec, c *corpus) []op {
	if s.kind == kindJoin {
		ops := make([]op, s.batches)
		for b := range ops {
			ops[b] = op{kind: opJoin, lo: b * len(c.pool) / s.batches, hi: (b + 1) * len(c.pool) / s.batches}
		}
		return ops
	}
	next := 0
	take := func() string { r := c.pool[next%len(c.pool)]; next++; return r }
	query := func() op {
		q := take()
		return op{kind: opQuery, text: q, path: s.queryPath(q)}
	}
	if s.inserts == 0 {
		ops := make([]op, s.queries)
		for i := range ops {
			ops[i] = query()
		}
		return ops
	}
	perSlot := s.queries / (2 * s.inserts)
	var ops []op
	insertAt := make([]int, s.inserts)
	remove := func(i int) { ops = append(ops, op{kind: opRemove, ref: insertAt[i]}) }
	for i := 0; i < s.inserts; i++ {
		for k := 0; k < perSlot; k++ {
			ops = append(ops, query())
		}
		recs := make([]string, insertBatch)
		for k := range recs {
			recs[k] = take()
		}
		body, _ := json.Marshal(cluster.InsertRequest{Records: recs})
		insertAt[i] = len(ops)
		ops = append(ops, op{kind: opInsert, body: body, recs: recs})
		for k := 0; k < perSlot; k++ {
			ops = append(ops, query())
		}
		if i >= removeLag {
			remove(i - removeLag)
		}
	}
	for i := max(s.inserts-removeLag, 0); i < s.inserts; i++ {
		remove(i)
	}
	for len(ops) < s.queries+2*s.inserts {
		ops = append(ops, query())
	}
	return ops
}

// opResult is what one executed op returned.
type opResult struct {
	matches []aujoin.QueryMatch // opQuery
	ids     []int               // opInsert
	err     error
}

// httpOp issues one scripted op and decodes its answer. Spans are recorded
// when tr is non-nil (the traced pass).
func (t *target) httpOp(o *op, ids []int, tr *tracer, request int) opResult {
	root := tr.begin(0, request, "request")
	enc := tr.begin(root, request, "client.encode")
	var req *http.Request
	var err error
	switch o.kind {
	case opQuery:
		req, err = http.NewRequest(http.MethodGet, t.url+o.path, nil)
	case opInsert:
		req, err = http.NewRequest(http.MethodPost, t.url+"/insert", bytes.NewReader(o.body))
	case opRemove:
		body, _ := json.Marshal(cluster.RemoveBatchRequest{IDs: ids})
		req, err = http.NewRequest(http.MethodPost, t.url+"/remove-batch", bytes.NewReader(body))
	}
	tr.end(enc)
	if err != nil {
		tr.end(root)
		return opResult{err: err}
	}
	rt := tr.begin(root, request, "http.roundtrip")
	resp, err := t.client.Do(req)
	tr.end(rt)
	if err != nil {
		tr.end(root)
		return opResult{err: err}
	}
	dec := tr.begin(root, request, "client.decode")
	res := decodeResponse(o.kind, resp, len(ids))
	tr.end(dec)
	tr.end(root)
	return res
}

func decodeResponse(k opKind, resp *http.Response, removed int) opResult {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return opResult{err: fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))}
	}
	var res opResult
	switch k {
	case opQuery:
		res.matches = []aujoin.QueryMatch{}
		res.err = cmdutil.DecodeNDJSON(resp.Body, func(m aujoin.QueryMatch) error {
			res.matches = append(res.matches, m)
			return nil
		})
	case opInsert:
		var ir cluster.InsertResponse
		if res.err = json.NewDecoder(resp.Body).Decode(&ir); res.err == nil && len(ir.IDs) != insertBatch {
			res.err = fmt.Errorf("insert returned %d ids, want %d", len(ir.IDs), insertBatch)
		}
		res.ids = ir.IDs
	case opRemove:
		var rr cluster.RemoveBatchResponse
		if res.err = json.NewDecoder(resp.Body).Decode(&rr); res.err == nil && rr.RemovedCount != removed {
			res.err = fmt.Errorf("removed %d of %d ids", rr.RemovedCount, removed)
		}
	}
	return res
}

// query fetches one top-k answer outside a scripted pass (oracle checks,
// per-hop measurements). extra is appended to the URL; an epoch ≥ 0 stamps
// the request the way the coordinator stamps worker reads.
func (t *target) query(base, q, extra string, epoch int64) ([]aujoin.QueryMatch, error) {
	req, err := http.NewRequest(http.MethodGet, base+t.spec.queryPath(q)+extra, nil)
	if err != nil {
		return nil, err
	}
	if epoch >= 0 {
		req.Header.Set(cluster.EpochHeader, strconv.FormatInt(epoch, 10))
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	res := decodeResponse(opQuery, resp, 0)
	return res.matches, res.err
}

package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/cmdutil"
	"github.com/aujoin/aujoin/internal/store"
)

// testCluster is an in-process cluster: a coordinator and N worker daemons,
// all on loopback httptest servers, speaking the real protocol — JSON over
// HTTP, and frames for the group reads.
type testCluster struct {
	coord   *Coordinator
	coordTS *httptest.Server
	workers []*httptest.Server
	nodes   []*Worker // nodes[i] serves behind workers[i]
}

// clusterOpts adjusts the cluster startCluster boots; every field is
// optional. The fault tests stall or doctor worker traffic through wrap (the
// HTTP control plane, and the upgrade that opens a frame connection) and
// frames (every group read).
type clusterOpts struct {
	// wrap stands in front of worker i's HTTP handler.
	wrap func(i int, h http.Handler) http.Handler
	// frames is worker i's frameHook.
	frames func(ctx context.Context, i int, req *frameRequest) error
	// server configures every worker's http.Server before it starts.
	server func(*http.Server)
	// joiner builds each worker's joiner (nil: aujoin.NewStrict()).
	joiner func() (*aujoin.Joiner, error)
	// heartbeat is the coordinator's health-check interval (0: 100 ms).
	heartbeat time.Duration
	// hedge is the coordinator's HedgeDelay (0: 20 ms).
	hedge time.Duration
}

// startCluster boots a coordinator and n workers with r-way replication,
// seeds the catalog, and blocks until the cluster is ready (which includes
// the bootstrap epoch bump).
func startCluster(t testing.TB, n, r int, catalog []string, theta float64, tau int, filter string, opts ...clusterOpts) *testCluster {
	t.Helper()
	var o clusterOpts
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.joiner == nil {
		o.joiner = func() (*aujoin.Joiner, error) { return aujoin.NewStrict() }
	}
	if o.heartbeat == 0 {
		o.heartbeat = 100 * time.Millisecond
	}
	if o.hedge == 0 {
		o.hedge = 20 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	coord := NewCoordinator(CoordConfig{
		Workers: n, Replicas: r, Theta: theta, Tau: tau, Filter: filter,
		Catalog:   catalog,
		Heartbeat: o.heartbeat, HedgeDelay: o.hedge,
		SyncFraction: -1, // bumps are driven explicitly by the tests
		Logf:         t.Logf,
	})
	coordTS := httptest.NewServer(coord.Mux())
	ran := make(chan struct{})
	go func() { defer close(ran); coord.Run(ctx) }()
	tc := &testCluster{coord: coord, coordTS: coordTS}
	t.Cleanup(func() {
		cancel()
		<-ran // Run closes the coordinator's frame connections on its way out
		coordTS.Close()
		for i, w := range tc.workers {
			w.Close() // idempotent: already-killed workers are fine
			tc.nodes[i].Close()
		}
	})
	for i := 0; i < n; i++ {
		j, err := o.joiner()
		if err != nil {
			t.Fatalf("joiner: %v", err)
		}
		wk := NewWorker(j, 1)
		if o.frames != nil {
			wk.frameHook = func(ctx context.Context, req *frameRequest) error { return o.frames(ctx, i, req) }
		}
		tc.nodes = append(tc.nodes, wk)
		var h http.Handler = NewWorkerNode(wk).Mux()
		if o.wrap != nil {
			h = o.wrap(i, h)
		}
		wts := httptest.NewUnstartedServer(h)
		if o.server != nil {
			o.server(wts.Config)
		}
		wts.Start()
		tc.workers = append(tc.workers, wts)
		if err := RegisterWorker(ctx, http.DefaultClient, coordTS.URL, wts.URL); err != nil {
			t.Fatalf("register worker %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Minute)
	for !coord.Ready() {
		if err := coord.BootstrapErr(); err != nil {
			t.Fatalf("bootstrap: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster did not become ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return tc
}

// kill hard-stops worker i and waits for the coordinator to fail it out.
func (tc *testCluster) kill(t *testing.T, i int) {
	t.Helper()
	addr := tc.workers[i].URL
	tc.workers[i].CloseClientConnections()
	tc.workers[i].Close()
	tc.nodes[i].Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, w := range tc.coord.Stats().Workers {
			if w.Addr == addr && w.State == "down" {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never marked %s down", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (tc *testCluster) topK(t *testing.T, q string, k int) []aujoin.QueryMatch {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/query?q=%s&k=%d", tc.coordTS.URL, url.QueryEscape(q), k))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %q: status %d", q, resp.StatusCode)
	}
	var out []aujoin.QueryMatch
	if err := cmdutil.DecodeNDJSON(resp.Body, func(m aujoin.QueryMatch) error {
		out = append(out, m)
		return nil
	}); err != nil {
		t.Fatalf("decode query stream: %v", err)
	}
	return out
}

func (tc *testCluster) probe(t *testing.T, records []string) []ProbeMatch {
	t.Helper()
	body, _ := json.Marshal(ProbeRequest{Records: records})
	resp, err := http.Post(tc.coordTS.URL+"/probe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe: status %d", resp.StatusCode)
	}
	var out []ProbeMatch
	if err := cmdutil.DecodeNDJSON(resp.Body, func(m ProbeMatch) error {
		out = append(out, m)
		return nil
	}); err != nil {
		t.Fatalf("decode probe stream: %v", err)
	}
	return out
}

func (tc *testCluster) insert(t *testing.T, records []string) []int {
	t.Helper()
	body, _ := json.Marshal(InsertRequest{Records: records})
	resp, err := http.Post(tc.coordTS.URL+"/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	defer resp.Body.Close()
	var ir InsertResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d (%v)", resp.StatusCode, err)
	}
	return ir.IDs
}

func (tc *testCluster) removeBatch(t *testing.T, ids []int) []bool {
	t.Helper()
	body, _ := json.Marshal(RemoveBatchRequest{IDs: ids})
	resp, err := http.Post(tc.coordTS.URL+"/remove-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("remove-batch: %v", err)
	}
	defer resp.Body.Close()
	var rr RemoveBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("remove-batch: status %d (%v)", resp.StatusCode, err)
	}
	return rr.Removed
}

func (tc *testCluster) bump(t *testing.T) {
	t.Helper()
	resp, err := http.Post(tc.coordTS.URL+"/epoch/bump", "application/json", nil)
	if err != nil {
		t.Fatalf("epoch bump: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch bump: status %d", resp.StatusCode)
	}
}

// equivalenceQueries mixes exact catalog strings, partial overlaps and a
// no-match query so the comparison exercises full, fuzzy and empty results.
var equivalenceQueries = []string{
	"espresso cafe helsinki city center north",
	"espresso cafe helsinki center",
	"apple cake bakery market street old",
	"apple bakery market",
	"database systems course spring term west",
	"database course spring",
	"espresso cafe helsinki city center",
	"apple cake bakery market street",
	"zz unrelated tokens qq",
}

// checkEquivalence asserts the cluster's answers are bit-identical to the
// single-node reference index: QueryTopK at small and large k (values AND
// order), and the probe match set.
func checkEquivalence(t *testing.T, tc *testCluster, ref *aujoin.Index, probes []string, stage string) {
	t.Helper()
	for _, q := range equivalenceQueries {
		for _, k := range []int{10, 500} {
			got := tc.topK(t, q, k)
			want := ref.QueryTopK(q, k)
			if len(got) != len(want) {
				t.Fatalf("%s: query %q k=%d: cluster %d matches, single-node %d", stage, q, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: query %q k=%d: match %d differs: cluster %+v, single-node %+v",
						stage, q, k, i, got[i], want[i])
				}
			}
		}
	}
	got := tc.probe(t, probes)
	want, _ := ref.Probe(probes)
	if len(got) != len(want) {
		t.Fatalf("%s: probe: cluster %d matches, single-node %d", stage, len(got), len(want))
	}
	seen := make(map[ProbeMatch]bool, len(got))
	for _, m := range got {
		seen[m] = true
	}
	for _, m := range want {
		if !seen[ProbeMatch{S: m.S, T: m.T, Similarity: m.Similarity}] {
			t.Fatalf("%s: probe: single-node match %+v missing from cluster", stage, m)
		}
	}
}

// TestClusterEquivalence is the cluster's ground truth: a 3-worker cluster
// with 2-way replication must return bit-identical Query/QueryTopK/Probe
// results to a single-node index over the same catalog — after seeding,
// after an identical mutation sequence, after a coordinator-driven global
// re-finalize (epoch bump), after killing one worker mid-workload, and
// after mutating and bumping again with the worker still dead. Under -short
// one (filter, θ) combination runs; the full matrix is 3 filters × 3
// thresholds.
func TestClusterEquivalence(t *testing.T) {
	combos := []struct {
		filter string
		theta  float64
	}{{"dp", 0.8}}
	if !testing.Short() {
		combos = nil
		for _, f := range []string{"u", "heuristic", "dp"} {
			for _, th := range []float64{0.7, 0.8, 0.9} {
				combos = append(combos, struct {
					filter string
					theta  float64
				}{f, th})
			}
		}
	}
	for _, cb := range combos {
		t.Run(fmt.Sprintf("%s-theta%v", cb.filter, cb.theta), func(t *testing.T) {
			catalog := denseCatalog(180, 7)
			probes := denseCatalog(15, 8)
			tc := startCluster(t, 3, 2, catalog, cb.theta, 2, cb.filter)

			j, err := aujoin.NewStrict()
			if err != nil {
				t.Fatalf("NewStrict: %v", err)
			}
			jopts := aujoin.JoinOptions{Theta: cb.theta, Tau: 2, Filter: cmdutil.ParseFilter(cb.filter)}
			ref := j.IndexWith(catalog, jopts, aujoin.IndexOptions{Shards: 1})
			checkEquivalence(t, tc, ref, probes, "seeded")

			// Identical mutation sequence on both sides: IDs must agree
			// (the coordinator allocates exactly like a single node), then
			// results must stay identical.
			extra := denseCatalog(24, 9)
			gotIDs := tc.insert(t, extra)
			wantIDs := ref.Insert(extra)
			if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
				t.Fatalf("insert IDs diverge: cluster %v, single-node %v", gotIDs, wantIDs)
			}
			rm := []int{gotIDs[0], 3, 17, 171, 99999}
			gotRm := tc.removeBatch(t, rm)
			wantRm := ref.RemoveBatch(rm)
			if fmt.Sprint(gotRm) != fmt.Sprint(wantRm) {
				t.Fatalf("remove flags diverge: cluster %v, single-node %v", gotRm, wantRm)
			}
			checkEquivalence(t, tc, ref, probes, "mutated")

			// Global re-finalize: results must be identical under the new
			// frozen order (exactness is order-independent).
			tc.bump(t)
			checkEquivalence(t, tc, ref, probes, "after epoch bump")

			// Kill one worker: R=2 keeps every group served by its other
			// replica, reads fail over, writes keep applying.
			tc.kill(t, 1)
			checkEquivalence(t, tc, ref, probes, "one worker down")

			extra2 := denseCatalog(10, 10)
			ids2 := tc.insert(t, extra2)
			want2 := ref.Insert(extra2)
			if fmt.Sprint(ids2) != fmt.Sprint(want2) {
				t.Fatalf("post-kill insert IDs diverge: cluster %v, single-node %v", ids2, want2)
			}
			checkEquivalence(t, tc, ref, probes, "mutated with worker down")

			tc.bump(t)
			checkEquivalence(t, tc, ref, probes, "epoch bump with worker down")
		})
	}
}

// TestClusterShipsSingleNodeOrder holds the order an epoch bump ships to the
// single-node order. Answers are exact under any order, so the equivalence
// grid cannot see a wrong frequency merge; this test reads the frozen order
// every hosted group serves under, from the group index's snapshot, and
// requires the single-node index's KeyFrequencies over the same history, key
// for key and count for count, with nothing in the dynamic region — after the
// bootstrap bump, after mutating and bumping, and after mutating and bumping
// with a worker down.
func TestClusterShipsSingleNodeOrder(t *testing.T) {
	catalog := denseCatalog(180, 7)
	tc := startCluster(t, 3, 2, catalog, 0.8, 2, "dp")
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.8, Tau: 2, Filter: cmdutil.ParseFilter("dp")}, aujoin.IndexOptions{Shards: 1})

	requireSingleNodeOrder(t, tc, ref, "bootstrap", -1)

	extra := denseCatalog(24, 9)
	tc.insert(t, extra)
	ref.Insert(extra)
	rm := []int{3, 17, 171, 185}
	tc.removeBatch(t, rm)
	ref.RemoveBatch(rm)
	tc.bump(t)
	requireSingleNodeOrder(t, tc, ref, "mutated and bumped", -1)

	tc.kill(t, 1)
	extra2 := denseCatalog(10, 10)
	tc.insert(t, extra2)
	ref.Insert(extra2)
	tc.bump(t)
	requireSingleNodeOrder(t, tc, ref, "mutated and bumped with worker 1 down", 1)
}

// requireSingleNodeOrder reads the frozen order every hosted group of every
// worker but down serves under, from the group index's snapshot, and
// requires the single-node index's KeyFrequencies, key for key and count for
// count, with nothing in the dynamic region.
func requireSingleNodeOrder(t *testing.T, tc *testCluster, ref *aujoin.Index, stage string, down int) {
	t.Helper()
	want := ref.KeyFrequencies()
	groups := 0
	for i, wk := range tc.nodes {
		if i == down {
			continue
		}
		wk.mu.Lock()
		hosted := make(map[int]*workerGroup, len(wk.groups))
		for g, wg := range wk.groups {
			hosted[g] = wg
		}
		wk.mu.Unlock()
		for g, wg := range hosted {
			var buf bytes.Buffer
			if _, err := wg.IX.WriteSnapshot(&buf); err != nil {
				t.Fatalf("%s: worker %d group %d: snapshot: %v", stage, i, g, err)
			}
			snap, err := store.Decode(buf.Bytes())
			if err != nil {
				t.Fatalf("%s: worker %d group %d: decode: %v", stage, i, g, err)
			}
			got := snap.Order
			freqs := make([]int, len(got.Freqs))
			for k, f := range got.Freqs {
				freqs[k] = int(f)
			}
			if !slices.Equal(got.FrozenKeys, want.Keys) || !slices.Equal(freqs, want.Freqs) || len(got.DynamicKeys) != 0 {
				t.Fatalf("%s: worker %d group %d serves %d frozen and %d dynamic keys, not the single-node order of %d keys",
					stage, i, g, len(got.FrozenKeys), len(got.DynamicKeys), len(want.Keys))
			}
			groups++
		}
	}
	if groups == 0 {
		t.Fatalf("%s: no hosted group was read", stage)
	}
}

// TestBumpEpochFailsOverFreqs: worker 0 answers 500 on /cluster/freqs, so
// the primary replica of group 0 cannot give the group's frequency table. An
// epoch bump — the bootstrap one and a later one — must take the table from
// the group's other replica and still ship the single-node order, and leave
// worker 0 in service: it still adopts and commits.
func TestBumpEpochFailsOverFreqs(t *testing.T) {
	failFreqs := func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && r.URL.Path == "/cluster/freqs" {
				http.Error(w, "injected failure", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	catalog := denseCatalog(180, 7)
	tc := startCluster(t, 3, 2, catalog, 0.8, 2, "dp", clusterOpts{wrap: failFreqs})
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.8, Tau: 2, Filter: cmdutil.ParseFilter("dp")}, aujoin.IndexOptions{Shards: 1})
	requireSingleNodeOrder(t, tc, ref, "bootstrap", -1)

	extra := denseCatalog(24, 9)
	tc.insert(t, extra)
	ref.Insert(extra)
	if err := tc.coord.BumpEpoch("test"); err != nil {
		t.Fatalf("BumpEpoch with worker 0's frequency table failing: %v", err)
	}
	requireSingleNodeOrder(t, tc, ref, "mutated and bumped", -1)
	for _, w := range tc.coord.Stats().Workers {
		if w.State != "ready" {
			t.Errorf("worker %s is %s after the bumps, want ready", w.Addr, w.State)
		}
	}
}

// TestWorkerRefusalKeepsReplicas: a request every replica refuses with a 400
// fails the request, not the replicas: the client gets the 400, no worker is
// marked down, and the next query is served. An /insert body within the
// coordinator's cap outgrows a worker's once the coordinator re-encodes it
// for /cluster/apply (json.Marshal writes '<' as the six bytes \u003c); a
// probe's records travel as raw bytes in a frame and cannot outgrow, so its
// refusal is injected at the workers' frame server.
func TestWorkerRefusalKeepsReplicas(t *testing.T) {
	catalog := denseCatalog(60, 5)
	var refusals atomic.Int32
	tc := startCluster(t, 3, 2, catalog, 0.7, 2, "dp", clusterOpts{frames: func(_ context.Context, _ int, req *frameRequest) error {
		if req.op == opProbe {
			refusals.Add(1)
			return badRequest("injected refusal")
		}
		return nil
	}})
	for _, c := range []struct{ route, body, error string }{
		{"/probe", `{"records":["espresso cafe helsinki"]}`, "injected refusal"},
		{"/insert", `{"records":["` + strings.Repeat("<", 2<<20) + `"]}`, ""},
	} {
		resp, err := http.Post(tc.coordTS.URL+c.route, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.route, err)
		}
		var eb ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || eb.Error == "" || (c.error != "" && eb.Error != c.error) {
			t.Errorf("%s: status %d, body %+v (%v); want the workers' 400", c.route, resp.StatusCode, eb, err)
		}
		for _, w := range tc.coord.Stats().Workers {
			if w.State != "ready" {
				t.Errorf("after %s: worker %s is %s, want ready", c.route, w.Addr, w.State)
			}
		}
		tc.topK(t, catalog[0], 5)
	}
	if refusals.Load() == 0 {
		t.Fatal("no probe reached a worker's frame server; nothing was tested")
	}
}

// TestProbeForwardsRawRecords: a probe batch heavy in '<', '>' and '&' whose
// client body fits the cap is answered like a single node. JSON re-encoding
// would write each of those bytes as six and take the batch over a worker's
// cap; a frame carries the records' raw bytes.
func TestProbeForwardsRawRecords(t *testing.T) {
	tag := func(records []string) []string {
		out := make([]string, len(records))
		for i, r := range records {
			out[i] = "<b>" + strings.ReplaceAll(r, " ", "</b> & <b>") + "</b>"
		}
		return out
	}
	catalog := tag(denseCatalog(90, 5))
	probes := tag(denseCatalog(12, 6))
	filler := strings.TrimSpace(strings.Repeat(strings.Repeat("<>&", 166)+" ", 10))
	for range 300 {
		probes = append(probes, filler)
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(ProbeRequest{Records: probes}); err != nil {
		t.Fatal(err)
	}
	escaped, _ := json.Marshal(ProbeRequest{Records: probes})
	if body.Len() > maxBodyBytes || len(escaped) <= maxBodyBytes {
		t.Fatalf("client body %d bytes, re-encoded %d: want the first within the %d-byte cap and the second over it",
			body.Len(), len(escaped), maxBodyBytes)
	}

	tc := startCluster(t, 3, 2, catalog, 0.7, 2, "dp")
	resp, err := http.Post(tc.coordTS.URL+"/probe", "application/json", &body)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		eb, _ := io.ReadAll(resp.Body)
		t.Fatalf("probe: status %d: %s", resp.StatusCode, eb)
	}
	var got []ProbeMatch
	if err := cmdutil.DecodeNDJSON(resp.Body, func(m ProbeMatch) error {
		got = append(got, m)
		return nil
	}); err != nil {
		t.Fatalf("decode probe stream: %v", err)
	}
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.7, Tau: 2, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})
	want, _ := ref.Probe(probes)
	if len(want) == 0 {
		t.Fatal("the single node finds no match; the comparison would be vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("cluster %d matches, single-node %d", len(got), len(want))
	}
	seen := make(map[ProbeMatch]bool, len(got))
	for _, m := range got {
		seen[m] = true
	}
	for _, m := range want {
		if !seen[ProbeMatch{S: m.S, T: m.T, Similarity: m.Similarity}] {
			t.Fatalf("single-node match %+v missing from cluster", m)
		}
	}
}

// TestRegisterRefusesPastExpectedCount pins who a registration admits: a
// one-worker coordinator keeps accepting its member's re-registration and
// refuses a second address — accepted:false on the wire, and an error from
// RegisterWorker instead of a worker waiting for a configuration that will
// never come.
func TestRegisterRefusesPastExpectedCount(t *testing.T) {
	tc := startCluster(t, 1, 1, nil, 0.7, 2, "dp")
	register := func(addr string) RegisterResponse {
		t.Helper()
		var resp RegisterResponse
		if err := call(context.Background(), http.DefaultClient, tc.coordTS.URL+"/cluster/register", RegisterRequest{Addr: addr}, &resp); err != nil {
			t.Fatalf("register %s: %v", addr, err)
		}
		return resp
	}
	const stranger = "http://127.0.0.1:1"
	if resp := register(stranger); resp.Accepted {
		t.Errorf("a second address was accepted by a one-worker coordinator: %+v", resp)
	}
	if err := RegisterWorker(context.Background(), nil, tc.coordTS.URL, stranger); err == nil {
		t.Error("RegisterWorker returned no error for a refused address")
	}
	if resp := register(tc.workers[0].URL); !resp.Accepted || !resp.Configured {
		t.Errorf("the member's re-registration was answered %+v, want accepted and configured", resp)
	}
	if err := RegisterWorker(context.Background(), nil, tc.coordTS.URL, tc.workers[0].URL); err != nil {
		t.Errorf("RegisterWorker for the member: %v", err)
	}
}

// TestClusterGatherError pins the structured partial-failure contract on
// the wire: with no replication (R=1), killing a worker leaves its group
// unanswerable, and /query must respond 502 with a JSON body naming the
// failed group and worker — not a bare first-error string, and never a
// silently truncated 200.
func TestClusterGatherError(t *testing.T) {
	catalog := denseCatalog(60, 5)
	tc := startCluster(t, 3, 1, catalog, 0.7, 2, "dp")
	deadAddr := tc.workers[1].URL
	tc.kill(t, 1)

	resp, err := http.Get(tc.coordTS.URL + "/query?q=" + url.QueryEscape(catalog[0]) + "&k=5")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	var body struct {
		Code     string `json:"code"`
		Failures []struct {
			Group int    `json:"group"`
			Addr  string `json:"addr"`
			Error string `json:"error"`
		} `json:"failures"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if body.Code != "gather_failed" || len(body.Failures) == 0 {
		t.Fatalf("error body %+v, want code gather_failed with failures", body)
	}
	found := false
	for _, f := range body.Failures {
		if f.Group == 1 && f.Addr == deadAddr {
			found = true
			if f.Error == "" {
				t.Errorf("failure for group 1 carries no error text")
			}
		}
	}
	if !found {
		t.Fatalf("failures %+v do not name group 1 on %s", body.Failures, deadAddr)
	}
}

// TestClusterStreamAbortOnDisconnect pins cancellation propagation through
// the coordinator: a client that hangs up mid-stream must tear down every
// worker-side pipeline — the process-wide pipeline goroutine gauge settles
// back to zero instead of workers verifying candidates for a dead client.
func TestClusterStreamAbortOnDisconnect(t *testing.T) {
	catalog := denseCatalog(300, 3)
	tc := startCluster(t, 3, 2, catalog, 0.7, 2, "dp")

	// Streaming probe: read one line, hang up.
	body, _ := json.Marshal(ProbeRequest{Records: denseCatalog(300, 4)})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, tc.coordTS.URL+"/probe", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("first streamed line: %v", err)
	}
	cancel()
	resp.Body.Close()
	settleGoroutines(t, "probe disconnect")

	// Buffered top-k: cancel while the gather is in flight.
	qctx, qcancel := context.WithCancel(context.Background())
	qreq, _ := http.NewRequestWithContext(qctx, http.MethodGet,
		tc.coordTS.URL+"/query?q="+url.QueryEscape(catalog[0])+"&k=500", nil)
	go func() {
		time.Sleep(2 * time.Millisecond)
		qcancel()
	}()
	if qresp, err := http.DefaultClient.Do(qreq); err == nil {
		qresp.Body.Close()
	}
	qcancel()
	settleGoroutines(t, "query cancel")
}

// settleGoroutines waits for the engine's pipeline goroutine gauge to hit
// zero: every fan-out the cancelled request started has unwound.
func settleGoroutines(t *testing.T, stage string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if aujoin.PipelineGoroutines() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d pipeline goroutines still running", stage, aujoin.PipelineGoroutines())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterRejectsStaleEpoch pins the epoch fence: a request stamped with
// an outdated epoch is answered 409 epoch_mismatch (with the worker's
// current epoch), not served under the wrong order silently.
func TestClusterRejectsStaleEpoch(t *testing.T) {
	catalog := denseCatalog(40, 6)
	tc := startCluster(t, 2, 2, catalog, 0.7, 2, "dp")
	tc.bump(t) // move the cluster past the bootstrap epoch

	req, _ := http.NewRequest(http.MethodGet,
		tc.workers[0].URL+"/query?q="+url.QueryEscape(catalog[0])+"&k=3&group=0", nil)
	req.Header.Set(EpochHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("stale query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale epoch: status %d, want 409", resp.StatusCode)
	}
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decode 409 body: %v", err)
	}
	if eb.Code != "epoch_mismatch" || eb.Epoch < 2 {
		t.Fatalf("409 body %+v, want code epoch_mismatch with current epoch", eb)
	}
}

// TestClusterRejectsThetaBelowBuild pins the refusal of a min_sim below the
// build θ on both daemons: the coordinator answers 400 itself (no scatter),
// and a worker addressed directly answers the same 400 from its index — both
// naming the θ the client may ask for.
func TestClusterRejectsThetaBelowBuild(t *testing.T) {
	catalog := denseCatalog(40, 7)
	tc := startCluster(t, 2, 2, catalog, 0.7, 2, "dp")
	q := "/query?q=" + url.QueryEscape(catalog[0]) + "&k=3&min_sim=0.6"
	for name, target := range map[string]string{"coordinator": tc.coordTS.URL + q, "worker": tc.workers[0].URL + q + "&group=0"} {
		resp, err := http.Get(target)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var eb ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode 400 body: %v", name, err)
		}
		if resp.StatusCode != http.StatusBadRequest || eb.Code != "theta_below_build" || eb.Theta != 0.7 {
			t.Errorf("%s: status %d, body %+v; want 400 theta_below_build with theta 0.7", name, resp.StatusCode, eb)
		}
	}

	// A min_sim that is not a number must not reach the index at all, where
	// it would be served at the build θ as if it had not been sent.
	resp, err := http.Get(tc.coordTS.URL + "/query?q=" + url.QueryEscape(catalog[0]) + "&k=3&min_sim=NaN")
	if err != nil {
		t.Fatalf("coordinator min_sim=NaN: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("coordinator min_sim=NaN: status %d, want 400", resp.StatusCode)
	}
}

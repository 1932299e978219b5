package cluster

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/cmdutil"
	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/join"
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
	// seedChunk caps a seed chunk's JSON body (0: seedChunkBytes).
	seedChunk int
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
	coord.seedChunk = o.seedChunk
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

// refTopK is the single-node reference's top-k answer: Query at K = k on a
// fresh View.
func refTopK(t *testing.T, ix *aujoin.Index, q string, k int) []aujoin.QueryMatch {
	t.Helper()
	matches, err := ix.Snapshot().Query(context.Background(), q, aujoin.QueryOptions{K: k})
	if err != nil {
		t.Fatalf("reference Query(%q, K=%d): %v", q, k, err)
	}
	return matches
}

// refProbe is the single-node reference's probe answer: a fresh View's Probe
// stream, collected in the order it arrives (the callers compare sets).
func refProbe(t *testing.T, ix *aujoin.Index, records []string) []aujoin.Match {
	t.Helper()
	var out []aujoin.Match
	for m, err := range ix.Snapshot().Probe(context.Background(), records) {
		if err != nil {
			t.Fatalf("reference Probe: %v", err)
		}
		out = append(out, m)
	}
	return out
}

// checkEquivalence asserts the cluster's answers are bit-identical to the
// single-node reference index: top-k queries at small and large k (values AND
// order), and the probe match set.
func checkEquivalence(t *testing.T, tc *testCluster, ref *aujoin.Index, probes []string, stage string) {
	t.Helper()
	for _, q := range equivalenceQueries {
		for _, k := range []int{10, 500} {
			got := tc.topK(t, q, k)
			want := refTopK(t, ref, q, k)
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
	want := refProbe(t, ref, probes)
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
// with 2-way replication must return bit-identical top-k and probe
// results to a single-node index over the same catalog — after seeding,
// after an identical mutation sequence, after a coordinator-driven global
// re-finalize (epoch bump), after killing one worker mid-workload, and
// after mutating and bumping again with the worker still dead. Under -short
// one (filter, θ) combination runs; the full matrix is 3 filters × 3
// thresholds.
func TestClusterEquivalence(t *testing.T) {
	for _, cb := range equivalenceGrid() {
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

// equivalenceCombo is one (filter, θ) point of the equivalence grid.
type equivalenceCombo struct {
	filter string
	theta  float64
}

// equivalenceGrid is 3 filters × 3 thresholds, or one combination under
// -short.
func equivalenceGrid() []equivalenceCombo {
	if testing.Short() {
		return []equivalenceCombo{{"dp", 0.8}}
	}
	var combos []equivalenceCombo
	for _, f := range []string{"u", "heuristic", "dp"} {
		for _, th := range []float64{0.7, 0.8, 0.9} {
			combos = append(combos, equivalenceCombo{f, th})
		}
	}
	return combos
}

// TestSeedInChunks seeds the catalog in chunks of about ten records, several
// a group, over the equivalence grid. The cluster must answer bit-identically
// to a single-node index, and every replica must have built its groups once,
// from the seed, under the published order: no record inserted, no delta
// segment and no rebuild. Each group index must also write the snapshot,
// byte for byte, of the index a seed through insert batches made: an empty
// index given the group's records in 512-record catalog batches, then the
// shipped order.
func TestSeedInChunks(t *testing.T) {
	for _, cb := range equivalenceGrid() {
		t.Run(fmt.Sprintf("%s-theta%v", cb.filter, cb.theta), func(t *testing.T) {
			catalog := denseCatalog(180, 7)
			tc := startCluster(t, 3, 2, catalog, cb.theta, 2, cb.filter, clusterOpts{seedChunk: 10 * seedCost(catalog[0])})
			j, err := aujoin.NewStrict()
			if err != nil {
				t.Fatalf("NewStrict: %v", err)
			}
			jopts := aujoin.JoinOptions{Theta: cb.theta, Tau: 2, Filter: cmdutil.ParseFilter(cb.filter)}
			ref := j.IndexWith(catalog, jopts, aujoin.IndexOptions{Shards: 1})
			checkEquivalence(t, tc, ref, denseCatalog(15, 8), "seeded in chunks")

			inserted := make([]*aujoin.Index, 3)
			for g := range inserted {
				inserted[g] = j.IndexWith(nil, jopts, aujoin.IndexOptions{Shards: 1})
				inserted[g].DisableAutoRefreeze()
				for at := 0; at < len(catalog); at += 512 {
					var ids []int
					var recs []string
					for id := at; id < min(at+512, len(catalog)); id++ {
						if tc.coord.ring.Owner(id) == g {
							ids, recs = append(ids, id), append(recs, catalog[id])
						}
					}
					if err := inserted[g].InsertWithIDs(ids, recs); err != nil {
						t.Fatal(err)
					}
				}
				if err := inserted[g].AdoptOrder(ref.KeyFrequencies()); err != nil {
					t.Fatal(err)
				}
			}
			records := 0
			for i, wk := range tc.nodes {
				wk.mu.Lock()
				for g, wg := range wk.groups {
					var got, want bytes.Buffer
					if _, err := wg.ix().WriteSnapshot(&got); err != nil {
						t.Fatal(err)
					}
					if _, err := inserted[g].WriteSnapshot(&want); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Errorf("worker %d group %d: the seeded index's snapshot differs from the inserted one's", i, g)
					}
					st := wg.ix().Stats()
					if seq := wg.seq.Load(); seq < 3 {
						t.Errorf("worker %d group %d took %d seed chunks, want several", i, g, seq)
					}
					if st.Inserts != 0 || st.Segments != 0 || st.Rebuilds != 0 {
						t.Errorf("worker %d group %d: %d inserts, %d segments, %d rebuilds; want an index built once",
							i, g, st.Inserts, st.Segments, st.Rebuilds)
					}
					records += st.Records
				}
				wk.mu.Unlock()
			}
			if records != 2*len(catalog) {
				t.Errorf("the replicas hold %d records, want each of %d twice", records, len(catalog))
			}
		})
	}
}

// TestSeedChunkGapTakesReplicaOut: worker 0 acknowledges one seed chunk of
// one of its groups without applying it. The next chunk of that group
// reaches it out of sequence, so it answers 409 and the coordinator takes it
// out, as it does a replica that missed a write; the bootstrap completes on
// the other replicas, the cluster answers like a single node, and the
// health checker does not readmit worker 0, whose sequences never match.
func TestSeedChunkGapTakesReplicaOut(t *testing.T) {
	catalog := denseCatalog(180, 7)
	var dropped, gaps atomic.Int32
	dropChunk := func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/cluster/apply" {
				h.ServeHTTP(w, r)
				return
			}
			body, _ := io.ReadAll(r.Body)
			var req ApplyRequest
			if json.Unmarshal(body, &req) == nil && req.Seed && req.Seq == 2 && dropped.CompareAndSwap(0, 1) {
				w.Write([]byte(`{"applied":true}`))
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			sw := &statusWriter{ResponseWriter: w}
			h.ServeHTTP(sw, r)
			if sw.status == http.StatusConflict {
				gaps.Add(1)
			}
		})
	}
	tc := startCluster(t, 3, 2, catalog, 0.8, 2, "dp", clusterOpts{wrap: dropChunk, seedChunk: 10 * seedCost(catalog[0])})
	if dropped.Load() != 1 || gaps.Load() == 0 {
		t.Fatalf("%d chunks dropped and %d gaps answered; want one of each at least", dropped.Load(), gaps.Load())
	}
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.8, Tau: 2, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})
	checkEquivalence(t, tc, ref, denseCatalog(15, 8), "seeded around the gap")
	time.Sleep(5 * 100 * time.Millisecond) // five heartbeats
	for addr, state := range tc.workerStates() {
		if want := map[bool]string{true: "down", false: "ready"}[addr == tc.workers[0].URL]; state != want {
			t.Errorf("worker %s is %s, want %s", addr, state, want)
		}
	}
}

// statusWriter records the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// TestSeedChunkAfterSeedRefused: a seed chunk that reaches a group after its
// seed is over — after the last chunk, after an ordinary batch, after an
// order adoption (the bootstrap's, also on a group the seed gave nothing) — is
// refused with a 400 and changes nothing, where building the group from it
// would silently drop every record, write and order the group held. So is an
// ordinary batch between the last chunk and the order that installs the
// seed, which the install would drop.
func TestSeedChunkAfterSeedRefused(t *testing.T) {
	catalog := denseCatalog(30, 2)
	tc := startCluster(t, 1, 1, catalog, 0.7, 2, "dp")
	wk := tc.nodes[0]
	wk.mu.Lock()
	wg := wk.groups[0]
	wk.mu.Unlock()
	seq := wg.seq.Load()
	late := ApplyRequest{Seq: seq + 1, Seed: true, Last: true, IDs: []int{1000}, Records: []string{"late seed"}}
	err := call(context.Background(), http.DefaultClient, tc.workers[0].URL+"/cluster/apply", &late, nil)
	if !refused(err) {
		t.Fatalf("a seed chunk after the bootstrap returned %v, want a 400", err)
	}
	if got, recs := wg.seq.Load(), wg.ix().Stats().Records; got != seq || recs != len(catalog) {
		t.Fatalf("after the refused chunk: seq %d and %d records, want %d and %d", got, recs, seq, len(catalog))
	}

	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	newWorker := func() *Worker {
		wk := NewWorker(j, 1)
		if _, err := wk.config(ctx, &ConfigRequest{Workers: []string{"w0"}, Replicas: 1, Epoch: 1, Theta: 0.7, Tau: 2, Filter: "dp"}); err != nil {
			t.Fatal(err)
		}
		return wk
	}
	unseeded := newWorker()
	if _, err := unseeded.adopt(ctx, &OrderPayload{Epoch: 2, Order: unseeded.groups[0].ix().KeyFrequencies()}); err != nil {
		t.Fatal(err)
	}
	if _, err := unseeded.apply(ctx, &ApplyRequest{Seq: 1, Seed: true, Last: true, IDs: []int{0}, Records: catalog[:1]}); !refused(err) {
		t.Fatalf("a seed chunk after an order adoption returned %v, want a 400", err)
	}
	fresh := newWorker()
	var last ApplyResponse
	steps := []struct {
		req    ApplyRequest
		refuse bool
	}{
		{ApplyRequest{Seq: 1, Seed: true, IDs: []int{0}, Records: catalog[:1]}, false},
		{ApplyRequest{Seq: 2, Seed: true, Last: true, IDs: []int{1}, Records: catalog[1:2]}, false},
		{ApplyRequest{Seq: 3, Seed: true, Last: true, IDs: []int{2}, Records: catalog[2:3]}, true},
		{ApplyRequest{Seq: 3, IDs: []int{2}, Records: catalog[2:3]}, true},
		{ApplyRequest{Seq: 3, IDs: []int{2}, Records: catalog[2:3]}, false},
		{ApplyRequest{Seq: 4, Seed: true, Last: true, IDs: []int{3}, Records: catalog[3:4]}, true},
	}
	for i, st := range steps {
		if i == 4 { // the seed's order arrives and installs it
			var table aujoin.OrderImage
			if err := json.Unmarshal(last.Order, &table); err != nil {
				t.Fatalf("the last seed chunk's table: %v", err)
			}
			order, err := aujoin.MergeOrderImages(table)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.adopt(ctx, &OrderPayload{Epoch: 2, Order: order}); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := fresh.apply(ctx, &st.req)
		if refused(err) != st.refuse || (err != nil && !st.refuse) {
			t.Fatalf("step %d: apply returned %v, want refused %v", i, err, st.refuse)
		}
		if st.req.Last && err == nil {
			last = resp
		}
	}
	if recs := fresh.groups[0].ix().Stats().Records; recs != 3 {
		t.Fatalf("the fresh worker's group holds %d records, want 3", recs)
	}
}

// hostedGroups snapshots worker wk's hosted groups.
func hostedGroups(wk *Worker) map[int]*workerGroup {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	out := make(map[int]*workerGroup, len(wk.groups))
	for g, wg := range wk.groups {
		out[g] = wg
	}
	return out
}

// TestSeedSignsEachRecordOnce: the bootstrap builds every seeded group once,
// under the order it publishes. Each replica counts its share's keys once,
// for the table its last seed chunk's acknowledgement carries, and signs
// each record once, under that order: no order is counted over a share to
// be thrown away, and no record is signed again by an adoption. A later
// bump re-signs every record once and counts it once more for the adoption's
// guard, and once more on the replica that gave the group's table, which
// shows the counters count.
func TestSeedSignsEachRecordOnce(t *testing.T) {
	catalog := denseCatalog(180, 7)
	tc := startCluster(t, 3, 2, catalog, 0.8, 2, "dp")
	check := func(stage string, signed int64, counted ...int64) {
		t.Helper()
		for i, wk := range tc.nodes {
			for g, wg := range hostedGroups(wk) {
				st := wg.ix().Stats()
				if st.Records == 0 {
					t.Fatalf("%s: worker %d group %d holds no record", stage, i, g)
				}
				n := int64(st.Records)
				if st.Signed != signed*n || !slices.ContainsFunc(counted, func(c int64) bool { return st.Counted == c*n }) {
					t.Errorf("%s: worker %d group %d signed %d and counted %d records; want %d× and one of %v× its %d records",
						stage, i, g, st.Signed, st.Counted, signed, counted, st.Records)
				}
			}
		}
	}
	check("bootstrap", 1, 1)
	tc.bump(t)
	check("a later bump", 2, 2, 3)
}

// TestSeedFailsOverLastChunkTable: worker 0's acknowledgement of its first
// last seed chunk fails (a 500 after the chunk was applied) or comes back
// without the group's table. Either way the bootstrap takes the table from
// the group's other replica, finishes, and ships the single-node order; a
// worker whose acknowledgement failed is out of service, one whose table was
// lost serves under the published order like every other.
func TestSeedFailsOverLastChunkTable(t *testing.T) {
	for _, fail := range []bool{true, false} {
		t.Run(map[bool]string{true: "ack fails", false: "ack lacks table"}[fail], func(t *testing.T) {
			var hit atomic.Int32
			doctor := func(i int, h http.Handler) http.Handler {
				if i != 0 {
					return h
				}
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					body, _ := io.ReadAll(r.Body)
					r.Body = io.NopCloser(bytes.NewReader(body))
					var req ApplyRequest
					if r.URL.Path != "/cluster/apply" || json.Unmarshal(body, &req) != nil || !req.Last || !hit.CompareAndSwap(0, 1) {
						h.ServeHTTP(w, r)
						return
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, r)
					var resp ApplyResponse
					if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || len(resp.Order) == 0 {
						t.Errorf("worker 0 answered its last seed chunk %d %q", rec.Code, rec.Body.String())
					}
					if fail {
						http.Error(w, "injected failure", http.StatusInternalServerError)
						return
					}
					resp.Order = nil
					json.NewEncoder(w).Encode(resp)
				})
			}
			catalog := denseCatalog(180, 7)
			tc := startCluster(t, 3, 2, catalog, 0.8, 2, "dp", clusterOpts{wrap: doctor})
			if hit.Load() != 1 {
				t.Fatal("worker 0 was sent no last seed chunk")
			}
			j, err := aujoin.NewStrict()
			if err != nil {
				t.Fatal(err)
			}
			ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.8, Tau: 2, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})
			down := -1
			if fail {
				down = 0
			}
			requireSingleNodeOrder(t, tc, ref, "bootstrap", down)
			checkEquivalence(t, tc, ref, denseCatalog(15, 8), "bootstrap")
			for addr, state := range tc.workerStates() {
				if want := map[bool]string{true: "down", false: "ready"}[fail && addr == tc.workers[0].URL]; state != want {
					t.Errorf("worker %s is %s, want %s", addr, state, want)
				}
			}
			// One heartbeat round carries the published epoch to every
			// worker; the one the bootstrap went on without releases its
			// share, and no group anywhere is left holding one.
			tc.coord.checkHealth(context.Background())
			for i, wk := range tc.nodes {
				for g, wg := range hostedGroups(wk) {
					wg.mu.Lock()
					pending, skipped := wg.pending != nil, wg.skipped
					wg.mu.Unlock()
					if pending || skipped != (fail && i == 0) {
						t.Errorf("worker %d, group %d: pending share %v, released %v after a heartbeat at the published epoch", i, g, pending, skipped)
					}
				}
			}
		})
	}
}

// TestReleaseStagedSeed: a worker that the bootstrap went on without while
// one of its groups had staged a seed chunk but not received the last one
// drops the staged records at the first heartbeat at a later epoch, marks the
// group skipped, and refuses the chunks that arrive after it. It drives the
// worker's handlers directly, in one goroutine, so the order of the chunk,
// the heartbeat and the late chunk is fixed.
func TestReleaseStagedSeed(t *testing.T) {
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatal(err)
	}
	wk := NewWorker(j, 1)
	ctx := context.Background()
	if _, err := wk.config(ctx, &ConfigRequest{Workers: []string{"w0", "w1", "w2"}, Self: 0, Replicas: 2, Epoch: 1, Theta: 0.8, Tau: 2, Filter: "dp"}); err != nil {
		t.Fatal(err)
	}
	catalog := denseCatalog(6, 7)
	g := wk.ring.GroupsOf(0)[0]
	wg := hostedGroups(wk)[g]
	if _, err := wk.apply(ctx, &ApplyRequest{Group: g, Seq: 1, IDs: []int{0, 1, 2}, Records: catalog[:3], Seed: true}); err != nil {
		t.Fatalf("first seed chunk: %v", err)
	}
	wg.mu.Lock()
	staged := len(wg.seedIDs)
	wg.mu.Unlock()
	if staged != 3 {
		t.Fatalf("%d records staged by the first chunk, want 3", staged)
	}
	if _, err := wk.readyz(url.Values{"epoch": {"1"}}); err != nil {
		t.Fatal(err)
	}
	wg.mu.Lock()
	kept := wg.seedIDs != nil && !wg.skipped
	wg.mu.Unlock()
	if !kept {
		t.Fatal("a heartbeat at the worker's own epoch released the staged seed")
	}
	if _, err := wk.readyz(url.Values{"epoch": {"2"}}); err != nil {
		t.Fatal(err)
	}
	for h, wg := range hostedGroups(wk) {
		wg.mu.Lock()
		skipped, ids, recs, pending := wg.skipped, wg.seedIDs, wg.seedRecs, wg.pending
		wg.mu.Unlock()
		if !skipped || ids != nil || recs != nil || pending != nil {
			t.Errorf("group %d after a heartbeat at a later epoch: skipped %v, staged IDs %v, records %v, pending %v", h, skipped, ids, recs, pending != nil)
		}
	}
	_, err = wk.apply(ctx, &ApplyRequest{Group: g, Seq: 2, IDs: []int{3, 4, 5}, Records: catalog[3:], Seed: true, Last: true})
	if err == nil {
		t.Fatal("the last seed chunk of a released group was taken")
	}
	wg.mu.Lock()
	defer wg.mu.Unlock()
	if wg.pending != nil || wg.seedIDs != nil || wg.seq.Load() != 1 {
		t.Fatalf("the refused last chunk left a pending share %v, staged IDs %v, sequence %d", wg.pending != nil, wg.seedIDs, wg.seq.Load())
	}
}

// TestSeedLeavesGroupEmpty: a catalog whose records all fall to two of the
// three groups. The empty group keeps the index config made and adopts the
// published order as a later bump would; the cluster answers like a single
// node, serves the single-node order, and takes inserts into the empty group.
func TestSeedLeavesGroupEmpty(t *testing.T) {
	ring := NewRing(3, 2)
	full := denseCatalog(60, 7)
	n := 0
	for covered := map[int]bool{}; n < len(full); n++ {
		if covered[ring.Owner(n)] = true; len(covered) == 3 {
			break
		}
	}
	if n < 2 {
		t.Fatalf("the first %d IDs cover every group", n+1)
	}
	catalog := full[:n]
	tc := startCluster(t, 3, 2, catalog, 0.7, 2, "dp")
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatal(err)
	}
	ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.7, Tau: 2, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})
	empty := 0
	for _, wk := range tc.nodes {
		for _, wg := range hostedGroups(wk) {
			if wg.ix().Stats().Records == 0 {
				empty++
			}
		}
	}
	if empty != 2 {
		t.Fatalf("%d replicas hold an empty group, want the two of one group", empty)
	}
	requireSingleNodeOrder(t, tc, ref, "bootstrap", -1)
	checkEquivalence(t, tc, ref, denseCatalog(15, 8), "one group empty")
	extra := full[n:]
	tc.insert(t, extra)
	ref.Insert(extra)
	checkEquivalence(t, tc, ref, denseCatalog(15, 8), "inserted into every group")
	tc.bump(t)
	requireSingleNodeOrder(t, tc, ref, "bumped", -1)
}

// TestBootstrapWithoutCatalog: a cluster without a catalog bootstraps to
// ready — every group empty, under the empty order the bootstrap publishes
// as its epoch 2 — takes inserts, and answers like a single node.
func TestBootstrapWithoutCatalog(t *testing.T) {
	tc := startCluster(t, 3, 2, nil, 0.7, 2, "dp")
	if st := tc.coord.Stats(); !st.Ready || st.Epoch != 2 {
		t.Fatalf("ready %v at epoch %d, want ready at epoch 2", st.Ready, st.Epoch)
	}
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatal(err)
	}
	ref := j.IndexWith(nil, aujoin.JoinOptions{Theta: 0.7, Tau: 2, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})
	checkEquivalence(t, tc, ref, denseCatalog(15, 8), "empty")
	extra := denseCatalog(60, 7)
	if got, want := tc.insert(t, extra), ref.Insert(extra); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("insert IDs diverge: cluster %v, single-node %v", got, want)
	}
	checkEquivalence(t, tc, ref, denseCatalog(15, 8), "inserted")
	tc.bump(t)
	requireSingleNodeOrder(t, tc, ref, "bumped", -1)
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
		for g, wg := range hostedGroups(wk) {
			var buf bytes.Buffer
			if _, err := wg.ix().WriteSnapshot(&buf); err != nil {
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

// unexported returns the pointer field name of the struct p points to, as a
// *T. The public Index and Joiner keep their engine values in unexported
// fields and export no identity, so the tests read them by reflection.
func unexported[T any](p any, name string) *T {
	return (*T)(reflect.ValueOf(p).Elem().FieldByName(name).UnsafePointer())
}

// shares reports whether two indexes serve under one frozen order value and
// whether they intern into one segment dictionary (join.ShardedIndex.Shares).
func shares(a, b *aujoin.Index) (order, dict bool) {
	return unexported[join.ShardedIndex](a, "inner").Shares(unexported[join.ShardedIndex](b, "inner"))
}

// TestWorkerGroupsShareOrder: a worker restores each adopted order image
// once, and every group it hosts wraps that one frozen value with a dynamic
// region of its own. After the bootstrap and after a bump, both groups of
// every worker serve under the same frozen order; an insert whose keys the
// order lacks interns them into the receiving group's region alone, leaving
// its sibling's key count as it was; and the cluster still answers as the
// single-node index does.
func TestWorkerGroupsShareOrder(t *testing.T) {
	catalog := denseCatalog(180, 7)
	probes := append(denseCatalog(6, 8), "qxzv wykj plumb", "vexing quokka jazz")
	tc := startCluster(t, 3, 2, catalog, 0.8, 2, "dp")
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.8, Tau: 2, Filter: cmdutil.ParseFilter("dp")}, aujoin.IndexOptions{Shards: 1})

	// shared requires both groups of every worker to serve under one frozen
	// order, and returns each worker's groups' stats, in group order.
	shared := func(stage string) [][]aujoin.IndexStats {
		t.Helper()
		var out [][]aujoin.IndexStats
		for i, wk := range tc.nodes {
			hosted := hostedGroups(wk)
			var ixs []*aujoin.Index
			var stats []aujoin.IndexStats
			for _, g := range slices.Sorted(maps.Keys(hosted)) { // one order across calls
				ixs = append(ixs, hosted[g].ix())
				stats = append(stats, hosted[g].ix().Stats())
			}
			if len(stats) != 2 {
				t.Fatalf("%s: worker %d hosts %d groups, want 2", stage, i, len(stats))
			}
			if order, _ := shares(ixs[0], ixs[1]); !order {
				t.Fatalf("%s: worker %d's groups serve under two frozen orders, want one shared", stage, i)
			}
			out = append(out, stats)
		}
		return out
	}
	// insertNovel inserts records of keys no order holds, one at a time, each
	// into one group, and requires every group that took no record to keep
	// its key count, while some group's grew.
	insertNovel := func(stage string, records []string) {
		t.Helper()
		for _, rec := range records {
			before := shared(stage)
			tc.insert(t, []string{rec})
			ref.Insert([]string{rec})
			after := shared(stage)
			grew := false
			for i := range after {
				for g := range after[i] {
					b, a := before[i][g], after[i][g]
					if a.Records == b.Records && a.FrozenKeys+a.DynamicKeys != b.FrozenKeys+b.DynamicKeys {
						t.Fatalf("%s: worker %d: a group that took no record went from %d to %d keys",
							stage, i, b.FrozenKeys+b.DynamicKeys, a.FrozenKeys+a.DynamicKeys)
					}
					grew = grew || a.DynamicKeys > b.DynamicKeys
				}
			}
			if !grew {
				t.Fatalf("%s: inserting %q interned no key", stage, rec)
			}
		}
	}

	shared("bootstrap")
	insertNovel("bootstrap", []string{"qxzv wykj plumb", "vexing quokka jazz", "fjord nymph squawk"})
	checkEquivalence(t, tc, ref, probes, "inserted after the bootstrap")

	tc.bump(t)
	bumped := shared("bumped")
	for i, stats := range bumped {
		if stats[0].DynamicKeys != 0 || stats[1].DynamicKeys != 0 {
			t.Fatalf("bumped: worker %d's groups hold %d and %d dynamic keys, want none", i, stats[0].DynamicKeys, stats[1].DynamicKeys)
		}
	}
	insertNovel("bumped", []string{"glyph waltz crimp", "jinx bodkfy zephyr"})
	checkEquivalence(t, tc, ref, probes, "inserted after a bump")
}

// shareTexts returns the distinct segment texts of the records of catalog,
// stable ID its position, that the ring places in the groups: the length of
// the dictionary of a single-node index over them.
func shareTexts(t *testing.T, ring *Ring, catalog []string, groups ...int) int {
	t.Helper()
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	var share []string
	for id, rec := range catalog {
		if slices.Contains(groups, ring.Owner(id)) {
			share = append(share, rec)
		}
	}
	return j.IndexWith(share, aujoin.JoinOptions{Theta: 0.8, Tau: 2}, aujoin.IndexOptions{Shards: 1}).Stats().DistinctSegments
}

// workerPairs returns, for every worker of tc, the indexes of the two groups
// it hosts, in group order.
func workerPairs(t *testing.T, tc *testCluster) [][2]*aujoin.Index {
	t.Helper()
	var out [][2]*aujoin.Index
	for i, wk := range tc.nodes {
		hosted := hostedGroups(wk)
		gs := slices.Sorted(maps.Keys(hosted))
		if len(gs) != 2 {
			t.Fatalf("worker %d hosts %d groups, want 2", i, len(gs))
		}
		out = append(out, [2]*aujoin.Index{hosted[gs[0]].ix(), hosted[gs[1]].ix()})
	}
	return out
}

// tailedCatalog is denseCatalog with one made-up word after every record, so
// that the groups' shares have texts of their own beside the texts they
// share.
func tailedCatalog(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := denseCatalog(n, seed)
	for i := range out {
		w := make([]byte, 5)
		for k := range w {
			w[k] = byte('a' + rng.Intn(26))
		}
		out[i] += " " + string(w)
	}
	return out
}

// TestWorkerGroupsShareDictionary: a worker prepares every group it hosts
// against its joiner's one segment dictionary (join.Joiner.HostedDict).
// After the bootstrap both groups of every worker intern into one
// dictionary, which holds each text of the two shares once: its length is
// that of a single-node index over the two shares together, less than the
// two shares' lengths summed.
func TestWorkerGroupsShareDictionary(t *testing.T) {
	catalog := tailedCatalog(180, 7)
	tc := startCluster(t, 3, 2, catalog, 0.8, 2, "dp")
	for i, pair := range workerPairs(t, tc) {
		gs := slices.Sorted(maps.Keys(hostedGroups(tc.nodes[i])))
		if _, dict := shares(pair[0], pair[1]); !dict {
			t.Fatalf("worker %d's groups intern into two dictionaries, want one shared", i)
		}
		union := shareTexts(t, tc.coord.ring, catalog, gs...)
		apart := shareTexts(t, tc.coord.ring, catalog, gs[0]) + shareTexts(t, tc.coord.ring, catalog, gs[1])
		if union >= apart {
			t.Fatalf("worker %d: the shares of groups %v have no text in common (%d texts, %d apart)", i, gs, union, apart)
		}
		for g, ix := range pair {
			if got := ix.Stats().DistinctSegments; got != union {
				t.Errorf("worker %d group %d: the dictionary holds %d texts, want the %d of both shares", i, gs[g], got, union)
			}
		}
	}
}

// TestWorkerDictionaryAtCap: every worker's dictionary is capped
// (core.SetSegDictLimit) below the texts of the two groups it hosts, and
// above those of any one group. The seeds of all groups run at once, so the
// group that interns second gives its new texts private tables (NoSegID),
// and so does every insert of new texts into either group, concurrently
// with the other group's. The cluster must answer as the single-node index
// does over the equivalence grid, after the seed, after inserts into every
// group and after a bump, with every worker's dictionary full at its cap.
func TestWorkerDictionaryAtCap(t *testing.T) {
	catalog := tailedCatalog(180, 7)
	ring := NewRing(3, 2)
	single, union := 0, len(catalog)*1000
	for w := range ring.Workers() {
		gs := ring.GroupsOf(w)
		union = min(union, shareTexts(t, ring, catalog, gs...))
		for _, g := range gs {
			single = max(single, shareTexts(t, ring, catalog, g))
		}
	}
	if single+1 >= union {
		t.Fatalf("one group holds %d texts and two %d: no cap lies between", single, union)
	}
	limit := (single + union) / 2
	opts := clusterOpts{joiner: func() (*aujoin.Joiner, error) {
		j, err := aujoin.NewStrict()
		if err == nil {
			core.SetSegDictLimit(unexported[join.Joiner](j, "joiner").HostedDict(), limit)
		}
		return j, err
	}}
	for _, cb := range equivalenceGrid() {
		t.Run(fmt.Sprintf("%s-theta%v", cb.filter, cb.theta), func(t *testing.T) {
			tc := startCluster(t, 3, 2, catalog, cb.theta, 2, cb.filter, opts)
			j, err := aujoin.NewStrict()
			if err != nil {
				t.Fatalf("NewStrict: %v", err)
			}
			jopts := aujoin.JoinOptions{Theta: cb.theta, Tau: 2, Filter: cmdutil.ParseFilter(cb.filter)}
			ref := j.IndexWith(catalog, jopts, aujoin.IndexOptions{Shards: 1})
			probes := append(tailedCatalog(12, 8), catalog[:6]...)
			if len(refProbe(t, ref, probes)) == 0 {
				t.Fatal("no probe matches the catalog")
			}
			full := func(stage string) {
				t.Helper()
				for i, pair := range workerPairs(t, tc) {
					for _, ix := range pair {
						if got := ix.Stats().DistinctSegments; got != limit {
							t.Fatalf("%s: worker %d's dictionary holds %d texts, want its cap %d", stage, i, got, limit)
						}
					}
				}
			}
			full("seeded")
			checkEquivalence(t, tc, ref, probes, "seeded at the cap")

			extra := tailedCatalog(30, 9)
			if got, want := tc.insert(t, extra), ref.Insert(extra); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("insert IDs diverge: cluster %v, single-node %v", got, want)
			}
			full("inserted")
			checkEquivalence(t, tc, ref, probes, "inserted past the cap")

			tc.bump(t)
			full("bumped")
			checkEquivalence(t, tc, ref, probes, "bumped at the cap")
		})
	}
}

// TestBumpEpochFailsOverFreqs: worker 0 answers 500 on /cluster/freqs, so
// the primary replica of group 0 cannot give the group's frequency table. An
// epoch bump after the bootstrap (whose tables come with the seed's
// acknowledgements, not from /cluster/freqs) must take the table from the
// group's other replica and still ship the single-node order, and leave
// worker 0 in service: it still adopts.
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
	want := refProbe(t, ref, probes)
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

// TestReadsDuringBumps: an epoch bump fences no read and no worker. On a
// 3-worker R = 2 cluster, /query and /probe run concurrently while BumpEpoch
// runs three times — the first under an order the inserted records changed —
// with the health checker running; worker 0 holds each adopt until a query
// and a probe have been answered, so reads overlap every bump. Every answer
// equals the single-node index's, and no worker is ever out of service: each
// adopts every order, so no heartbeat, during the bumps or after them, is
// behind.
func TestReadsDuringBumps(t *testing.T) {
	catalog := denseCatalog(180, 7)
	probes := denseCatalog(12, 12)
	var queries, probed, overlapped atomic.Int32
	var hold atomic.Bool
	tc := startCluster(t, 3, 2, catalog, 0.7, 2, "dp", clusterOpts{wrap: func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cluster/adopt" && hold.Load() {
				q, p := queries.Load(), probed.Load()
				for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					if queries.Load() > q && probed.Load() > p {
						overlapped.Add(1)
						break
					}
				}
			}
			h.ServeHTTP(w, r)
		})
	}})
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.7, Tau: 2, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})
	extra := []string{"quokka espresso ferry harbour", "quokka bakery ferry market", "harbour cafe quokka north"}
	tc.insert(t, extra)
	ref.Insert(extra)
	wantQuery := make(map[string]string, len(equivalenceQueries))
	for _, q := range equivalenceQueries {
		wantQuery[q] = fmt.Sprint(refTopK(t, ref, q, 10))
	}
	wantProbe := sortedMatches(refProbe(t, ref, probes))

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; !stopped(); i++ {
			q := equivalenceQueries[i%len(equivalenceQueries)]
			resp, err := http.Get(fmt.Sprintf("%s/query?q=%s&k=10", tc.coordTS.URL, url.QueryEscape(q)))
			got, err := readLines[aujoin.QueryMatch](resp, err)
			if err != nil || fmt.Sprint(got) != wantQuery[q] {
				t.Errorf("query %q during bumps: %v (%v), want %v", q, got, err, wantQuery[q])
				return
			}
			queries.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		body, _ := json.Marshal(ProbeRequest{Records: probes})
		for !stopped() {
			resp, err := http.Post(tc.coordTS.URL+"/probe", "application/json", bytes.NewReader(body))
			got, err := readLines[aujoin.Match](resp, err)
			if err != nil || sortedMatches(got) != wantProbe {
				t.Errorf("probe during bumps: %v (%v), want %v", sortedMatches(got), err, wantProbe)
				return
			}
			probed.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for !stopped() {
			for addr, state := range tc.workerStates() {
				if state != "ready" {
					t.Errorf("worker %s is %s during the bumps, want ready", addr, state)
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	hold.Store(true)
	for range 3 {
		if err := tc.coord.BumpEpoch("test"); err != nil {
			t.Errorf("BumpEpoch: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if n := overlapped.Load(); n != 3 {
		t.Errorf("reads were answered during %d of the 3 bumps; the rest were not tested", n)
	}
	tc.coord.checkHealth(context.Background()) // a heartbeat after the bumps
	st := tc.coord.Stats()
	if st.Epoch != 5 {
		t.Errorf("the coordinator is at epoch %d after the bootstrap and three bumps, want 5", st.Epoch)
	}
	for _, w := range st.Workers {
		if w.State != "ready" || w.Epoch != st.Epoch {
			t.Errorf("worker %s is %s at epoch %d after the bumps, want ready at %d", w.Addr, w.State, w.Epoch, st.Epoch)
		}
	}
}

// readLines decodes an NDJSON answer of status 200 into its lines.
func readLines[T any](resp *http.Response, err error) ([]T, error) {
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var out []T
	err = cmdutil.DecodeNDJSON(resp.Body, func(m T) error {
		out = append(out, m)
		return nil
	})
	return out, err
}

// sortedMatches prints a probe's match set in one order, for comparison.
func sortedMatches(ms []aujoin.Match) string {
	ms = slices.Clone(ms)
	slices.SortFunc(ms, func(a, b aujoin.Match) int {
		return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.T, b.T))
	})
	return fmt.Sprint(ms)
}

// TestLostAdoptAckReadmits: worker 0 applies a bump's adopt, and its
// acknowledgement is lost (answered 502). The bump marks it down and
// completes on the other workers; worker 0's heartbeat is then at the new
// epoch with matching sequences, so the health checker readmits it, and its
// answers equal a single node's. The health checker is driven by hand.
func TestLostAdoptAckReadmits(t *testing.T) {
	catalog := denseCatalog(90, 11)
	var lose atomic.Bool
	var lost, frames atomic.Int32
	tc := startCluster(t, 3, 2, catalog, 0.7, 2, "dp", clusterOpts{
		heartbeat: time.Hour,
		frames: func(_ context.Context, i int, _ *frameRequest) error {
			if i == 0 {
				frames.Add(1)
			}
			return nil
		},
		wrap: func(i int, h http.Handler) http.Handler {
			if i != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/cluster/adopt" || !lose.Load() {
					h.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				if rec.Code == http.StatusOK {
					lost.Add(1)
				}
				http.Error(w, "the acknowledgement was lost", http.StatusBadGateway)
			})
		},
	})
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.7, Tau: 2, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})
	probes := denseCatalog(12, 12)

	lose.Store(true)
	if err := tc.coord.BumpEpoch("test"); err != nil {
		t.Fatalf("BumpEpoch around a lost acknowledgement: %v", err)
	}
	lose.Store(false)
	if lost.Load() != 1 {
		t.Fatalf("%d adopts applied with their acknowledgement lost, want 1; nothing was tested", lost.Load())
	}
	addr := tc.workers[0].URL
	if state := tc.workerStates()[addr]; state != "down" {
		t.Fatalf("worker 0 is %s after its acknowledgement was lost, want down", state)
	}
	checkEquivalence(t, tc, ref, probes, "worker 0 down")
	for beat := 0; beat < 3 && tc.workerStates()[addr] != "ready"; beat++ {
		tc.coord.checkHealth(context.Background())
	}
	if state := tc.workerStates()[addr]; state != "ready" {
		t.Fatalf("worker 0 is %s three heartbeats after the bump, want readmitted", state)
	}
	before := frames.Load()
	checkEquivalence(t, tc, ref, probes, "worker 0 readmitted")
	if frames.Load() == before {
		t.Error("no frame reached the readmitted worker 0; its answers were not tested")
	}
}

// TestBehindWorkerFencedByHeartbeat holds both sides of the heartbeat fence.
// A heartbeat worker 0 answers at the old epoch while a bump it takes part
// in completes is not behind: the worker stays ready. Then worker 0's
// /readyz reports an epoch one behind its own: the health checker marks the
// ready worker down within two heartbeats and never readmits it, no lookup
// frame goes to it afterwards, and the answers equal a single node's. The
// health checker is driven by hand.
func TestBehindWorkerFencedByHeartbeat(t *testing.T) {
	catalog := denseCatalog(90, 11)
	var hold, behind atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	var frames atomic.Int32
	tc := startCluster(t, 3, 2, catalog, 0.7, 2, "dp", clusterOpts{
		heartbeat: time.Hour,
		wrap: func(i int, h http.Handler) http.Handler {
			if i != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/readyz" {
					h.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				var hb Heartbeat
				if err := json.Unmarshal(rec.Body.Bytes(), &hb); err != nil {
					writeErr(w, err)
					return
				}
				if hold.CompareAndSwap(true, false) {
					close(held)
					<-release
				}
				if behind.Load() {
					hb.Epoch--
				}
				answer(w, hb, nil)
			})
		},
		frames: func(_ context.Context, i int, _ *frameRequest) error {
			if i == 0 {
				frames.Add(1)
			}
			return nil
		},
	})
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.7, Tau: 2, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})
	probes := denseCatalog(12, 12)
	addr := tc.workers[0].URL

	hold.Store(true)
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		tc.coord.checkHealth(context.Background())
	}()
	<-held // worker 0's heartbeat is taken at the old epoch
	if err := tc.coord.BumpEpoch("test"); err != nil {
		t.Errorf("BumpEpoch: %v", err)
	}
	close(release)
	<-checked
	if state := tc.workerStates()[addr]; state != "ready" {
		t.Fatalf("worker 0 is %s after a heartbeat taken before a bump it adopted, want ready", state)
	}
	checkEquivalence(t, tc, ref, probes, "every worker ready")
	if frames.Load() == 0 {
		t.Fatal("no frame reached worker 0 while it was ready; nothing was tested")
	}

	behind.Store(true)
	for beat := 0; beat < 2 && tc.workerStates()[addr] != "down"; beat++ {
		tc.coord.checkHealth(context.Background())
	}
	if state := tc.workerStates()[addr]; state != "down" {
		t.Fatalf("worker 0 is %s two heartbeats after it fell behind, want down", state)
	}
	tc.coord.checkHealth(context.Background())
	if state := tc.workerStates()[addr]; state != "down" {
		t.Fatalf("worker 0, still behind, is %s after another heartbeat, want down", state)
	}
	before := frames.Load()
	checkEquivalence(t, tc, ref, probes, "worker 0 behind")
	if n := frames.Load() - before; n != 0 {
		t.Errorf("%d frames went to worker 0 while its heartbeat was behind, want none", n)
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

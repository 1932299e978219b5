package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aujoin/aujoin"
)

// TestSurfaceConformance drives one request table through the Mux of a
// standalone node, a worker node and a coordinator: the protocol — method
// refusals, parameter and body validation, the caps, the readiness gate and
// the one error shape — is the same answer from all three, because it is the
// same code. Where a mode legitimately differs (a worker refuses writes, and
// it and the coordinator keep /stats up as a diagnostic before they are
// ready) the row says so.
func TestSurfaceConformance(t *testing.T) {
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	// A worker made ready the way the coordinator does it: a config push.
	readyWorker := NewWorkerNode(NewWorker(j, 1)).Mux()
	cfg, _ := json.Marshal(ConfigRequest{Workers: []string{"http://self"}, Self: 0, Replicas: 1, Epoch: 1, Theta: 0.7, Tau: 2, Filter: "dp"})
	rec := httptest.NewRecorder()
	readyWorker.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/config", bytes.NewReader(cfg)))
	if rec.Code != http.StatusOK {
		t.Fatalf("configure worker: status %d, body %q", rec.Code, rec.Body.String())
	}
	tc := startCluster(t, 2, 2, denseCatalog(30, 1), 0.7, 2, "dp")

	const standalone, worker, coordinator = 0, 1, 2
	modes := []struct {
		name     string
		ready    *http.ServeMux
		notReady *http.ServeMux
	}{
		standalone:  {"standalone", testNode(t, 30).Mux(), NewNode().Mux()},
		worker:      {"worker", readyWorker, NewWorkerNode(NewWorker(j, 1)).Mux()},
		coordinator: {"coordinator", tc.coord.Mux(), NewCoordinator(CoordConfig{Workers: 1, Theta: 0.7}).Mux()},
	}

	type want struct {
		status int
		code   string
	}
	all := func(status int, code string) [3]want {
		return [3]want{{status, code}, {status, code}, {status, code}}
	}
	type row struct {
		name         string
		method, path string
		body         string
		want         [3]want // by mode
		allow        string  // the Allow header of a 405
		theta        float64 // ErrorBody.Theta expected
	}
	overCap := `{"records":["` + strings.Repeat("a", maxBodyBytes) + `"]}`
	q := "/query?q=espresso+cafe+helsinki&k=3"
	workerForbids := func(other int, code string) [3]want {
		return [3]want{{other, code}, {http.StatusForbidden, "worker_mode"}, {other, code}}
	}

	var ready []row
	for _, path := range []string{"/probe", "/insert", "/remove", "/remove-batch", "/snapshot"} {
		ready = append(ready, row{name: "GET " + path, method: http.MethodGet, path: path, want: all(405, ""), allow: "POST"})
	}
	for _, path := range []string{q, "/stats"} {
		ready = append(ready, row{name: "POST " + path, method: http.MethodPost, path: path, body: "{}", want: all(405, ""), allow: "GET, HEAD"})
	}
	for _, bad := range []string{"/query?k=3", "/query?q=x", "/query?q=x&k=0", fmt.Sprintf("/query?q=x&k=%d", MaxTopK+1),
		"/query?q=x&k=3&min_sim=NaN", "/query?q=x&k=3&min_sim=%2BInf", "/query?q=x&k=3&min_sim=-1", "/query?q=x&k=3&min_sim=1.0001"} {
		ready = append(ready, row{name: bad, method: http.MethodGet, path: bad, want: all(400, "")})
	}
	for _, path := range []string{"/probe", "/insert", "/remove", "/remove-batch"} {
		ready = append(ready,
			row{name: path + " malformed", method: http.MethodPost, path: path, body: `{"records":`, want: all(400, "")},
			row{name: path + " over the cap", method: http.MethodPost, path: path, body: overCap, want: all(400, "")})
	}
	ready = append(ready,
		row{name: "min_sim below θ", method: http.MethodGet, path: q + "&min_sim=0.6", want: all(400, "theta_below_build"), theta: 0.7},
		row{name: "insert", method: http.MethodPost, path: "/insert", body: `{"records":["espresso cafe helsinki new"]}`, want: workerForbids(200, "")},
		row{name: "remove", method: http.MethodPost, path: "/remove", body: `{"id":1}`, want: workerForbids(200, "")},
		row{name: "remove-batch", method: http.MethodPost, path: "/remove-batch", body: `{"ids":[2,3]}`, want: workerForbids(200, "")},
		// None of the three is durable here: a standalone node without
		// -data-dir and the coordinator refuse, a worker forbids like any write.
		row{name: "snapshot", method: http.MethodPost, path: "/snapshot", want: workerForbids(400, "")},
		row{name: "query", method: http.MethodGet, path: q, want: all(200, "")},
		row{name: "probe", method: http.MethodPost, path: "/probe", body: `{"records":["espresso cafe helsinki city"]}`, want: all(200, "")},
		row{name: "healthz", method: http.MethodGet, path: "/healthz", want: all(200, "")},
		row{name: "readyz", method: http.MethodGet, path: "/readyz", want: all(200, "")},
	)

	gate := all(503, "not_ready")
	diag := [3]want{{503, "not_ready"}, {200, ""}, {200, ""}}
	notReady := []row{
		{name: "query", method: http.MethodGet, path: q, want: gate},
		{name: "probe", method: http.MethodPost, path: "/probe", body: `{"records":["x"]}`, want: gate},
		{name: "insert", method: http.MethodPost, path: "/insert", body: `{"records":["x"]}`, want: workerForbids(503, "not_ready")},
		{name: "remove", method: http.MethodPost, path: "/remove", body: `{"id":1}`, want: workerForbids(503, "not_ready")},
		{name: "remove-batch", method: http.MethodPost, path: "/remove-batch", body: `{"ids":[1]}`, want: workerForbids(503, "not_ready")},
		{name: "snapshot", method: http.MethodPost, path: "/snapshot", want: workerForbids(503, "not_ready")},
		{name: "stats", method: http.MethodGet, path: "/stats", want: diag},
		{name: "readyz", method: http.MethodGet, path: "/readyz", want: gate},
		{name: "healthz", method: http.MethodGet, path: "/healthz", want: all(200, "")},
	}

	drive := func(t *testing.T, mux *http.ServeMux, mode int, r row) {
		path := r.path
		// A worker's reads address one hosted group.
		if mode == worker && strings.HasPrefix(path, "/query") {
			path += "&group=0"
		} else if mode == worker && path == "/probe" {
			path += "?group=0"
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(r.method, path, strings.NewReader(r.body)))
		w := r.want[mode]
		if rec.Code != w.status {
			t.Fatalf("status %d, want %d (body %.200q)", rec.Code, w.status, rec.Body.String())
		}
		switch {
		case rec.Code == http.StatusMethodNotAllowed:
			// The refusal is the standard library's, body and all.
			if got := rec.Header().Get("Allow"); got != r.allow {
				t.Errorf("Allow %q, want %q", got, r.allow)
			}
		case rec.Code/100 != 2:
			var eb ErrorBody
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&eb); err != nil || eb.Error == "" {
				t.Fatalf("status %d body is not an ErrorBody: %v (%.200q)", rec.Code, err, rec.Body.String())
			}
			if eb.Code != w.code || eb.Theta != r.theta {
				t.Errorf("error body %+v, want code %q theta %v", eb, w.code, r.theta)
			}
		}
	}
	for mode, m := range modes {
		for _, r := range ready {
			t.Run(m.name+"/ready/"+r.name, func(t *testing.T) { drive(t, m.ready, mode, r) })
		}
		for _, r := range notReady {
			t.Run(m.name+"/not ready/"+r.name, func(t *testing.T) { drive(t, m.notReady, mode, r) })
		}
	}
}

// workerStates maps each worker's address to its state in the coordinator's
// eyes.
func (tc *testCluster) workerStates() map[string]string {
	out := map[string]string{}
	for _, w := range tc.coord.Stats().Workers {
		out[w.Addr] = w.State
	}
	return out
}

// TestHedgeAroundStalledReplica pins what hedging is for: a replica that
// accepts a top-k read and then never answers. A group read has no timeout,
// so the hedge is what keeps such a read alive — every query
// still answers, exactly, within the hedge delay plus a normal read; the
// stalled worker is not marked down (slow is not dead); and everything that
// was blocked unwinds once the worker comes back.
func TestHedgeAroundStalledReplica(t *testing.T) {
	catalog := denseCatalog(180, 7)
	release := make(chan struct{})
	var blocked sync.WaitGroup
	var stalls atomic.Int32
	tc := startCluster(t, 3, 2, catalog, 0.8, 2, "dp", clusterOpts{frames: func(_ context.Context, i int, req *frameRequest) error {
		if i == 0 && req.op == opQuery {
			stalls.Add(1)
			blocked.Add(1)
			defer blocked.Done()
			<-release
		}
		return nil
	}})
	var once sync.Once
	unstall := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unstall) // a failing run must not leave the worker's server unable to close

	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.8, Tau: 2, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})

	const bound = 5 * time.Second // per query; the hedge delay is 20 ms
	for round := 0; round < 3; round++ {
		for _, q := range equivalenceQueries {
			for _, k := range []int{10, 500} {
				ctx, cancel := context.WithTimeout(context.Background(), bound)
				req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
					fmt.Sprintf("%s/query?q=%s&k=%d", tc.coordTS.URL, url.QueryEscape(q), k), nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					cancel()
					t.Fatalf("query %q k=%d did not answer within %v around the stalled replica: %v", q, k, bound, err)
				}
				var got []aujoin.QueryMatch
				dec := json.NewDecoder(resp.Body)
				for dec.More() {
					var m aujoin.QueryMatch
					if err := dec.Decode(&m); err != nil {
						t.Fatalf("query %q k=%d: decode: %v", q, k, err)
					}
					got = append(got, m)
				}
				resp.Body.Close()
				cancel()
				if want := refTopK(t, ref, q, k); resp.StatusCode != http.StatusOK || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("query %q k=%d: status %d\n got %v\nwant %v", q, k, resp.StatusCode, got, want)
				}
			}
		}
	}
	if stalls.Load() == 0 {
		t.Fatal("no read was ever sent to the stalled worker; nothing was tested")
	}
	if state := tc.workerStates()[tc.workers[0].URL]; state != "ready" {
		t.Errorf("the stalled worker is %q; a slow replica is not a dead one", state)
	}
	unstall()
	blocked.Wait()
	settleGoroutines(t, "after the stalled worker is released")
}

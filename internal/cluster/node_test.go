package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/aujoin/aujoin"
)

// denseCatalog builds records in near-duplicate families so probes against
// it produce many matches — enough that an aborted stream is clearly
// distinguishable from a completed one.
func denseCatalog(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	templates := []string{
		"espresso cafe helsinki city center",
		"apple cake bakery market street",
		"database systems course spring term",
	}
	tail := []string{"north", "south", "east", "west", "old", "new"}
	out := make([]string, n)
	for i := range out {
		out[i] = templates[i%len(templates)] + " " + tail[rng.Intn(len(tail))]
	}
	return out
}

func testNode(t *testing.T, catalogSize int) *Node {
	t.Helper()
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	ix := j.Index(denseCatalog(catalogSize, 1), aujoin.JoinOptions{Theta: 0.7, Tau: 2})
	n := NewNode()
	n.SetBackend(&Backend{IX: ix})
	return n
}

func (n *Node) ix() *aujoin.Index { return n.be.Load().IX }

// decodeLines parses every line of an NDJSON body (one target type per call).
func decodeLines[T any](t *testing.T, body string) []T {
	t.Helper()
	var out []T
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var v T
		if err := json.Unmarshal([]byte(sc.Text()), &v); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, v)
	}
	return out
}

// TestHandleQueryStreamsNDJSON pins the /query contract: top-k matches come
// back as one JSON object per line, ordered by descending similarity, in one
// write whose Content-Length is the body's, and min_sim tightens the
// threshold per request.
func TestHandleQueryStreamsNDJSON(t *testing.T) {
	n := testNode(t, 60)
	const q = "espresso cafe helsinki city center north"
	for _, k := range []int{1, 500} {
		rec := httptest.NewRecorder()
		n.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/query?q=%s&k=%d", url.QueryEscape(q), k), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("k=%d: status %d, body %q", k, rec.Code, rec.Body.String())
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("k=%d: Content-Length %q for a %d-byte body", k, cl, rec.Body.Len())
		}
		var want strings.Builder
		for _, m := range n.ix().QueryTopK(q, k) {
			line, _ := json.Marshal(m)
			want.Write(line)
			want.WriteByte('\n')
		}
		if got := rec.Body.String(); got != want.String() || got == "" {
			t.Errorf("k=%d: body\n%s\nwant one line a match of QueryTopK:\n%s", k, got, want.String())
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/query?q=espresso+cafe+helsinki+city+center+north&k=5", nil)
	rec := httptest.NewRecorder()
	n.Mux().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	matches := decodeLines[aujoin.QueryMatch](t, rec.Body.String())
	if len(matches) != 5 {
		t.Fatalf("got %d matches, want 5", len(matches))
	}
	for i := 1; i < len(matches); i++ {
		if matches[i].Similarity > matches[i-1].Similarity {
			t.Fatalf("matches not ordered by similarity: %v", matches)
		}
	}

	// min_sim=1 keeps only exact matches.
	req = httptest.NewRequest(http.MethodGet, "/query?q=espresso+cafe+helsinki+city+center+north&k=50&min_sim=1", nil)
	rec = httptest.NewRecorder()
	n.Mux().ServeHTTP(rec, req)
	strict := decodeLines[aujoin.QueryMatch](t, rec.Body.String())
	if len(strict) == 0 {
		t.Fatal("min_sim=1 returned no matches for an exact catalog string")
	}
	for _, m := range strict {
		if m.Similarity < 1 {
			t.Fatalf("min_sim=1 returned similarity %v", m.Similarity)
		}
	}

	// min_sim below the build θ (0.7) is rejected, naming that θ: the index
	// cannot know an answer down there to be complete.
	rec = httptest.NewRecorder()
	n.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?q=espresso+cafe&k=5&min_sim=0.5", nil))
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("min_sim=0.5 body %q: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusBadRequest || eb.Code != "theta_below_build" || eb.Theta != 0.7 {
		t.Errorf("min_sim=0.5: status %d, body %+v; want 400 theta_below_build with theta 0.7", rec.Code, eb)
	}

	// Parameter validation.
	for _, url := range []string{"/query?q=x", "/query?k=3", "/query?q=x&k=0", "/query?q=x&k=3&min_sim=2",
		"/query?q=x&k=3&min_sim=NaN", "/query?q=x&k=3&min_sim=%2BInf", "/query?q=x&k=3&min_sim=-1", "/query?q=x&k=3&min_sim=1.0001"} {
		rec := httptest.NewRecorder()
		n.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
		}
	}
}

// TestHandleQueryPlanOverride pins what is left of the ?plan= parameter: it is
// ignored like any unknown one, so clients that still send it — a retired
// value or a misspelt one — are answered 200 with the one answer there is.
// The verify-phase counters of those queries show up in /stats.
func TestHandleQueryPlanOverride(t *testing.T) {
	n := testNode(t, 60)
	query := func(plan string) []aujoin.QueryMatch {
		url := "/query?q=espresso+cafe+helsinki+city+center+north&k=10"
		if plan != "" {
			url += "&plan=" + plan
		}
		rec := httptest.NewRecorder()
		n.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("plan=%q: status %d, body %q", plan, rec.Code, rec.Body.String())
		}
		return decodeLines[aujoin.QueryMatch](t, rec.Body.String())
	}
	def := query("")
	if len(def) == 0 {
		t.Fatal("the query has no matches; the comparison below would be vacuous")
	}
	for _, plan := range []string{"auto", "fixed", "greedy"} {
		if got := query(plan); fmt.Sprint(got) != fmt.Sprint(def) {
			t.Fatalf("plan=%s changed the answer:\n got %v\nwant %v", plan, got, def)
		}
	}

	rec := httptest.NewRecorder()
	n.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st aujoin.IndexStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats response %q: %v", rec.Body.String(), err)
	}
	// The verify-phase counters flow through to /stats: queries with
	// results must have verified candidates, and the scheduler/memo pair
	// must have saved some work on this corpus.
	if st.VerifiedCandidates == 0 {
		t.Errorf("stats.VerifiedCandidates = 0 after answered queries")
	}
	if st.PrunedByBound == 0 && st.MemoHits == 0 {
		t.Errorf("stats reports no pruned candidates and no memo hits")
	}
}

// TestHandleQueryNotReady pins the readiness split: before a backend is
// published, /query answers 503 (not 404 or a panic), /healthz stays 200 and
// /readyz reports not ready; after SetBackend both serve.
func TestHandleQueryNotReady(t *testing.T) {
	n := NewNode()
	rec := httptest.NewRecorder()
	n.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?q=x&k=3", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query before backend: status %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	n.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz before backend: status %d, want 200", rec.Code)
	}
	rec = httptest.NewRecorder()
	n.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before backend: status %d, want 503", rec.Code)
	}

	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	n.SetBackend(&Backend{IX: j.Index(denseCatalog(20, 1), aujoin.JoinOptions{Theta: 0.7, Tau: 2})})
	rec = httptest.NewRecorder()
	n.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz after backend: status %d, want 200", rec.Code)
	}
	rec = httptest.NewRecorder()
	n.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?q=espresso+cafe&k=3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("query after backend: status %d, want 200", rec.Code)
	}
}

// TestHandleProbeStreamsNDJSON pins the /probe contract: every confirmed
// match arrives as an NDJSON line and the set equals the batch Probe result.
func TestHandleProbeStreamsNDJSON(t *testing.T) {
	n := testNode(t, 45)
	probe := denseCatalog(10, 2)
	body, _ := json.Marshal(ProbeRequest{Records: probe})
	req := httptest.NewRequest(http.MethodPost, "/probe", strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	n.Mux().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %q", rec.Code, rec.Body.String())
	}
	got := decodeLines[ProbeMatch](t, rec.Body.String())
	want, _ := n.ix().Probe(probe)
	if len(got) != len(want) {
		t.Fatalf("streamed %d matches, batch Probe returns %d", len(got), len(want))
	}
	seen := make(map[ProbeMatch]bool, len(got))
	for _, m := range got {
		seen[m] = true
	}
	for _, m := range want {
		if !seen[ProbeMatch{S: m.S, T: m.T, Similarity: m.Similarity}] {
			t.Fatalf("batch match %+v missing from stream", m)
		}
	}
}

// cancellingWriter simulates a client that hangs up mid-stream: the first
// write succeeds, then the request context is cancelled and every further
// write fails — exactly what net/http presents to a handler whose peer
// disconnected.
type cancellingWriter struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
	writes int
}

func (cw *cancellingWriter) Write(p []byte) (int, error) {
	cw.writes++
	if cw.writes > 1 {
		cw.cancel()
		return 0, errors.New("client disconnected")
	}
	return cw.ResponseRecorder.Write(p)
}

// TestHandleProbeAbortsOnClientDisconnect: when the client connection dies
// mid-stream, the handler must abort the in-flight join — returning long
// before the full join would complete — instead of verifying candidates for
// a dead peer.
func TestHandleProbeAbortsOnClientDisconnect(t *testing.T) {
	n := testNode(t, 300)
	probe := denseCatalog(300, 3)
	body, _ := json.Marshal(ProbeRequest{Records: probe})

	// Baseline: the full probe, timed, so the aborted run has a yardstick.
	start := time.Now()
	full, _ := n.ix().Probe(probe)
	fullTime := time.Since(start)
	if len(full) < 10000 {
		t.Fatalf("workload too small: %d matches", len(full))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/probe", strings.NewReader(string(body))).WithContext(ctx)
	cw := &cancellingWriter{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
	start = time.Now()
	n.Mux().ServeHTTP(cw, req)
	abortTime := time.Since(start)

	if cw.writes >= len(full) {
		t.Fatalf("handler wrote %d lines despite disconnect (full result %d)", cw.writes, len(full))
	}
	if abortTime >= fullTime {
		t.Errorf("aborted probe took %v, full probe %v — disconnect did not stop the join",
			abortTime, fullTime)
	}
}

// TestHandleProbeRequestContext drives the real network path: a client with
// a short deadline hits /probe on a live server, and the handler must return
// promptly once the request context dies.
func TestHandleProbeRequestContext(t *testing.T) {
	n := testNode(t, 300)
	done := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(done)
		n.Mux().ServeHTTP(w, r)
	}))
	defer ts.Close()

	body, _ := json.Marshal(ProbeRequest{Records: denseCatalog(300, 4)})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/probe", strings.NewReader(string(body)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("probe request: %v", err)
	}
	// Read one line of the stream, then hang up.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("first streamed line: %v", err)
	}
	cancel()
	resp.Body.Close()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("handler did not return after client disconnect")
	}
}

// TestHandleInsertRemoveRoundTrip keeps the mutation endpoints honest after
// the handler move into the cluster package.
func TestHandleInsertRemoveRoundTrip(t *testing.T) {
	n := testNode(t, 10)
	body, _ := json.Marshal(InsertRequest{Records: []string{"espresso cafe helsinki city center extra"}})
	rec := httptest.NewRecorder()
	n.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/insert", strings.NewReader(string(body))))
	var ins InsertResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ins); err != nil || len(ins.IDs) != 1 {
		t.Fatalf("insert response %q (%v)", rec.Body.String(), err)
	}
	rmBody := fmt.Sprintf(`{"id": %d}`, ins.IDs[0])
	rec = httptest.NewRecorder()
	n.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/remove", strings.NewReader(rmBody)))
	var rm RemoveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rm); err != nil || !rm.Removed {
		t.Fatalf("remove response %q (%v)", rec.Body.String(), err)
	}
}

package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/datagen"
)

// sameRequest compares two requests field by field, min_sim by its bits.
func sameRequest(a, b frameRequest) bool {
	return a.op == b.op && slices.Equal(a.groups, b.groups) && a.k == b.k &&
		math.Float64bits(a.minSim) == math.Float64bits(b.minSim) && a.q == b.q && slices.Equal(a.records, b.records)
}

// FuzzFrameDecode hammers the frame reader and both payload decoders. The
// contract: never panic; refuse a frame whose declared length is over the
// cap or past the input's end, a request of an unknown op, and one whose
// groups are not a strictly ascending list of at least one (of exactly one
// for a probe); and decode an accepted payload into a value that encodes
// back into the same value. The committed corpus under testdata/fuzz seeds
// it with a frame of every kind, a request of several groups, and refusals:
// an empty group list and a group count past the payload's end among them.
func FuzzFrameDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil)
		switch {
		case len(data) < 4:
			if err == nil {
				t.Fatalf("a %d-byte input read as a frame", len(data))
			}
		case binary.BigEndian.Uint32(data) > maxFrameBytes:
			if !errors.Is(err, errFrameTooLarge) {
				t.Fatalf("a frame over the cap was not refused as one: %v", err)
			}
		case uint64(len(data)-4) < uint64(binary.BigEndian.Uint32(data)):
			if err == nil {
				t.Fatal("a truncated frame was read")
			}
		default:
			if err != nil || !bytes.Equal(p, data[4:4+binary.BigEndian.Uint32(data)]) {
				t.Fatalf("a whole frame was not read back: %v", err)
			}
		}
		for _, payload := range [][]byte{data, p} {
			var req frameRequest
			err := decodeRequest(payload, &req)
			if len(payload) > 0 && payload[0] != opQuery && payload[0] != opProbe && err == nil {
				t.Fatalf("a request of op %d was accepted", payload[0])
			}
			if err == nil && (len(req.groups) == 0 || req.op == opProbe && len(req.groups) != 1 ||
				!slices.IsSorted(req.groups) || len(slices.Compact(slices.Clone(req.groups))) != len(req.groups)) {
				t.Fatalf("a request of groups %v (op %d) was accepted", req.groups, req.op)
			}
			if err == nil {
				var again frameRequest
				err := decodeRequest(appendRequest(nil, &req)[4:], &again)
				if err != nil || !sameRequest(again, req) {
					t.Fatalf("request %+v re-decoded as %+v (%v)", req, again, err)
				}
			}
			if m, err := decodeAnswer(payload); err == nil {
				var b []byte
				if m.tag == tagEnd {
					b = appendEnd(nil, m.status, m.body)
				} else {
					b = appendMatch(nil, m.tag, m.id, m.pos, m.sim)
				}
				again, err := decodeAnswer(b[4:])
				if err != nil || again.tag != m.tag || again.id != m.id || again.pos != m.pos ||
					math.Float64bits(again.sim) != math.Float64bits(m.sim) || again.status != m.status || !bytes.Equal(again.body, m.body) {
					t.Fatalf("answer %+v re-decoded as %+v (%v)", m, again, err)
				}
			}
		}
	})
}

// TestFrameDecodeSeeds pins the branch each committed FuzzFrameDecode seed is
// named for, so that a change of the frame layout cannot leave the seeds
// decoding as something else: each is read as a frame and decoded as its
// name says, and either decodes or is refused with the error its name
// promises.
func TestFrameDecodeSeeds(t *testing.T) {
	seeds := map[string]struct {
		answer bool   // decoded as an answer, not a request
		err    string // what the refusal says; "" decodes
	}{
		"seed-query-request":       {},
		"seed-probe-request":       {},
		"seed-multi-group-request": {},
		"seed-query-match":         {answer: true},
		"seed-probe-match":         {answer: true},
		"seed-end-ok":              {answer: true},
		"seed-end-failure":         {answer: true},
		"seed-multi-group-probe":   {err: "a probe request of 2 groups"},
		"seed-no-group":            {err: "a request of no group"},
		"seed-groups-unordered":    {err: "not strictly ascending"},
		"seed-lying-group-count":   {err: errFrameShort.Error()},
		"seed-lying-count":         {err: errFrameShort.Error()},
		"seed-unknown-op":          {err: "unknown frame op 9"},
		"seed-truncated":           {err: io.ErrUnexpectedEOF.Error()},
		"seed-over-cap":            {err: errFrameTooLarge.Error()},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzFrameDecode")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(seeds) {
		t.Errorf("%d seeds committed, %d pinned", len(files), len(seeds))
	}
	for _, f := range files {
		want, ok := seeds[f.Name()]
		if !ok {
			t.Errorf("seed %s is not pinned", f.Name())
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("seed %s: not a []byte corpus entry (%v)", f.Name(), err)
		}
		p, err := readFrame(bufio.NewReader(strings.NewReader(data)), nil)
		if err == nil {
			if want.answer {
				_, err = decodeAnswer(p)
			} else {
				err = decodeRequest(p, &frameRequest{})
			}
		}
		if got := fmt.Sprint(err); want.err == "" && err != nil || want.err != "" && !strings.Contains(got, want.err) {
			t.Errorf("seed %s: decoded with error %v, want %q", f.Name(), err, want.err)
		}
	}
}

// TestFrameServerClosesOnMalformedFrame: a frame over the cap, a request of
// an unknown op and a truncated request each close their connection, with no
// answer; a well-formed request on a fresh connection is then served.
func TestFrameServerClosesOnMalformedFrame(t *testing.T) {
	tc := startCluster(t, 1, 1, denseCatalog(30, 2), 0.7, 2, "dp")
	ctx := context.Background()
	for name, frame := range map[string][]byte{
		"over the cap": binary.BigEndian.AppendUint32(nil, maxFrameBytes+1),
		"unknown op":   {0, 0, 0, 2, 9, 0},
		"truncated":    {0, 0, 0, 4, opQuery, 1, 0, 2},
	} {
		fc, err := dialFrames(ctx, tc.workers[0].URL)
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		if _, err := fc.conn.Write(frame); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		fc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := fc.br.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: read %d bytes (%v), want the worker to close the connection", name, n, err)
		}
		fc.conn.Close()
	}
	req := frameRequest{op: opQuery, groups: []int{0}, k: 3, q: "espresso cafe helsinki"}
	status := 0
	err := (&framePool{}).roundTrip(ctx, tc.workers[0].URL, &req, func(m frameMatch) error {
		if m.tag == tagEnd {
			status = m.status
		}
		return nil
	})
	if err != nil || status != http.StatusOK {
		t.Fatalf("a well-formed read after them: status %d (%v)", status, err)
	}
}

// TestCancelledFrameReadClosesConnection follows group reads whose context
// ends. One that ends while its new connection is being upgraded — a
// hedge's loser that had to dial — sends nothing but pools the connection.
// One whose context has ended by the time it holds a connection sends
// nothing and leaves it pooled. One whose context ends while the worker
// holds it past drainTimeout returns with the context's error, its
// connection is closed rather than pooled, and the closed connection
// cancels the request's context on the worker.
func TestCancelledFrameReadClosesConnection(t *testing.T) {
	held, cancelled := make(chan struct{}), make(chan struct{})
	upgrading, dialEnded := make(chan struct{}), make(chan struct{})
	var dials, late atomic.Int32
	tc := startCluster(t, 1, 1, denseCatalog(30, 2), 0.7, 2, "dp", clusterOpts{
		wrap: func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == framesPath && dials.Add(1) == 1 {
					close(upgrading)
					<-dialEnded
				}
				h.ServeHTTP(w, r)
			})
		},
		frames: func(ctx context.Context, _ int, req *frameRequest) error {
			if req.k == 8 {
				late.Add(1)
			}
			if req.k != 7 {
				return nil
			}
			close(held)
			select {
			case <-ctx.Done():
				close(cancelled)
			case <-time.After(30 * time.Second):
			}
			return nil
		},
	})
	var pool framePool
	none := func(frameMatch) error { return nil }
	ended, end := context.WithCancel(context.Background())
	go func() {
		<-upgrading
		end()
		close(dialEnded)
	}()
	req := frameRequest{op: opQuery, groups: []int{0}, k: 8, q: "espresso cafe helsinki"}
	if err := pool.roundTrip(ended, tc.workers[0].URL, &req, none); !errors.Is(err, context.Canceled) {
		t.Fatalf("the read cancelled mid-dial returned %v, want context.Canceled", err)
	}
	if n, sent := len(pool.idle), late.Load(); n != 1 || sent != 0 {
		t.Fatalf("after a read cancelled mid-dial: %d connections pooled and %d requests sent, want 1 and 0", n, sent)
	}
	if err := pool.roundTrip(ended, tc.workers[0].URL, &req, none); !errors.Is(err, context.Canceled) {
		t.Fatalf("the read under an ended context returned %v, want context.Canceled", err)
	}
	if n, sent := len(pool.idle), late.Load(); n != 1 || sent != 0 {
		t.Fatalf("after a read under an ended context: %d connections pooled and %d requests sent, want 1 and 0", n, sent)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-held
		cancel()
	}()
	req.k = 7
	err := pool.roundTrip(ctx, tc.workers[0].URL, &req, none)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("the cancelled read returned %v, want context.Canceled", err)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("the worker was dialled %d times, want once", n)
	}
	if n := len(pool.idle); n != 0 {
		t.Errorf("%d connections pooled after a cancelled read, want none", n)
	}
	select {
	case <-cancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker's request context was not cancelled when its connection closed")
	}
}

// TestHedgeLoserKeepsConnection: worker 0 answers every top-k read 30 ms
// late and the hedge delay is 2 ms, so each read that tries worker 0 first is
// hedged and lost to the group's other replica. The loser reads its answer to
// the end and goes back to the pool: with each lookup's losers drained before
// the next, worker 0 is dialled no more often than two reads at once need (it
// hosts two groups), however many hedges fired, and every answer is exact.
func TestHedgeLoserKeepsConnection(t *testing.T) {
	catalog := denseCatalog(180, 7)
	var dials, slow atomic.Int32
	tc := startCluster(t, 3, 2, catalog, 0.8, 2, "dp", clusterOpts{
		hedge: 2 * time.Millisecond,
		wrap: func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if i == 0 && r.URL.Path == framesPath {
					dials.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		},
		frames: func(_ context.Context, i int, req *frameRequest) error {
			if i == 0 && req.op == opQuery {
				slow.Add(1)
				time.Sleep(30 * time.Millisecond)
			}
			return nil
		},
	})
	var ref0 *workerRef
	for _, ref := range tc.coord.refs() {
		if ref.addr == tc.workers[0].URL {
			ref0 = ref
		}
	}
	idle := func() int {
		ref0.frames.mu.Lock()
		defer ref0.frames.mu.Unlock()
		return len(ref0.frames.idle)
	}
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.8, Tau: 2, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})
	for round := 0; round < 3; round++ {
		for _, q := range equivalenceQueries {
			if got, want := tc.topK(t, q, 10), refTopK(t, ref, q, 10); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("query %q:\n got %v\nwant %v", q, got, want)
			}
			deadline := time.Now().Add(10 * time.Second)
			for idle() != int(dials.Load()) {
				if time.Now().After(deadline) {
					t.Fatalf("query %q: %d of worker 0's %d connections came back to the pool", q, idle(), dials.Load())
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	if slow.Load() < 10 {
		t.Fatalf("only %d reads reached the slow worker; too few hedges to test", slow.Load())
	}
	if n := dials.Load(); n > 2 {
		t.Errorf("worker 0 was dialled %d times for %d slow reads, want at most 2", n, slow.Load())
	}
	if state := tc.workerStates()[tc.workers[0].URL]; state != "ready" {
		t.Errorf("the slow worker is %q; a slow replica is not a dead one", state)
	}
}

// TestLookupCrossesEachWorkerOnce counts the query frames the workers see at
// (N, R) = (3, 2), (4, 2), (5, 3) and (3, 1): a lookup sends ⌈N/R⌉, which
// carry every group once, from whichever group the read rotation starts at,
// and answers as the single node does. With a worker down (R > 1) every
// group is still read once and the answers stay exact. Then a worker that
// hosts two groups stalls every read it is sent past the hedge delay: each
// lookup is answered from the other replicas, exactly and without waiting
// for the stalled frame to drain, and the stalled worker stays ready.
func TestLookupCrossesEachWorkerOnce(t *testing.T) {
	catalog := denseCatalog(180, 7)
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.8, Tau: 2, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})
	exact := func(t *testing.T, tc *testCluster, stage string) {
		t.Helper()
		for _, q := range equivalenceQueries {
			if got, want := tc.topK(t, q, 10), refTopK(t, ref, q, 10); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: query %q:\n got %v\nwant %v", stage, q, got, want)
			}
		}
	}
	for _, c := range []struct{ n, r int }{{3, 2}, {4, 2}, {5, 3}, {3, 1}} {
		t.Run(fmt.Sprintf("N=%d,R=%d", c.n, c.r), func(t *testing.T) {
			var mu sync.Mutex
			frames, groups := 0, map[int]int{}
			tc := startCluster(t, c.n, c.r, catalog, 0.8, 2, "dp", clusterOpts{
				hedge: time.Hour, // no hedged reads: every frame counted is a plan's
				frames: func(_ context.Context, _ int, req *frameRequest) error {
					if req.op == opQuery {
						mu.Lock()
						frames++
						for _, g := range req.groups {
							groups[g]++
						}
						mu.Unlock()
					}
					return nil
				},
			})
			// count returns the frames and the groups read since it last ran.
			count := func() (int, map[int]int) {
				mu.Lock()
				defer mu.Unlock()
				f, g := frames, groups
				frames, groups = 0, map[int]int{}
				return f, g
			}
			lookups := func(stage string, want int) {
				t.Helper()
				count()
				for _, q := range equivalenceQueries { // more lookups than groups: every start
					if got, want := tc.topK(t, q, 10), refTopK(t, ref, q, 10); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: query %q:\n got %v\nwant %v", stage, q, got, want)
					}
					f, read := count()
					if want > 0 && f != want {
						t.Errorf("%s: query %q crossed %d frames, want %d", stage, q, f, want)
					}
					for g := range c.n {
						if read[g] != 1 {
							t.Errorf("%s: query %q read group %d %d times, want once", stage, q, g, read[g])
						}
					}
				}
			}
			lookups("every worker ready", (c.n+c.r-1)/c.r)
			if c.r > 1 {
				tc.kill(t, 1)
				lookups("worker 1 down", 0)
			}
		})
	}

	t.Run("stalled", func(t *testing.T) {
		release := make(chan struct{})
		var stalls, twoGroup atomic.Int32
		tc := startCluster(t, 3, 2, catalog, 0.8, 2, "dp", clusterOpts{frames: func(_ context.Context, i int, req *frameRequest) error {
			if i == 0 && req.op == opQuery {
				stalls.Add(1)
				if len(req.groups) == 2 {
					twoGroup.Add(1)
				}
				<-release
			}
			return nil
		}})
		var once sync.Once
		unstall := func() { once.Do(func() { close(release) }) }
		t.Cleanup(unstall) // a failing run must not leave the worker's server unable to close
		var took []time.Duration
		for round := 0; round < 2; round++ {
			start := time.Now()
			exact(t, tc, fmt.Sprintf("round %d", round))
			took = append(took, time.Since(start)/time.Duration(len(equivalenceQueries)))
		}
		if twoGroup.Load() == 0 {
			t.Fatalf("%d reads reached the stalled worker, none of two groups; nothing was tested", stalls.Load())
		}
		if state := tc.workerStates()[tc.workers[0].URL]; state != "ready" {
			t.Errorf("the stalled worker is %q; a slow replica is not a dead one", state)
		}
		if d := slices.Min(took); d >= drainTimeout {
			t.Errorf("a lookup took %v on average around the stalled worker, as long as a drain; the hedge delay is 20 ms", d)
		}
		unstall()
		settleGoroutines(t, "after the stalled worker is released")
	})
}

// countUpgrades counts the frame connections a worker accepts.
func countUpgrades(n *atomic.Int32) func(int, http.Handler) http.Handler {
	return func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == framesPath {
				n.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}
}

// closeIdleFrames closes every frame connection worker wk serves, as its
// idle timeout does when it passes, and returns how many it closed. Call it
// with no request in flight.
func closeIdleFrames(wk *Worker) int {
	wk.fmu.Lock()
	defer wk.fmu.Unlock()
	for c := range wk.fconns {
		c.Close()
	}
	return len(wk.fconns)
}

// TestPooledFrameConnClosedByWorker runs the workers with aujoind's server
// timeouts, the read timeout cut so the test can wait it out (aujoind: 30 s)
// and the idle timeout far past the test's length (aujoind: 2 min). A pooled
// connection idle past the read timeout is still served: the worker does not
// hold it to the deadlines of its upgrade request. One the worker closed
// while it sat idle (closeIdleFrames, the idle timeout on demand):
// the next query redials instead of failing, and the worker stays ready.
// With one replica a group, there is no replica to fail over to. No wall-clock
// wait decides the outcome: a sleep only ever outlasts the read timeout.
func TestPooledFrameConnClosedByWorker(t *testing.T) {
	catalog := denseCatalog(90, 13)
	var upgrades atomic.Int32
	tc := startCluster(t, 3, 1, catalog, 0.7, 2, "dp", clusterOpts{
		wrap: countUpgrades(&upgrades),
		server: func(s *http.Server) {
			s.ReadHeaderTimeout = 5 * time.Second
			s.ReadTimeout = 100 * time.Millisecond
			s.WriteTimeout = 60 * time.Second
			s.IdleTimeout = time.Hour
		},
	})
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.7, Tau: 2, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})
	// The reference answers are computed up front, so a pooled connection
	// idles between rounds for the sleep alone.
	wants := make([]string, len(equivalenceQueries))
	for i, q := range equivalenceQueries {
		wants[i] = fmt.Sprint(refTopK(t, ref, q, 10))
	}
	query := func(stage string) {
		t.Helper()
		for i, q := range equivalenceQueries {
			if got := fmt.Sprint(tc.topK(t, q, 10)); got != wants[i] {
				t.Fatalf("%s: query %q:\n got %v\nwant %v", stage, q, got, wants[i])
			}
		}
		for addr, state := range tc.workerStates() {
			if state != "ready" {
				t.Fatalf("%s: worker %s is %s, want ready", stage, addr, state)
			}
		}
	}
	query("first")
	dialed := upgrades.Load()
	if dialed != 3 {
		t.Fatalf("%d frame connections for serial reads of one replica a group, want 3", dialed)
	}
	time.Sleep(300 * time.Millisecond)
	query("idle past the read timeout")
	if n := upgrades.Load(); n != dialed {
		t.Fatalf("%d frame connections after idling past the read timeout, want the %d pooled ones reused", n, dialed)
	}
	for i, wk := range tc.nodes {
		if n := closeIdleFrames(wk); n != 1 {
			t.Fatalf("worker %d serves %d frame connections, want its one pooled", i, n)
		}
	}
	query("idle past the idle timeout")
	if n := upgrades.Load(); n != 2*dialed {
		t.Fatalf("%d frame connections after the idle timeout passed, want %d: each worker closed its one", n, 2*dialed)
	}
}

// TestProbeStreamOutlivesWriteTimeout: a probe stream longer than the
// worker's WriteTimeout is answered in full — the write deadline is armed
// per write, not once for the connection or the request. The health checker
// is stopped: the workers' 50 ms timeouts also close its keep-alive
// connections, and two heartbeats in a row that failed on one would take a
// worker out, so only the probe stream under test can fail the closing
// "every worker ready" check.
func TestProbeStreamOutlivesWriteTimeout(t *testing.T) {
	catalog := denseCatalog(120, 14)
	const writeTimeout = 50 * time.Millisecond
	var stalled atomic.Int32
	tc := startCluster(t, 3, 2, catalog, 0.7, 2, "dp", clusterOpts{
		heartbeat: time.Hour,
		server:    func(s *http.Server) { s.ReadTimeout, s.WriteTimeout = writeTimeout, writeTimeout },
		frames: func(_ context.Context, _ int, req *frameRequest) error {
			if req.op == opProbe {
				stalled.Add(1)
				time.Sleep(3 * writeTimeout)
			}
			return nil
		},
	})
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.7, Tau: 2, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})
	probes := denseCatalog(20, 15)
	for round := 0; round < 2; round++ {
		start := time.Now()
		got := tc.probe(t, probes)
		if d := time.Since(start); d < writeTimeout {
			t.Fatalf("the probe took %v, inside the %v write timeout; nothing was tested", d, writeTimeout)
		}
		want := refProbe(t, ref, probes)
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("round %d: cluster %d matches, single-node %d", round, len(got), len(want))
		}
	}
	if stalled.Load() == 0 {
		t.Fatal("no probe reached a worker's frame server; nothing was tested")
	}
	for addr, state := range tc.workerStates() {
		if state != "ready" {
			t.Errorf("worker %s is %s, want ready", addr, state)
		}
	}
}

// titlesCluster boots three workers at R = 2 over a catalog of n records
// shaped like the benchmark's titles workloads (q = 5, θ = 0.9, τ = 12, the
// heuristic filter), and returns it with 64 lookups: half variants of catalog
// records, half records of the same generator outside the catalog. The
// coordinator's health checker is all but stopped, so nothing but the
// lookups runs in the process, and its hedge waits an hour: a lookup that
// stalls (a collection, a loaded machine) is not raced against a second
// replica, whose read would otherwise add to what it is measured at.
func titlesCluster(tb testing.TB, n int) (*testCluster, []string) {
	catalog, queries, opts := titlesShape(tb, n)
	return startCluster(tb, 3, 2, catalog, 0.9, 12, "heuristic", opts), queries
}

// titlesShape generates titlesCluster's catalog of n records and its 64
// lookups, and the cluster options that give every worker the generator's
// synonym rules and taxonomy at q = 5.
func titlesShape(tb testing.TB, n int) (catalog, queries []string, opts clusterOpts) {
	cfg := datagen.MEDLike(n, 20190811)
	cfg.VocabSize = 10000
	cfg.MinTokens, cfg.MaxTokens = 10, 14
	cfg.DistinctTokens = true
	cfg.EntityRate, cfg.SynonymTermRate = 0.05, 0.05
	cfg.TaxonomyNodes, cfg.SynonymRules = 1000, 200
	gen := datagen.New(cfg)
	universe := gen.Collection(n + 32)
	var rules, tax bytes.Buffer
	if err := gen.Rules().Write(&rules); err != nil {
		tb.Fatal(err)
	}
	if err := gen.Taxonomy().Write(&tax); err != nil {
		tb.Fatal(err)
	}
	opts = clusterOpts{
		heartbeat: time.Hour,
		hedge:     time.Hour,
		joiner: func() (*aujoin.Joiner, error) {
			return aujoin.NewStrict(
				aujoin.WithSynonymsFrom(bytes.NewReader(rules.Bytes())),
				aujoin.WithTaxonomyFrom(bytes.NewReader(tax.Bytes())),
				aujoin.WithGramLength(5),
			)
		},
	}
	queries = make([]string, 64)
	for k := range queries {
		queries[k] = universe[n+k/2]
		if k%2 == 0 {
			queries[k], _ = gen.Variant(universe[k*n/len(queries)])
		}
	}
	return universe[:n], queries, opts
}

// BenchmarkCoordinatorBootstrap is one cluster bootstrap over 10 000 titles:
// three workers at R = 2 register, and the coordinator configures them,
// seeds the catalog and runs the first epoch bump; the cluster is torn down
// off the clock. The workers' joiners are made off the clock too.
func BenchmarkCoordinatorBootstrap(b *testing.B) {
	catalog, _, opts := titlesShape(b, 10000)
	newJoiner := opts.joiner
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var joiners []*aujoin.Joiner
		for w := 0; w < 3; w++ {
			j, err := newJoiner()
			if err != nil {
				b.Fatal(err)
			}
			joiners = append(joiners, j)
		}
		opts.joiner = func() (*aujoin.Joiner, error) {
			j := joiners[0]
			joiners = joiners[1:]
			return j, nil
		}
		tb := &iterationTB{TB: b}
		b.StartTimer()
		startCluster(tb, 3, 2, catalog, 0.9, 12, "heuristic", opts)
		b.StopTimer()
		tb.cleanup()
		b.StartTimer()
	}
}

// BenchmarkCoordinatorBump is one epoch bump of a bootstrapped cluster over
// 10 000 titles (three workers, R = 2): the coordinator collects each group's
// frequency table, merges them, and every worker adopts the order — every
// group index rebuilt under it — and moves to the new epoch.
func BenchmarkCoordinatorBump(b *testing.B) {
	tc, _ := titlesCluster(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tc.coord.BumpEpoch("benchmark"); err != nil {
			b.Fatal(err)
		}
	}
}

// iterationTB is a testing.TB whose cleanups run when the benchmark
// iteration calls cleanup, not at the end of the benchmark.
type iterationTB struct {
	testing.TB
	cleanups []func()
}

func (tb *iterationTB) Cleanup(f func()) { tb.cleanups = append(tb.cleanups, f) }

func (tb *iterationTB) cleanup() {
	for i := len(tb.cleanups) - 1; i >= 0; i-- {
		tb.cleanups[i]()
	}
	tb.cleanups = nil
}

// BenchmarkCoordinatorQuery is one top-10 lookup through the coordinator's
// scatter-gather: the cover plan's two frames (three groups at R = 2, one
// replica reading each) and the merge, workers included, over a
// titles-shaped catalog.
func BenchmarkCoordinatorQuery(b *testing.B) {
	tc, queries := titlesCluster(b, 3000)
	ctx, opts := context.Background(), aujoin.QueryOptions{K: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.coord.topK(ctx, queries[i%len(queries)], opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCoordinatorQueryAllocs pins the heap objects of a coordinator lookup,
// its three workers' share included (the engine's own allocations are
// TestQueryAllocsPinned's, in internal/join). A group read over HTTP cost
// about 70 more objects a group, and a lookup of one frame a group (three,
// where the cover plan sends two) 153 in all, so the pin catches either
// creeping back. The ceiling is the measured count, 47, plus the one a
// garbage collection during the runs adds (it empties the engine's
// sync.Pools, whose refills count): with GOGC=off every run reads 47. A
// normal query's tokens are views of its text, so each of the lookup's
// tokenizings (the coordinator's and every worker's) is one object, the
// split.
// Skipped with -short, as the engine's pins are.
//
// AllocsPerRun measures at GOMAXPROCS 1, so the lookups that fill the
// connection pools and the caches run at one P too: filled at more, the
// sync.Pool objects the lookups reuse sit partly in another P's private
// slot, which the measured P cannot take, and each run would count as many
// refills as the scheduler happened to strand there.
func TestCoordinatorQueryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are only meaningful without -race; skipped with -short")
	}
	tc, queries := titlesCluster(t, 3000)
	ctx, opts := context.Background(), aujoin.QueryOptions{K: 10}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, q := range queries { // fill the connection pools and the caches
		tc.coord.topK(ctx, q, opts)
	}
	i := 0
	allocs := testing.AllocsPerRun(4*len(queries), func() {
		if _, err := tc.coord.topK(ctx, queries[i%len(queries)], opts); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.0f allocs per coordinator lookup", allocs)
	const ceiling = 48
	if allocs > ceiling {
		t.Errorf("%.0f allocs per coordinator lookup, ceiling %d", allocs, ceiling)
	}
}

package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/datagen"
)

// sameRequest compares two requests field by field, min_sim by its bits.
func sameRequest(a, b frameRequest) bool {
	return a.op == b.op && a.group == b.group && a.epoch == b.epoch && a.k == b.k &&
		math.Float64bits(a.minSim) == math.Float64bits(b.minSim) && a.q == b.q && slices.Equal(a.records, b.records)
}

// FuzzFrameDecode hammers the frame reader and both payload decoders. The
// contract: never panic; refuse a frame whose declared length is over the
// cap or past the input's end, and a request of an unknown op; and decode
// an accepted payload into a value that encodes back into the same value.
// The committed corpus under testdata/fuzz seeds it with a frame of every
// kind, and refusals.
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
			req, err := decodeRequest(payload)
			if len(payload) > 0 && payload[0] != opQuery && payload[0] != opProbe && err == nil {
				t.Fatalf("a request of op %d was accepted", payload[0])
			}
			if err == nil {
				again, err := decodeRequest(appendRequest(nil, &req, req.epoch)[4:])
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

// TestFrameServerClosesOnMalformedFrame: a frame over the cap, a request of
// an unknown op and a truncated request each close their connection, with no
// answer; a well-formed request on a fresh connection is then served.
func TestFrameServerClosesOnMalformedFrame(t *testing.T) {
	tc := startCluster(t, 1, 1, denseCatalog(30, 2), 0.7, 2, "dp")
	ctx := context.Background()
	for name, frame := range map[string][]byte{
		"over the cap": binary.BigEndian.AppendUint32(nil, maxFrameBytes+1),
		"unknown op":   {0, 0, 0, 2, 9, 0},
		"truncated":    {0, 0, 0, 3, opQuery, 0, 2},
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
	req := frameRequest{op: opQuery, k: 3, q: "espresso cafe helsinki"}
	status, _, err := (&framePool{}).roundTrip(ctx, tc.workers[0].URL, &req, tc.coord.Stats().Epoch, func(frameMatch) error { return nil })
	if err != nil || status != http.StatusOK {
		t.Fatalf("a well-formed read after them: status %d (%v)", status, err)
	}
}

// TestCancelledFrameReadClosesConnection: a group read whose context ends
// while the worker holds it returns at once with the context's error, its
// connection is closed rather than pooled, and the closed connection
// cancels the request's context on the worker.
func TestCancelledFrameReadClosesConnection(t *testing.T) {
	held, cancelled := make(chan struct{}), make(chan struct{})
	tc := startCluster(t, 1, 1, denseCatalog(30, 2), 0.7, 2, "dp", clusterOpts{
		frames: func(ctx context.Context, _ int, req *frameRequest) error {
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
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-held
		cancel()
	}()
	req := frameRequest{op: opQuery, k: 7, q: "espresso cafe helsinki"}
	_, _, err := pool.roundTrip(ctx, tc.workers[0].URL, &req, tc.coord.Stats().Epoch, func(frameMatch) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("the cancelled read returned %v, want context.Canceled", err)
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

// TestPooledFrameConnClosedByWorker runs the workers with aujoind's server
// timeouts, the idle and read timeouts cut so the test can wait them out
// (aujoind: 2 min and 30 s). A pooled connection idle past the read timeout
// is still served: the worker does not hold it to the deadlines of its
// upgrade request. One idle past the idle timeout was closed by the worker:
// the next query redials instead of failing, and the worker stays ready.
// With one replica a group, there is no replica to fail over to.
func TestPooledFrameConnClosedByWorker(t *testing.T) {
	catalog := denseCatalog(90, 13)
	var upgrades atomic.Int32
	tc := startCluster(t, 3, 1, catalog, 0.7, 2, "dp", clusterOpts{
		wrap: countUpgrades(&upgrades),
		server: func(s *http.Server) {
			s.ReadHeaderTimeout = 5 * time.Second
			s.ReadTimeout = 100 * time.Millisecond
			s.WriteTimeout = 60 * time.Second
			s.IdleTimeout = time.Second
		},
	})
	j, err := aujoin.NewStrict()
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	ref := j.IndexWith(catalog, aujoin.JoinOptions{Theta: 0.7, Tau: 2, Filter: aujoin.AUFilterDP}, aujoin.IndexOptions{Shards: 1})
	query := func(stage string) {
		t.Helper()
		for _, q := range equivalenceQueries {
			if got, want := tc.topK(t, q, 10), ref.QueryTopK(q, 10); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: query %q:\n got %v\nwant %v", stage, q, got, want)
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
	time.Sleep(1500 * time.Millisecond)
	query("idle past the idle timeout")
	if n := upgrades.Load(); n != 2*dialed {
		t.Fatalf("%d frame connections after idling past the idle timeout, want %d: each worker closed its one", n, 2*dialed)
	}
}

// TestProbeStreamOutlivesWriteTimeout: a probe stream longer than the
// worker's WriteTimeout is answered in full — the write deadline is armed
// per write, not once for the connection or the request.
func TestProbeStreamOutlivesWriteTimeout(t *testing.T) {
	catalog := denseCatalog(120, 14)
	const writeTimeout = 50 * time.Millisecond
	var stalled atomic.Int32
	tc := startCluster(t, 3, 2, catalog, 0.7, 2, "dp", clusterOpts{
		server: func(s *http.Server) { s.ReadTimeout, s.WriteTimeout = writeTimeout, writeTimeout },
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
		want, _ := ref.Probe(probes)
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
// replica, whose read and whose closed connection — the loser's, dialled
// again by the next lookup — would otherwise add to what it is measured at.
func titlesCluster(tb testing.TB, n int) (*testCluster, []string) {
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
	tc := startCluster(tb, 3, 2, universe[:n], 0.9, 12, "heuristic", clusterOpts{
		heartbeat: time.Hour,
		hedge:     time.Hour,
		joiner: func() (*aujoin.Joiner, error) {
			return aujoin.NewStrict(
				aujoin.WithSynonymsFrom(bytes.NewReader(rules.Bytes())),
				aujoin.WithTaxonomyFrom(bytes.NewReader(tax.Bytes())),
				aujoin.WithGramLength(5),
			)
		},
	})
	queries := make([]string, 64)
	for k := range queries {
		queries[k] = universe[n+k/2]
		if k%2 == 0 {
			queries[k], _ = gen.Variant(universe[k*n/len(queries)])
		}
	}
	return tc, queries
}

// BenchmarkCoordinatorQuery is one top-10 lookup through the coordinator's
// scatter-gather: a group read to one replica of each of the three groups
// and the merge, workers included, over a titles-shaped catalog.
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
// about 70 more objects a group, so the pin catches one creeping back. The
// ceiling is the measured count rounded up. Skipped with -short, as the
// engine's pins are.
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
	const ceiling = 153
	if allocs > ceiling {
		t.Errorf("%.0f allocs per coordinator lookup, ceiling %d", allocs, ceiling)
	}
}

package aujoin

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"github.com/aujoin/aujoin/internal/store"
)

// persistCorpus builds a deterministic catalog plus probe set over the paper
// joiner's vocabulary, so synonym rules, taxonomy paths and plain token
// edits all appear in the persisted state.
func persistCorpus(seed int64, n int) (catalog, probes []string) {
	vocab := []string{
		"coffee", "shop", "cafe", "latte", "espresso", "cake", "gateau",
		"apple", "bakery", "helsinki", "helsingki", "bar", "central",
		"art", "food", "drinks", "wikipedia", "common", "nothing",
	}
	rng := rand.New(rand.NewSource(seed))
	gen := func(count int) []string {
		out := make([]string, count)
		for i := range out {
			k := 3 + rng.Intn(4)
			toks := make([]string, k)
			for j := range toks {
				toks[j] = vocab[rng.Intn(len(vocab))]
			}
			var b bytes.Buffer
			for j, tok := range toks {
				if j > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(tok)
			}
			out[i] = b.String()
		}
		return out
	}
	return gen(n), gen(n / 4)
}

// queryFingerprint runs the full read surface — Query at K ≤ 0 and K = 5,
// and Probe — and flattens the results so two indexes can be compared for
// bit-identical behaviour.
func queryFingerprint(t *testing.T, ix *Index, probes []string) string {
	t.Helper()
	var b bytes.Buffer
	v := ix.Snapshot()
	for _, q := range probes {
		for _, m := range query(t, v, q, QueryOptions{}) {
			fmt.Fprintf(&b, "q %d %.17g;", m.Record, m.Similarity)
		}
		b.WriteByte('\n')
		for _, m := range query(t, v, q, QueryOptions{K: 5}) {
			fmt.Fprintf(&b, "k %d %.17g;", m.Record, m.Similarity)
		}
		b.WriteByte('\n')
	}
	for _, m := range collectProbe(t, v, probes) {
		fmt.Fprintf(&b, "p %d %d %.17g;", m.S, m.T, m.Similarity)
	}
	return b.String()
}

// TestRestartEquivalence is the core restart property: build → mutate →
// snapshot → reload must serve bit-identical Query and Probe results,
// across every filter, a θ sweep and both a one-shard and a four-shard layout.
// The last row reloads, in place of the index's own image, the image an
// earlier encoder wrote of the same state: seven sections — ids 4 and 5 (the
// records' signatures and prepared-segment spans, which restore now derives
// from the text) and 7 (the deleted per-query planner's feedback table) are
// retired and skipped on read — and meta flag bit 0 (a posting-layout
// toggle, since retired) set in a byte that is reserved now. It is longer
// than today's image and decodes to the same snapshot.
func TestRestartEquivalence(t *testing.T) {
	type row struct {
		filter Filter
		theta  float64
		shards int
		legacy string // image to reload instead of the index's own
	}
	var rows []row
	for _, filter := range []Filter{UFilter, AUFilterHeuristic, AUFilterDP} {
		for _, theta := range []float64{0.7, 0.8, 0.9} {
			for _, shards := range []int{1, 4} {
				rows = append(rows, row{filter: filter, theta: theta, shards: shards})
			}
		}
	}
	rows = append(rows, row{AUFilterDP, 0.8, 4, "testdata/snapshot_pr15_flag_bit0.snap"})

	catalog, probes := persistCorpus(7, 160)
	for _, r := range rows {
		name := fmt.Sprintf("filter=%d/theta=%.1f/shards=%d", r.filter, r.theta, r.shards)
		if r.legacy != "" {
			name += "/flag-bit0-image"
		}
		t.Run(name, func(t *testing.T) {
			j := paperJoiner(t)
			ix := j.IndexWith(catalog, JoinOptions{Theta: r.theta, Tau: 2, Filter: r.filter}, IndexOptions{Shards: r.shards})
			ids := ix.Insert(probes[:8])
			ix.RemoveBatch([]int{ids[1], ids[5], 0})

			var buf bytes.Buffer
			if _, err := ix.WriteSnapshot(&buf); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}
			image := buf.Bytes()
			if r.legacy != "" {
				legacy, err := os.ReadFile(r.legacy)
				if err != nil {
					t.Fatal(err)
				}
				was, err := store.Decode(legacy)
				if err != nil {
					t.Fatalf("decode legacy image: %v", err)
				}
				now, err := store.Decode(image)
				if err != nil {
					t.Fatalf("decode today's image: %v", err)
				}
				if len(legacy) <= len(image) || !reflect.DeepEqual(was, now) {
					t.Fatalf("legacy image: %d bytes against today's %d; want a longer image of the same snapshot", len(legacy), len(image))
				}
				image = legacy
			}
			restored, err := paperJoiner(t).ReadSnapshot(bytes.NewReader(image))
			if err != nil {
				t.Fatalf("ReadSnapshot: %v", err)
			}

			want := queryFingerprint(t, ix, probes)
			got := queryFingerprint(t, restored, probes)
			if want != got {
				t.Fatalf("restored index diverged from original:\n got %q\nwant %q", got, want)
			}
			if bt := restored.Stats().BuildTime; bt <= 0 {
				t.Errorf("restored index reports BuildTime %v, want the construction time of its bases", bt)
			}

			// Post-restore mutations must behave identically too: the
			// restored index allocates the same stable IDs and serves
			// the same results for them.
			a := ix.Insert(probes[8:12])
			b := restored.Insert(probes[8:12])
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("post-restore insert IDs diverged: %v vs %v", a, b)
			}
			if want, got := queryFingerprint(t, ix, probes), queryFingerprint(t, restored, probes); want != got {
				t.Fatalf("post-restore mutations diverged:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// TestPersistentWALReplay checks the log path of recovery: mutations after
// the last checkpoint live only in the WAL, and reopening replays them into
// the exact same state — same IDs, same results.
func TestPersistentWALReplay(t *testing.T) {
	catalog, probes := persistCorpus(11, 120)
	fs := store.NewMemFS()
	jopts := JoinOptions{Theta: 0.8, Tau: 2, Filter: AUFilterDP}

	px, err := paperJoiner(t).openPersistentFS(fs, "data", catalog, jopts, IndexOptions{Shards: 4})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ids, err := px.Insert(probes[:6])
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := px.Remove(ids[2]); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := px.RemoveBatch([]int{1, 3}); err != nil {
		t.Fatalf("remove batch: %v", err)
	}
	if _, err := px.Insert(probes[6:9]); err != nil {
		t.Fatalf("insert: %v", err)
	}
	want := queryFingerprint(t, px.Index(), probes)
	if err := px.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Catalog and options are deliberately different on reopen: a recovered
	// directory must win over them.
	px2, err := paperJoiner(t).openPersistentFS(fs, "data", nil, JoinOptions{Theta: 0.5}, IndexOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer px2.Close()
	if got := queryFingerprint(t, px2.Index(), probes); got != want {
		t.Fatalf("replayed state diverged:\n got %q\nwant %q", got, want)
	}
	st := px2.Index().Stats()
	if st.Theta != 0.8 || st.Shards != 4 {
		t.Fatalf("recovered configuration lost: %+v", st)
	}

	// A checkpoint folds the WAL; the next open restores from snapshot only.
	if err := px2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	px3, err := paperJoiner(t).openPersistentFS(fs, "data", nil, JoinOptions{}, IndexOptions{})
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	defer px3.Close()
	if got := queryFingerprint(t, px3.Index(), probes); got != want {
		t.Fatalf("post-checkpoint state diverged:\n got %q\nwant %q", got, want)
	}
}

// liveSet captures the recovered catalog as id→raw for prefix checking.
func liveSet(ix *Index) map[int]string {
	out := map[int]string{}
	for _, rec := range ix.inner.Snapshot().Live() {
		out[rec.ID] = rec.Raw
	}
	return out
}

// TestPersistentCrashSweep kills the full open→mutate→checkpoint→mutate
// sequence at every filesystem mutation unit and reopens: recovery must
// always succeed and land on a state reachable by applying a prefix of the
// issued batches — a prefix containing every acknowledged one.
func TestPersistentCrashSweep(t *testing.T) {
	catalog, probes := persistCorpus(13, 40)
	jopts := JoinOptions{Theta: 0.8, Tau: 2, Filter: AUFilterDP}

	type batch struct {
		insert []string
		remove []int
	}
	script := []batch{
		{insert: probes[0:2]},
		{remove: []int{1, len(catalog)}},
		{insert: probes[2:4]},
		{remove: []int{0}},
		{insert: probes[4:6]},
	}
	ckptAfter := 2 // checkpoint between batch 2 and 3

	run := func(fs *store.MemFS) (acked int) {
		j := paperJoiner(t)
		px, err := j.openPersistentFS(fs, "data", catalog, jopts, IndexOptions{Shards: 2})
		if err != nil {
			return -1 // not even the initial checkpoint survived
		}
		defer px.Close()
		for i, b := range script {
			var err error
			if b.insert != nil {
				_, err = px.Insert(b.insert)
			} else {
				_, err = px.RemoveBatch(b.remove)
			}
			if err == nil {
				acked = i + 1
			}
			if i+1 == ckptAfter {
				_ = px.Checkpoint()
			}
		}
		return acked
	}

	// Model states: live sets after applying 0..len(script) batches.
	states := make([]map[int]string, 0, len(script)+1)
	{
		j := paperJoiner(t)
		ix := j.IndexWith(catalog, jopts, IndexOptions{Shards: 2})
		states = append(states, liveSet(ix))
		for _, b := range script {
			if b.insert != nil {
				ix.Insert(b.insert)
			} else {
				ix.RemoveBatch(b.remove)
			}
			states = append(states, liveSet(ix))
		}
	}

	dry := store.NewMemFS()
	if run(dry) != len(script) {
		t.Fatal("dry run did not acknowledge every batch")
	}
	total := dry.Spent()

	// Every sweep point rebuilds the index and replays the script, so unlike
	// the store-level byte-exact sweep this one samples: a prime stride keeps
	// the points spread across every phase (snapshot write, rename, dir sync,
	// WAL frames) rather than aliasing onto frame boundaries.
	stride := int64(31)
	if testing.Short() {
		stride = 211
	}
	for k := int64(0); k <= total; k += stride {
		fs := store.NewMemFS()
		fs.FailAfter(k)
		acked := run(fs)
		fs.Heal()
		// Reopen the way a restarted daemon would: same catalog, same options.
		// They only matter when nothing was durable yet (the initial
		// checkpoint itself was killed); a recovered directory ignores them.
		px, err := paperJoiner(t).openPersistentFS(fs, "data", catalog, jopts, IndexOptions{Shards: 2})
		if err != nil {
			t.Fatalf("fault %d: recovery failed after %d acked batches: %v", k, acked, err)
		}
		got := liveSet(px.Index())
		px.Close()
		matched := -1
		for m := max(acked, 0); m <= len(script); m++ {
			if reflect.DeepEqual(got, states[m]) {
				matched = m
				break
			}
		}
		if matched == -1 {
			t.Fatalf("fault %d: recovered state matches no batch prefix ≥ %d acked (live=%d)", k, acked, len(got))
		}
	}
}

// TestConcurrentCheckpointHammer drives checkpoints concurrently with
// mutations and queries; run under -race it checks the capture's atomic cut
// does not tear against the serving and mutation paths.
func TestConcurrentCheckpointHammer(t *testing.T) {
	catalog, probes := persistCorpus(17, 80)
	fs := store.NewMemFS()
	px, err := paperJoiner(t).openPersistentFS(fs, "data", catalog,
		JoinOptions{Theta: 0.8, Tau: 2, Filter: AUFilterDP}, IndexOptions{Shards: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer px.Close()

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := px.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			ids, err := px.Insert([]string{probes[i%len(probes)]})
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if i%3 == 0 {
				if _, err := px.Remove(ids[0]); err != nil {
					t.Errorf("remove: %v", err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := px.Index().Snapshot().Query(context.Background(), probes[i%len(probes)], QueryOptions{K: 3}); err != nil {
				t.Errorf("query: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// The final durable state must equal the final live state.
	if err := px.Checkpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	want := queryFingerprint(t, px.Index(), probes)
	px2, err := paperJoiner(t).openPersistentFS(fs, "data", nil, JoinOptions{}, IndexOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer px2.Close()
	if got := queryFingerprint(t, px2.Index(), probes); got != want {
		t.Fatalf("state after hammering diverged:\n got %q\nwant %q", got, want)
	}
}

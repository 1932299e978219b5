package join

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/aujoin/aujoin/internal/invindex"
	"github.com/aujoin/aujoin/internal/pebble"
)

// checkDeltaLinks fails unless every shard's published view holds delta
// links that are exact for its chain: over every ID the shared order has
// interned and every ID the links cover, the walk visits exactly the
// segments whose posting list for the ID is non-empty, oldest first — so no
// segment holds an ID past the links, and the count filter, which walks
// them, meets every list a walk of every segment meets, in the same order.
// It returns whether some linked ID lies past the base's universe, in the
// order's dynamic region.
func checkDeltaLinks(t *testing.T, sx *ShardedIndex, step string) (dynamic bool) {
	t.Helper()
	var walked [][]invindex.Posting
	for w, sh := range sx.shards {
		v := sh.snapshot()
		n := max(v.gen.order.NumKeys(), len(v.deltas.last))
		for id := uint32(0); int(id) < n; id++ {
			var held []int // the segments holding a list for id, oldest first
			for k, seg := range v.deltas.segs {
				if l, _ := seg.Linked(id); len(l) != 0 {
					held = append(held, k)
				}
			}
			walked = walked[:0]
			if v.deltas.holds(id) {
				walked = v.deltas.walk(id, walked)
			}
			same := len(walked) == len(held)
			for i := 0; same && i < len(held); i++ {
				l, _ := v.deltas.segs[held[i]].Linked(id)
				same = len(walked[i]) == len(l) && &walked[i][0] == &l[0]
			}
			if !same {
				t.Fatalf("%s: shard %d, ID %d: the links walk %d lists, but segments %v of the %d-segment chain hold one (links cover %d IDs, order %d)",
					step, w, id, len(walked), held, len(v.deltas.segs), len(v.deltas.last), v.gen.order.NumKeys())
			}
			dynamic = dynamic || (len(held) > 0 && int(id) >= v.inv.Universe())
		}
	}
	return dynamic
}

// TestDeltaKeysMatchChain walks an index through every way a shard's delta
// chain grows or resets — inserts carrying keys no base record has, removes,
// a MaxSegments compaction, a router re-freeze and a restore of its snapshot
// — at one shard and three, and checks every published view's delta links
// after each step.
func TestDeltaKeysMatchChain(t *testing.T) {
	for _, shards := range gridShards {
		rng := rand.New(rand.NewSource(71))
		ctx := propertyContexts()["full"]
		dopts := DynamicOptions{MaxSegments: 2}
		sx := NewJoiner(ctx).BuildShardedIndex(propertyCorpus(60, rng), shards, Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}, dopts)
		name := func(step string) string { return fmt.Sprintf("shards=%d %s", shards, step) }
		checkDeltaLinks(t, sx, name("built"))

		var ids []int
		dynamic := false
		for b := 0; b < 2; b++ {
			// Unseen keys sort after every frozen one, so only a record made of
			// nothing else is sure to carry them in its signature.
			batch := append(rawCorpus(3, rng), fmt.Sprintf("unseen%d", b), fmt.Sprintf("novel%d", b))
			ids = append(ids, sx.InsertBatch(batch)...)
			dynamic = checkDeltaLinks(t, sx, name(fmt.Sprintf("insert batch %d", b))) || dynamic
		}
		if st := sx.Stats(); st.Segments == 0 || st.Rebuilds != 0 {
			t.Fatalf("%s: %d delta segments and %d rebuilds after two small inserts", name("inserts"), st.Segments, st.Rebuilds)
		}
		if !dynamic {
			t.Fatalf("%s: no linked ID past a base's universe after inserting unseen tokens", name("inserts"))
		}

		sx.RemoveBatch([]int{ids[0], ids[3], 1, 5})
		checkDeltaLinks(t, sx, name("removes"))

		for b := 0; sx.Stats().Rebuilds == 0 && b < 20; b++ {
			sx.InsertBatch(rawCorpus(3, rng))
			checkDeltaLinks(t, sx, name(fmt.Sprintf("insert batch %d toward a compaction", b)))
		}
		if st := sx.Stats(); st.Rebuilds == 0 {
			t.Fatalf("%s: no compaction at MaxSegments 2: %+v", name("compaction"), st)
		}
		sx.InsertBatch(rawCorpus(3, rng))
		checkDeltaLinks(t, sx, name("insert after a compaction"))

		for i := 0; sx.Refreezes() == 0 && i < 500; i++ {
			sx.InsertBatch([]string{fmt.Sprintf("novel%dxa token%dyb fresh%dzc", i, i, i)})
			checkDeltaLinks(t, sx, name(fmt.Sprintf("novel insert %d", i)))
		}
		if sx.Refreezes() == 0 {
			t.Fatalf("%s: novel-key inserts fired no re-freeze", name("re-freeze"))
		}
		sx.InsertBatch(rawCorpus(2, rng))
		checkDeltaLinks(t, sx, name("insert after the re-freeze"))

		restored := restoreFrom(t, NewJoiner(ctx), sx.CaptureSnapshot().Encode(), dopts)
		checkDeltaLinks(t, restored, name("restored"))
		restored.InsertBatch([]string{"unseen restored tokens"})
		checkDeltaLinks(t, restored, name("insert after the restore"))
	}
}

// TestDeltaChainClampsMaxSegments pins MaxSegments to what the links can
// address: a value past maxChainSegments − 1 is lowered to it, one at it is
// kept, and a one-shard index that inserts a batch at a time grows its chain
// to exactly that many segments, with every link exact, and compacts on the
// next batch.
func TestDeltaChainClampsMaxSegments(t *testing.T) {
	j := NewJoiner(paperContext())
	opts := Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}
	for _, asked := range []int{maxChainSegments - 1, maxChainSegments, 1 << 20} {
		if got := j.newRouter(opts, DynamicOptions{MaxSegments: asked}).dopts.MaxSegments; got != min(asked, maxChainSegments-1) {
			t.Errorf("MaxSegments %d: the router keeps %d, want %d", asked, got, min(asked, maxChainSegments-1))
		}
	}
	corpus := denseCorpus(40, 3, 1)
	sx := j.BuildShardedIndex(corpus, 1, opts, DynamicOptions{MaxSegments: 1 << 20})
	raw := func(k int) []string { return []string{strings.Join(corpus[k%len(corpus)].Tokens, " ")} }
	for k := 0; k < maxChainSegments-1; k++ {
		sx.InsertBatch(raw(k)) // known tokens only: no key-growth compaction
	}
	if st := sx.Stats(); st.Segments != maxChainSegments-1 || st.Rebuilds != 0 {
		t.Fatalf("after %d single-record batches: %d segments, %d rebuilds; want a full chain and none", maxChainSegments-1, st.Segments, st.Rebuilds)
	}
	checkDeltaLinks(t, sx, "the longest chain")
	sx.InsertBatch(raw(maxChainSegments))
	if st := sx.Stats(); st.Segments != 0 || st.Rebuilds != 1 {
		t.Fatalf("one batch past the longest chain: %d segments, %d rebuilds; want a compaction", st.Segments, st.Rebuilds)
	}
	checkDeltaLinks(t, sx, "compacted")
}

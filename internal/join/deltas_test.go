package join

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
)

// checkDeltaKeys fails unless every shard's published view holds a key
// bitmap that is exact for its delta chain: over every ID the shared order
// has interned and every ID the bitmap covers, the bit is set iff some
// segment's posting list for the ID is non-empty — so no segment holds an ID
// past the bitmap, and the count filter skipping an ID with a clear bit skips
// nothing. It returns whether some set bit lies past the base's universe,
// in the order's dynamic region.
func checkDeltaKeys(t *testing.T, sx *ShardedIndex, step string) (dynamic bool) {
	t.Helper()
	for w, sh := range sx.shards {
		v := sh.snapshot()
		n := max(v.gen.order.NumKeys(), 64*len(v.deltas.keys))
		for id := uint32(0); int(id) < n; id++ {
			held := false
			for _, seg := range v.deltas.segs {
				held = held || len(seg.Postings(id)) != 0
			}
			if bit := v.deltas.holds(id); bit != held {
				t.Fatalf("%s: shard %d, ID %d: key bit %v, but a segment of its %d-segment chain holds a list: %v (bitmap covers %d IDs, order %d)",
					step, w, id, bit, len(v.deltas.segs), held, 64*len(v.deltas.keys), v.gen.order.NumKeys())
			}
			dynamic = dynamic || (held && int(id) >= v.inv.Universe())
		}
	}
	return dynamic
}

// TestDeltaKeysMatchChain walks an index through every way a shard's delta
// chain grows or resets — inserts carrying keys no base record has, removes,
// a MaxSegments compaction, a router re-freeze and a restore of its snapshot
// — at one shard and three, and checks every published key bitmap after each
// step.
func TestDeltaKeysMatchChain(t *testing.T) {
	for _, shards := range gridShards {
		rng := rand.New(rand.NewSource(71))
		ctx := propertyContexts()["full"]
		dopts := DynamicOptions{MaxSegments: 2}
		sx := NewJoiner(ctx).BuildShardedIndex(propertyCorpus(60, rng), shards, Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}, dopts)
		name := func(step string) string { return fmt.Sprintf("shards=%d %s", shards, step) }
		checkDeltaKeys(t, sx, name("built"))

		var ids []int
		dynamic := false
		for b := 0; b < 2; b++ {
			// Unseen keys sort after every frozen one, so only a record made of
			// nothing else is sure to carry them in its signature.
			batch := append(rawCorpus(3, rng), fmt.Sprintf("unseen%d", b), fmt.Sprintf("novel%d", b))
			ids = append(ids, sx.InsertBatch(batch)...)
			dynamic = checkDeltaKeys(t, sx, name(fmt.Sprintf("insert batch %d", b))) || dynamic
		}
		if st := sx.Stats(); st.Segments == 0 || st.Rebuilds != 0 {
			t.Fatalf("%s: %d delta segments and %d rebuilds after two small inserts", name("inserts"), st.Segments, st.Rebuilds)
		}
		if !dynamic {
			t.Fatalf("%s: no key bit past a base's universe after inserting unseen tokens", name("inserts"))
		}

		sx.RemoveBatch([]int{ids[0], ids[3], 1, 5})
		checkDeltaKeys(t, sx, name("removes"))

		for b := 0; sx.Stats().Rebuilds == 0 && b < 20; b++ {
			sx.InsertBatch(rawCorpus(3, rng))
			checkDeltaKeys(t, sx, name(fmt.Sprintf("insert batch %d toward a compaction", b)))
		}
		if st := sx.Stats(); st.Rebuilds == 0 {
			t.Fatalf("%s: no compaction at MaxSegments 2: %+v", name("compaction"), st)
		}
		sx.InsertBatch(rawCorpus(3, rng))
		checkDeltaKeys(t, sx, name("insert after a compaction"))

		for i := 0; sx.Refreezes() == 0 && i < 500; i++ {
			sx.InsertBatch([]string{fmt.Sprintf("novel%dxa token%dyb fresh%dzc", i, i, i)})
			checkDeltaKeys(t, sx, name(fmt.Sprintf("novel insert %d", i)))
		}
		if sx.Refreezes() == 0 {
			t.Fatalf("%s: novel-key inserts fired no re-freeze", name("re-freeze"))
		}
		sx.InsertBatch(rawCorpus(2, rng))
		checkDeltaKeys(t, sx, name("insert after the re-freeze"))

		restored := restoreFrom(t, NewJoiner(ctx), sx.CaptureSnapshot().Encode(), dopts)
		checkDeltaKeys(t, restored, name("restored"))
		restored.InsertBatch([]string{"unseen restored tokens"})
		checkDeltaKeys(t, restored, name("insert after the restore"))
	}
}

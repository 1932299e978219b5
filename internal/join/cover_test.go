package join

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/pebble"
)

// checkCoverColumns fails unless every shard's published view holds the
// cover column one made from its prepared records at once would be: the
// column is written by adoptBaseLocked and insertRecords alone, so built ≡
// restored ≡ compacted ≡ re-frozen ≡ appended must hold by construction.
func checkCoverColumns(t *testing.T, sx *ShardedIndex, shape string) {
	t.Helper()
	for w, sh := range sx.shards {
		v := sh.snapshot()
		if want := core.NewCoverColumn(sx.dict, v.prepared); !reflect.DeepEqual(v.cover, want) {
			t.Fatalf("%s: shard %d's cover column differs from the one rebuilt from its %d prepared records", shape, w, len(v.prepared))
		}
	}
}

// TestCoverColumnMatchesPrepared walks an index through every way a shard's
// base or its delta is made — a build, delta inserts, compaction after
// tombstones, a router re-freeze, a restore of its snapshot and a restore of
// an image written by an older encoder — at one shard and three, and checks
// the column after each.
func TestCoverColumnMatchesPrepared(t *testing.T) {
	for _, shards := range gridShards {
		rng := rand.New(rand.NewSource(67))
		j := NewJoiner(propertyContexts()["full"])
		sx := j.BuildShardedIndex(propertyCorpus(60, rng), shards, Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
		name := func(shape string) string { return fmt.Sprintf("shards=%d %s", shards, shape) }
		checkCoverColumns(t, sx, name("built"))

		var ids []int
		for i := 0; i < 4; i++ {
			ids = append(ids, sx.InsertBatch(rawCorpus(3, rng))...)
		}
		if st := sx.Stats(); st.Segments == 0 || st.Rebuilds != 0 {
			t.Fatalf("%s: %d delta segments and %d rebuilds after small inserts", name("delta"), st.Segments, st.Rebuilds)
		}
		checkCoverColumns(t, sx, name("delta inserts"))

		sx.RemoveBatch(append(ids[:4:4], 0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28))
		if st := sx.Stats(); st.Rebuilds == 0 {
			t.Fatalf("%s: tombstones crossed no compaction", name("compaction"))
		}
		checkCoverColumns(t, sx, name("compaction after tombstones"))

		for i := 0; sx.Refreezes() == 0 && i < 500; i++ {
			sx.InsertBatch([]string{fmt.Sprintf("novel%dxa token%dyb fresh%dzc", i, i, i)})
		}
		if sx.Refreezes() == 0 {
			t.Fatalf("%s: novel-key inserts fired no re-freeze", name("re-freeze"))
		}
		checkCoverColumns(t, sx, name("router re-freeze"))
		sx.InsertBatch(rawCorpus(2, rng))
		checkCoverColumns(t, sx, name("inserts after the re-freeze"))

		restored := restoreFrom(t, NewJoiner(propertyContexts()["full"]), sx.CaptureSnapshot().Encode(), DynamicOptions{})
		checkCoverColumns(t, restored, name("restored"))
	}

	// An image the encoder of an earlier format wrote (four shards, with
	// tombstones and delta inserts), under the context of the records in it.
	image, err := os.ReadFile("../../testdata/snapshot_pr15_flag_bit0.snap")
	if err != nil {
		t.Fatal(err)
	}
	sx := restoreFrom(t, NewJoiner(propertyContexts()["full"]), image, DynamicOptions{})
	checkCoverColumns(t, sx, "restored older image")
}

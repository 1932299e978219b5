package join

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// shardCounts are the partitionings every invariance check runs under:
// the fan-out of one, an even split (2) and a prime count that exercises
// uneven shard sizes (7 shards over ≲50 records leaves some shards nearly
// empty).
var shardCounts = []int{1, 2, 7}

// TestShardedIndexShardCountInvariance is the correctness hinge of the
// sharded engine: shard assignment must never change results. The same
// corpus and the same mutation script are applied to routers with 1, 2 and
// 7 shards — across all three filter methods and θ ∈ {0.7, 0.8, 0.9}, with
// thresholds aggressive enough to force per-shard rebuilds — and after
// every round Probe and QueryTopKCtx (k ≤ 0 and k > 0) must be bit-identical
// across shard counts and equal to BruteForce over the live catalog.
func TestShardedIndexShardCountInvariance(t *testing.T) {
	ctx := propertyContexts()["full"]
	for _, method := range []pebble.Method{pebble.UFilter, pebble.AUHeuristic, pebble.AUDP} {
		for _, theta := range []float64{0.7, 0.8, 0.9} {
			rng := rand.New(rand.NewSource(31))
			j := NewJoiner(ctx)
			opts := Options{Theta: theta, Tau: 2, Method: method}
			corpus := propertyCorpus(30, rng)
			probe := propertyCorpus(20, rng)
			indexes := make([]*ShardedIndex, len(shardCounts))
			for i, n := range shardCounts {
				indexes[i] = j.BuildShardedIndex(corpus, n, opts, DynamicOptions{
					rebuildFraction: 0.15, maxSegments: 3,
				})
			}
			// The mutation script is data, not calls, so every variant sees
			// the identical sequence (router ID allocation is deterministic:
			// sequential from the max initial ID).
			type mutation struct {
				insert []string
				remove []int
			}
			var script []mutation
			nextID := 30
			for round := 0; round < 4; round++ {
				ins := rawCorpus(6, rng)
				var rem []int
				for i := 0; i < 4; i++ {
					rem = append(rem, (round*7+i*3)%(nextID+len(ins)))
				}
				rem = append(rem, nextID+1) // an id from this very batch
				script = append(script, mutation{ins, rem})
				nextID += len(ins)
			}

			check := func(step int) {
				t.Helper()
				views := make([]*ShardedView, len(indexes))
				for i := range indexes {
					views[i] = indexes[i].Snapshot()
				}
				ref, refStats := views[0].Probe(probe)
				oracle := j.BruteForce(views[0].Live(), probe, theta, nil)
				if !reflect.DeepEqual(ref, oracle) {
					t.Fatalf("%v θ=%v step %d: shards=1 Probe %d pairs, oracle %d pairs",
						method, theta, step, len(ref), len(oracle))
				}
				if refStats.Results != len(ref) {
					t.Fatalf("%v θ=%v step %d: stats.Results = %d, want %d",
						method, theta, step, refStats.Results, len(ref))
				}
				for i := 1; i < len(views); i++ {
					if live := views[i].Live(); !reflect.DeepEqual(live, views[0].Live()) {
						t.Fatalf("%v θ=%v step %d: shards=%d live catalog diverged",
							method, theta, step, shardCounts[i])
					}
					got, _ := views[i].Probe(probe)
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("%v θ=%v step %d: shards=%d Probe %d pairs, shards=1 %d pairs",
							method, theta, step, shardCounts[i], len(got), len(ref))
					}
				}
				for qi := 0; qi < 5; qi++ {
					tokens := probe[qi].Tokens
					refQ := probeRecord(t, views[0], tokens)
					for i := 1; i < len(views); i++ {
						if got := probeRecord(t, views[i], tokens); !reflect.DeepEqual(got, refQ) {
							t.Fatalf("%v θ=%v step %d shards=%d: probeByID(%q) = %v, want %v",
								method, theta, step, shardCounts[i], probe[qi].Raw, got, refQ)
						}
						for _, k := range []int{-1, 0, 1, 3, len(refQ) + 2} {
							got := queryTopK(t, views[i], tokens, k)
							want := queryTopK(t, views[0], tokens, k)
							if len(got) == 0 && len(want) == 0 {
								continue
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%v θ=%v step %d shards=%d: QueryTopKCtx(%q, %d) = %v, want %v",
									method, theta, step, shardCounts[i], probe[qi].Raw, k, got, want)
							}
						}
					}
				}
			}

			check(0)
			for step, mut := range script {
				for i := range indexes {
					indexes[i].InsertBatch(mut.insert)
					// Router ID allocation must be identical across shard
					// counts for the invariance comparison to make sense.
					if want := indexes[0].nextID; indexes[i].nextID != want {
						t.Fatalf("id allocation diverged: shards=%d nextID=%d, shards=1 nextID=%d",
							shardCounts[i], indexes[i].nextID, want)
					}
					indexes[i].RemoveBatch(mut.remove)
					if want := indexes[0].Snapshot().Stats().Live; indexes[i].Snapshot().Stats().Live != want {
						t.Fatalf("live count diverged after removes: shards=%d", shardCounts[i])
					}
				}
				check(step + 1)
			}
			// Every variant must actually have exercised per-shard
			// rebuilds, or the test proves nothing about them.
			for i, sx := range indexes {
				if sx.Stats().Rebuilds == 0 {
					t.Fatalf("%v θ=%v: shards=%d never rebuilt under the mutation script",
						method, theta, shardCounts[i])
				}
			}
		}
	}
}

// TestShardedIndexRemoveBatchSemantics pins the per-ID report of RemoveBatch:
// present IDs true exactly once, absent and re-removed IDs false, and a
// batch mixing shards lands on every involved shard.
func TestShardedIndexRemoveBatchSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	j := NewJoiner(propertyContexts()["synonyms"])
	sx := j.BuildShardedIndex(propertyCorpus(20, rng), 4, Options{Theta: 0.8, Tau: 1}, DynamicOptions{})
	got := sx.RemoveBatch([]int{3, 99, 3, 7, -1, 12})
	want := []bool{true, false, false, true, false, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RemoveBatch = %v, want %v", got, want)
	}
	if live := sx.Stats().Live; live != 17 {
		t.Fatalf("Live = %d after 3 removals from 20, want 17", live)
	}
	if sx.RemoveBatch(nil) != nil {
		t.Fatal("RemoveBatch(nil) should be nil")
	}
}

// TestInsertBatchRecordsInputChecks pins what InsertBatchRecords refuses — a
// refused batch changes nothing — and that the largest stable ID it accepts
// (the widest a snapshot stores) answers under that ID before and after a
// snapshot round trip.
func TestInsertBatchRecordsInputChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	j := NewJoiner(propertyContexts()["plain"])
	sx := j.BuildShardedIndex(propertyCorpus(8, rng), 3, Options{Theta: 0.8, Tau: 1}, DynamicOptions{})
	raw := "coffee shop latte helsinki"
	widest := uint64(math.MaxUint32) // a variable: the constant overflows a 32-bit int
	limit := int(widest)
	if limit < 0 {
		t.Skip("int cannot hold an ID above the 32 bits a snapshot stores")
	}
	for _, tc := range []struct {
		name string
		ids  []int
		raw  []string
		want string // substring of the error
	}{
		{"length mismatch", []int{100, 101}, []string{raw}, "2 ids for 1 records"},
		{"negative", []int{100, -1}, []string{raw, raw}, "negative record id -1"},
		{"duplicate in batch", []int{100, 100}, []string{raw, raw}, "duplicate record id 100"},
		{"above the limit", []int{100, limit + 1}, []string{raw, raw}, "above the limit 4294967295"},
	} {
		err := sx.InsertBatchRecords(tc.ids, tc.raw)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: InsertBatchRecords(%v) = %v, want an error containing %q", tc.name, tc.ids, err, tc.want)
		}
		if st := sx.Stats(); st.Records != 8 {
			t.Fatalf("%s: refused batch left %d records, want 8", tc.name, st.Records)
		}
	}

	if err := sx.InsertBatchRecords([]int{limit}, []string{raw}); err != nil {
		t.Fatalf("InsertBatchRecords(%d): %v", limit, err)
	}
	restored := restoreFrom(t, j, sx.CaptureSnapshot().Encode(), DynamicOptions{})
	for name, ix := range map[string]*ShardedIndex{"live": sx, "restored": restored} {
		got := probeRecord(t, ix.Snapshot(), strutil.Tokenize(raw))
		if !slices.Contains(got, QueryMatch{Record: limit, Similarity: 1}) {
			t.Errorf("%s index: query for the record inserted under ID %d = %v", name, limit, got)
		}
	}
}

// TestShardedIndexSharedCache checks that one prepared-record cache spans
// all shards: re-inserting a removed record that hashes to a different
// shard must still hit, and the counters surface in the stats.
func TestShardedIndexSharedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	j := NewJoiner(propertyContexts()["plain"])
	sx := j.BuildShardedIndex(propertyCorpus(8, rng), 3, Options{Theta: 0.8, Tau: 1}, DynamicOptions{})
	raw := []string{"coffee shop latte helsinki"}
	id0 := sx.InsertBatch(raw)[0]
	sx.Remove(id0)
	// Re-insert until the fresh ID routes to a different shard than id0.
	var id1 int
	for {
		id1 = sx.InsertBatch(raw)[0]
		if shardOf(id1, 3) != shardOf(id0, 3) {
			break
		}
		sx.Remove(id1)
	}
	st := sx.Stats()
	if st.CacheHits == 0 {
		t.Fatalf("re-insert across shards never hit the shared cache: %+v", st)
	}
	if st.CacheMisses == 0 {
		t.Fatalf("first insert should have missed: %+v", st)
	}
	if st.Shards != 3 {
		t.Fatalf("Shards = %d, want 3", st.Shards)
	}
}

// TestShardedIndexGlobalRefreeze drives sustained novel-key inserts until
// the shared order's dynamic region outgrows its frozen prefix and the
// router re-finalizes globally: the dynamic region must reset, stable IDs
// must survive, and results must still match BruteForce on a fresh
// snapshot — and on the view taken just before the re-freeze, which keeps
// the generation it was published with. At one shard this is the re-freeze
// policy the single shard no longer has of its own: its threshold rebuilds
// compact under the shared order (the churn crosses at least one), and only
// this router-level re-finalize freezes a new one.
func TestShardedIndexGlobalRefreeze(t *testing.T) {
	for _, shards := range gridShards {
		rng := rand.New(rand.NewSource(59))
		j := NewJoiner(propertyContexts()["full"])
		sx := j.BuildShardedIndex(propertyCorpus(12, rng), shards, Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
		probe := propertyCorpus(10, rng)
		// check holds a view to the oracle over its own live records.
		check := func(step string, v *ShardedView) {
			t.Helper()
			got, _ := v.Probe(probe)
			if want := j.BruteForce(v.Live(), probe, 0.7, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d %s: Probe %d pairs, oracle %d pairs", shards, step, len(got), len(want))
			}
		}
		keep := sx.InsertBatch([]string{"coffee shop latte helsinki"})[0]
		var novel []int
		var before *ShardedView // the view taken just before the insert that re-froze
		for i := 0; sx.Refreezes() == 0 && i < 500; i++ {
			before = sx.Snapshot()
			novel = append(novel, sx.InsertBatch([]string{fmt.Sprintf("novel%dxa token%dyb fresh%dzc", i, i, i)})...)
			check("churn", sx.Snapshot())
		}
		if sx.Refreezes() == 0 {
			t.Fatalf("shards=%d: global refreeze never fired under sustained novel-key inserts", shards)
		}
		// The view held across the re-freeze keeps its own generation and
		// stays exact over its own records.
		if before.gen == sx.Snapshot().gen {
			t.Fatalf("shards=%d: the view taken before the refreeze serves the generation published after it", shards)
		}
		check("pre-refreeze view", before)
		st := sx.Stats()
		if st.DynamicKeys >= st.FrozenKeys {
			t.Fatalf("shards=%d: dynamic region did not reset at the refreeze: %+v", shards, st)
		}
		if st.Rebuilds <= sx.Refreezes()*shards {
			t.Fatalf("shards=%d: churn crossed no compaction rebuild before the refreeze: %+v", shards, st)
		}
		live := sx.Snapshot().Live()
		if i := slices.IndexFunc(live, func(rec strutil.Record) bool { return rec.ID == keep }); i < 0 || live[i].Raw != "coffee shop latte helsinki" {
			t.Fatalf("shards=%d: stable id %d lost across the refreeze", shards, keep)
		}
		check("post-refreeze", sx.Snapshot())
		// Removing the novel records and mutating further keeps working on the
		// new generation.
		sx.RemoveBatch(novel[:len(novel)/2])
		check("post-refreeze mutation", sx.Snapshot())
	}
}

// TestStoredRecordsKeepTextOnce builds an index over a normal-form
// collection, inserts into it and removes enough to compact a shard: every
// record a shard stores carries no tokens, and its Raw is the input string
// itself, not a copy. Live re-tokenizes each record from its Raw.
func TestStoredRecordsKeepTextOnce(t *testing.T) {
	j := NewJoiner(paperContext())
	raws := rawsOf(benchCorpus(200, 5))
	extra := rawsOf(benchCorpus(40, 6))
	input := map[int]string{}
	for id, raw := range raws {
		if strutil.Normalize(raw) != raw {
			t.Fatalf("corpus record %q is not normal", raw)
		}
		input[id] = raw
	}
	sx := j.BuildShardedIndex(strutil.NewCollection(raws), 2, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
	for i, id := range sx.InsertBatch(extra) {
		input[id] = extra[i]
	}
	check := func(state string) {
		t.Helper()
		for w, sh := range sx.shards {
			for _, rec := range sh.records {
				if rec.Tokens != nil {
					t.Fatalf("%s: shard %d stores record %d with tokens %q", state, w, rec.ID, rec.Tokens)
				}
				if in := input[rec.ID]; unsafe.StringData(rec.Raw) != unsafe.StringData(in) || rec.Raw != in {
					t.Fatalf("%s: shard %d stores record %d as a copy of its input %q", state, w, rec.ID, in)
				}
			}
		}
		for _, rec := range sx.Snapshot().Live() {
			if !slices.Equal(rec.Tokens, strutil.Tokenize(rec.Raw)) {
				t.Fatalf("%s: Live returns record %d with tokens %q, its Raw %q", state, rec.ID, rec.Tokens, rec.Raw)
			}
		}
	}
	check("built and inserted")
	ids := make([]int, 0, 120)
	for id := range 120 {
		ids = append(ids, id)
	}
	sx.RemoveBatch(ids)
	if sx.Stats().Rebuilds == 0 {
		t.Fatal("removing 120 of 240 records compacted no shard")
	}
	check("compacted")
}

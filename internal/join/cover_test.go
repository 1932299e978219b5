package join

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// checkCoverColumns fails unless every shard's published view holds the
// cover column one made from its prepared records at once would be: the
// column is written by adoptBaseLocked and insertRecords alone, so built ≡
// restored ≡ compacted ≡ re-frozen ≡ appended must hold by construction.
func checkCoverColumns(t *testing.T, sx *ShardedIndex, shape string) {
	t.Helper()
	for w, v := range sx.Snapshot().views {
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

// TestFlaggedRecordServedExactly inserts one record into an index whose
// dictionary is full: the record's segment texts the dictionary lacks get no
// ID, so the cover column flags the record and CoverBound leaves it to
// VerifyPrepared. Served lookups and probes must still equal BruteForce over
// the live catalog at every θ, and every candidate must be either pruned by a
// bound or verified.
func TestFlaggedRecordServedExactly(t *testing.T) {
	const flaggedRaw = "coffee shop latte helsinki"
	rng := rand.New(rand.NewSource(71))
	j := NewJoiner(propertyContexts()["full"])
	recs := propertyCorpus(40, rng)
	queries := append(propertyCorpus(20, rng), strutil.NewRecord(20, flaggedRaw), strutil.NewRecord(21, "cafe latte helsingki"))
	for _, theta := range []float64{0.7, 0.8, 0.9} {
		t.Run(fmt.Sprintf("theta=%v", theta), func(t *testing.T) {
			flaggedServedExactly(t, j, recs, queries, flaggedRaw, theta)
		})
	}
}

// flaggedServedExactly is TestFlaggedRecordServedExactly at one θ.
func flaggedServedExactly(t *testing.T, j *Joiner, recs, queries []strutil.Record, flaggedRaw string, theta float64) {
	sx := j.BuildShardedIndex(recs, 3, Options{Theta: theta, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
	core.SetSegDictLimit(sx.dict, sx.dict.Len())
	if ids := sx.InsertBatch([]string{flaggedRaw}); ids[0] != len(recs) {
		t.Fatalf("θ=%v: the flagged record got ID %d, want %d", theta, ids[0], len(recs))
	}

	// A flagged record is bounded by 1 against any probe, an encoded
	// one by its cover against a probe it shares nothing with: 0.
	calc, sc := j.Calculator(), core.NewScratch()
	stranger := calc.Prepare([]string{"zzqx"})
	flagged := 0
	for _, v := range sx.Snapshot().views {
		for pos, rec := range v.records {
			if b := calc.CoverBound(&v.cover, int32(pos), stranger, 0, sc); (b == 1) != (rec.Raw == flaggedRaw) {
				t.Fatalf("θ=%v: record %q bounded by %v against a stranger", theta, rec.Raw, b)
			} else if b == 1 {
				flagged++
			}
		}
	}
	if flagged != 1 {
		t.Fatalf("θ=%v: %d records flagged, want 1", theta, flagged)
	}

	v := sx.Snapshot()
	want := j.BruteForce(v.Live(), queries, theta, nil)
	got, stats := v.Probe(queries)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("θ=%v: Probe %v, oracle %v", theta, got, want)
	}
	if stats.VerifiedCandidates+stats.PrunedByBound != int64(stats.Candidates) {
		t.Fatalf("θ=%v: %d verified + %d pruned by a bound, %d candidates", theta, stats.VerifiedCandidates, stats.PrunedByBound, stats.Candidates)
	}
	served := 0
	for _, q := range queries {
		rows := rowsOf(want, q.ID)
		for _, m := range rows {
			if m.Record == len(recs) {
				served++
			}
		}
		if pr := probeRecord(t, v, q.Tokens); !reflect.DeepEqual(pr, rows) {
			t.Fatalf("θ=%v: probeByID(%q) = %v, want %v", theta, q.Raw, pr, rows)
		}
		top := queryTopK(t, v, q.Tokens, len(recs)+1)
		sort.Slice(top, func(a, b int) bool { return top[a].Record < top[b].Record })
		if len(top) != len(rows) || (len(rows) > 0 && !reflect.DeepEqual(top, rows)) {
			t.Fatalf("θ=%v: QueryTopKCtx(%q) = %v, want %v", theta, q.Raw, top, rows)
		}
	}
	if served == 0 {
		t.Fatalf("θ=%v: no query matched the flagged record", theta)
	}
}

// TestFilterProfileVerifyStatsMatchesBruteForce checks the τ sweep's
// verification, which bounds every candidate from the S side's cover column
// before VerifyPrepared: the filters are lossless, so at every τ and θ the
// result count R_τ must equal BruteForce's, and V_τ must equal Stats'.
func TestFilterProfileVerifyStatsMatchesBruteForce(t *testing.T) {
	j := NewJoiner(propertyContexts()["full"])
	rng := rand.New(rand.NewSource(73))
	s := propertyCorpus(40, rng)
	u := propertyCorpus(40, rng)
	for _, method := range []pebble.Method{pebble.UFilter, pebble.AUHeuristic, pebble.AUDP} {
		t.Run(method.String(), func(t *testing.T) {
			for _, theta := range []float64{0.7, 0.8, 0.9} {
				want := len(j.BruteForce(s, u, theta, nil))
				fp := j.NewFilterProfile(s, u, Options{Theta: theta, Method: method})
				for tau := 1; tau <= 4; tau++ {
					_, wantV := fp.Stats(tau)
					_, gotV, gotR := fp.VerifyStats(tau)
					if gotR != want || gotV != wantV {
						t.Errorf("θ=%v τ=%d: VerifyStats (V %d, R %d), want (V %d, R %d)", theta, tau, gotV, gotR, wantV, want)
					}
				}
			}
		})
	}
}

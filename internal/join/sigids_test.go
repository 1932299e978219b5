package join

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/aujoin/aujoin/internal/invindex"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/store"
	"github.com/aujoin/aujoin/internal/strutil"
)

// This file pins what an index keeps of a signature — its interned IDs, as
// the postings of its inverted index, and nothing else — from the three
// sides that rely on it: a compaction merges the postings it holds (exact
// only if selecting again would return the same IDs), a built index and the
// index restored from its snapshot are one structure, and they weigh the
// same.

// indexedKeys reads back from a shard view's index — its base and its delta
// chain — the keys every position is indexed under: the known IDs of the
// record's signature, sorted, repeats kept (knownKeys).
func indexedKeys(v *shardView) [][]uint32 {
	out := make([][]uint32, len(v.records))
	add := func(id uint32, p invindex.Posting) {
		for range p.Count {
			out[p.Record] = append(out[p.Record], id)
		}
	}
	for id := range uint32(v.inv.Universe()) {
		for p := range v.inv.List(id) {
			add(id, p)
		}
	}
	for _, seg := range v.deltas.segs {
		for id := range seg.IDs() {
			l, _ := seg.Linked(id)
			for _, p := range l {
				add(id, p)
			}
		}
	}
	for _, ids := range out {
		slices.Sort(ids)
	}
	return out
}

// knownKeys returns signature IDs as an index keeps them: sorted, repeats
// kept, NoID dropped.
func knownKeys(ids []uint32) []uint32 {
	out := slices.DeleteFunc(slices.Clone(ids), func(id uint32) bool { return id == pebble.NoID })
	slices.Sort(out)
	return out
}

// TestCompactionKeepsSignatures states the invariant that makes
// rebuildLocked's merge of the postings a shard holds exact: after inserts
// into the order's dynamic region, removes and maxSegments-forced
// compactions, every position of every shard is still indexed under exactly
// the IDs of the signature the current generation's selector selects for
// that record now.
func TestCompactionKeepsSignatures(t *testing.T) {
	j := NewJoiner(paperContext())
	recs := propCorpus(600, 33)
	for _, shards := range []int{1, 3} {
		for _, opts := range propConfigs() {
			name := fmt.Sprintf("shards=%d/%v/θ=%v", shards, opts.Method, opts.Theta)
			sx := j.BuildShardedIndex(recs, shards, opts, DynamicOptions{maxSegments: 2})
			mutate(sx, 55)
			if st := sx.Stats(); st.Rebuilds == 0 || st.Dead == 0 {
				t.Fatalf("%s: mutation script compacted or removed nothing: %+v", name, st)
			} else if st.BuildTime <= 0 {
				t.Errorf("%s: BuildTime = %v after a compaction, want the compacted bases' construction time", name, st.BuildTime)
			}
			sv := sx.Snapshot()
			for w, v := range sv.views {
				keys := indexedKeys(v)
				for pos, rec := range v.records {
					want := knownKeys(sv.gen.sel.Signature(strutil.Tokenize(rec.Raw), opts.Method, sx.tau).IDs())
					if !slices.Equal(keys[pos], want) {
						t.Fatalf("%s shard %d: record %d (%q) is indexed under %v, selecting now gives %v",
							name, w, rec.ID, rec.Raw, keys[pos], want)
					}
				}
			}
		}
	}
}

// TestCompactionSchedulesMatchBuild runs random schedules of insert
// batches, remove batches and compactions at 1 and 3 shards, with small
// thresholds so the mutations compact too. After every step that compacted
// a shard, the shard's base must deep-equal the index Build makes over its
// survivors signed again under the shard's generation: the merge is the
// serial rebuild. After every step, the answers must equal BruteForce over
// the live records.
func TestCompactionSchedulesMatchBuild(t *testing.T) {
	j := NewJoiner(paperContext())
	probe := propCorpus(12, 91)
	for _, shards := range gridShards {
		for c, opts := range propConfigs() {
			name := fmt.Sprintf("shards=%d/%v/θ=%v", shards, opts.Method, opts.Theta)
			rng := rand.New(rand.NewSource(int64(100*shards + c)))
			sx := j.BuildShardedIndex(propCorpus(150, int64(c)), shards, opts, DynamicOptions{rebuildFraction: 0.1, maxSegments: 3})
			compacted := 0
			for step := range 24 {
				sv := sx.Snapshot()
				before := make([]int, shards)
				for w, v := range sv.views {
					before[w] = v.rebuilds
				}
				switch k := rng.Intn(3); {
				case k == 0:
					batch := make([]string, 1+rng.Intn(8))
					for i := range batch {
						batch[i] = fmt.Sprintf("tok%02d tok%02d new%d", rng.Intn(60), rng.Intn(60), rng.Intn(40))
					}
					sx.InsertBatch(batch)
				case k == 1:
					live := sv.Live()
					victims := make([]int, 1+rng.Intn(6))
					for i := range victims {
						victims[i] = live[rng.Intn(len(live))].ID
					}
					sx.RemoveBatch(victims)
				default:
					sh := sx.shards[rng.Intn(shards)]
					sh.mu.Lock()
					sh.rebuildLocked()
					sx.publish(sh.slot, sh.viewLocked())
					sh.mu.Unlock()
				}
				sv = sx.Snapshot()
				for w, v := range sv.views {
					if v.rebuilds == before[w] {
						continue
					}
					compacted++
					n := v.inv.Records()
					sigs := selectSignatures(v.prepared[:n], sv.gen, opts.Method, sx.tau)
					if want := invindex.Build(v.inv.Universe(), sigs, hybridCutoff(n, sv.gen.order, sx.tau)); !reflect.DeepEqual(v.inv, want) {
						t.Fatalf("%s step %d shard %d: the compacted base differs from Build over its %d survivors", name, step, w, n)
					}
				}
				if got, _ := sv.Probe(probe); !reflect.DeepEqual(got, j.BruteForce(sv.Live(), probe, opts.Theta, nil)) {
					t.Fatalf("%s step %d: Probe's %d pairs differ from BruteForce's", name, step, len(got))
				}
			}
			if compacted == 0 {
				t.Fatalf("%s: the schedule compacted nothing", name)
			}
		}
	}
}

// restoreFrom rebuilds an index from the encoded snapshot image of another.
func restoreFrom(t *testing.T, j *Joiner, image []byte, dopts DynamicOptions) *ShardedIndex {
	t.Helper()
	snap, err := store.Decode(image)
	if err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	sx, err := j.RestoreShardedIndex(snap, dopts)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return sx
}

// TestBuiltIndexShapeEqualsRestored pins built ≡ restored as structures, not
// just as answers. Shape: an index that was built, mutated and compacted, and
// the index restored from its snapshot, index the same signature IDs at the
// same positions, the same posting-layout split and the same mean signature
// length, shard by shard. Adopted: so do an index that adopted an epoch
// bump's order and took inserts after it, and its restore. Weight: a cold build keeps no more of a signature
// than a restore does, so the two indexes' live heaps agree.
func TestBuiltIndexShapeEqualsRestored(t *testing.T) {
	j := NewJoiner(paperContext())
	t.Run("shape", func(t *testing.T) {
		recs := propCorpus(600, 33)
		dopts := DynamicOptions{maxSegments: 2}
		for _, shards := range []int{1, 3} {
			for _, opts := range propConfigs() {
				name := fmt.Sprintf("shards=%d/%v/θ=%v", shards, opts.Method, opts.Theta)
				built := j.BuildShardedIndex(recs, shards, opts, dopts)
				mutate(built, 55)
				// The script's last insert batch compacts every shard and only
				// tombstones follow, so both sides hold every record in a base.
				if st := built.Stats(); st.Segments != 0 || st.Rebuilds == 0 || st.Dead == 0 {
					t.Fatalf("%s: want a compacted index with tombstones and no delta segments: %+v", name, st)
				}
				restored := restoreFrom(t, j, built.CaptureSnapshot().Encode(), dopts)
				bv, rv := built.Snapshot(), restored.Snapshot()
				for w := range built.shards {
					b, r := built.shards[w], restored.shards[w]
					if !slices.EqualFunc(indexedKeys(bv.views[w]), indexedKeys(rv.views[w]), slices.Equal) {
						t.Errorf("%s shard %d: indexed signatures differ between built and restored", name, w)
					}
					if bd, rd := b.inv.DenseKeys(), r.inv.DenseKeys(); bd != rd {
						t.Errorf("%s shard %d: %d dense keys built, %d restored", name, w, bd, rd)
					}
					if bs, rs := b.inv.SparseKeys(), r.inv.SparseKeys(); bs != rs {
						t.Errorf("%s shard %d: %d sparse keys built, %d restored", name, w, bs, rs)
					}
					if ba, ra := bv.views[w].avgSig, rv.views[w].avgSig; ba != ra {
						t.Errorf("%s shard %d: mean signature length %v built, %v restored", name, w, ba, ra)
					}
				}
			}
		}
	})
	// An index that adopted an epoch bump's image of its own frequency table
	// (pebble.MergeFrequencyTables, what MergeOrderImages makes of a single
	// group's table) and then took inserts into the adopted order's dynamic
	// region: its records, signed again under the stored order, carry the
	// signatures the live index holds, position for position.
	t.Run("adopted", func(t *testing.T) {
		for _, shards := range []int{1, 3} {
			for _, opts := range propConfigs() {
				name := fmt.Sprintf("shards=%d/%v/θ=%v", shards, opts.Method, opts.Theta)
				live := j.BuildShardedIndex(propCorpus(600, 33), shards, opts, DynamicOptions{})
				keys, freqs := live.KeyFrequencies()
				keys, freqs, err := pebble.MergeFrequencyTables([][]string{keys}, [][]int{freqs})
				if err != nil {
					t.Fatal(err)
				}
				if err := adoptImage(live, keys, freqs); err != nil {
					t.Fatalf("%s: adopt: %v", name, err)
				}
				mutate(live, 56)
				if dyn := live.Snapshot().gen.order.DynamicCount(); dyn == 0 {
					t.Fatalf("%s: no insert reached the adopted order's dynamic region", name)
				}
				restored := restoreFrom(t, j, live.CaptureSnapshot().Encode(), DynamicOptions{})
				lv, rv := live.Snapshot(), restored.Snapshot()
				for w := range live.shards {
					l, r := indexedKeys(lv.views[w]), indexedKeys(rv.views[w])
					if len(l) != len(r) {
						t.Fatalf("%s shard %d: %d records live, %d restored", name, w, len(l), len(r))
					}
					for pos := range l {
						if !slices.Equal(l[pos], r[pos]) {
							rec := lv.views[w].records[pos]
							t.Errorf("%s shard %d: record %d (%q) indexed under %v live, %v restored",
								name, w, rec.ID, rec.Raw, l[pos], r[pos])
						}
					}
				}
			}
		}
	})
	// Measured on this corpus the built/restored ratio is 1.00 (1.83 MB each)
	// with the one stored form and 2.76 (5.10 MB against 1.84 MB) with the
	// []pebble.Signature a built base used to keep; the ceiling sits between.
	t.Run("weight", func(t *testing.T) {
		if testing.Short() {
			t.Skip("heap readings are only meaningful without -race; skipped with -short")
		}
		// Each side makes its own records, so both readings include them.
		build := func() *ShardedIndex {
			return j.BuildShardedIndex(propCorpus(2000, 77), 2, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
		}
		image := build().CaptureSnapshot().Encode()
		built, builtHeap := heapKeptBy(build)
		restored, restoredHeap := heapKeptBy(func() *ShardedIndex {
			return restoreFrom(t, j, image, DynamicOptions{})
		})
		t.Logf("live heap: built %d B, restored %d B, ratio %.3f", builtHeap, restoredHeap, float64(builtHeap)/float64(restoredHeap))
		if restoredHeap <= 0 || float64(builtHeap) > 1.25*float64(restoredHeap) {
			t.Errorf("built index keeps %d B alive, restored %d B: want built ≤ 1.25 × restored", builtHeap, restoredHeap)
		}
		runtime.KeepAlive(built)
		runtime.KeepAlive(restored)
		runtime.KeepAlive(image)
	})
}

// heapKeptBy returns what build made and the live heap it keeps: the growth
// of the heap in use across the call, garbage collected twice on both sides
// — a sync.Pool's contents survive the first collection in its victim cache,
// so one collection would count the scratch a dead index's pool still holds.
func heapKeptBy[T any](build func() T) (T, int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return v, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestInvertedIndexDropsConvertedPostings pins that a built inverted index
// keeps no posting of a list it converted to a bitmap: its live heap is what
// its final shape needs — a 4-byte offset per ID of the universe and one
// more, the arena of 8-byte postings (the slice-form lists, and one slot per
// bitmap-form list leading to its Bitset), and every Bitset with its words
// and its residual — and not the postings the bitmaps replaced.
func TestInvertedIndexDropsConvertedPostings(t *testing.T) {
	if testing.Short() {
		t.Skip("heap readings are only meaningful without -race; skipped with -short")
	}
	j := NewJoiner(paperContext())
	sx := j.BuildShardedIndex(benchCorpus(4000, 7), 1, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
	sv := sx.Snapshot()
	sigs := selectSignatures(sv.views[0].prepared, sv.gen, sx.opts.Method, sx.tau)
	inv, live := heapKeptBy(func() *invindex.Index { return newInverted(sigs, sv.gen.order, sx.tau) })
	posting := int64(unsafe.Sizeof(invindex.Posting{}))
	shape := int64(inv.Universe()+1) * int64(unsafe.Sizeof(uint32(0)))
	var converted int64 // the postings of the lists now in bitmap form
	for id := range uint32(inv.Universe()) {
		if bs := inv.Bitset(id); bs != nil {
			converted += int64(bs.Card()) * posting
			shape += posting + int64(unsafe.Sizeof(*bs)) + int64((inv.Records()+63)/64)*8 + int64(cap(bs.Residual()))*posting
		} else {
			shape += int64(cap(inv.Postings(id))) * posting
		}
	}
	t.Logf("live heap %d B; shape %d B; converted lists' postings %d B (%d dense keys, %d sparse)", live, shape, converted, inv.DenseKeys(), inv.SparseKeys())
	if inv.DenseKeys() == 0 || converted < shape/2 {
		t.Fatalf("%d dense keys holding %d B of postings against a %d B shape: the corpus cannot tell a kept arena apart", inv.DenseKeys(), converted, shape)
	}
	if live > shape+converted/4 {
		t.Errorf("inverted index keeps %d B alive, its shape needs %d B: %d B of converted postings are still referenced", live, shape, live-shape)
	}
	runtime.KeepAlive(inv)
	runtime.KeepAlive(sx)
}

package join

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/aujoin/aujoin/internal/invindex"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/store"
	"github.com/aujoin/aujoin/internal/strutil"
)

// This file pins what an index keeps of a signature — its interned IDs and
// nothing else — from the three sides that rely on it: a compaction reuses
// the stored IDs (exact only if selecting again would return them), a built
// index and the index restored from its snapshot are one structure, and they
// weigh the same.

// TestCompactionKeepsSignatures states the invariant that licenses
// rebuildLocked to hand stored signatures to adoptBaseLocked: after inserts
// into the order's dynamic region, removes and maxSegments-forced
// compactions, every position of every shard still holds exactly the IDs of
// the signature the current generation's selector selects for that record
// now.
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
			sel := sx.Snapshot().gen.sel
			for w, sh := range sx.shards {
				if len(sh.sigIDs) != len(sh.records) {
					t.Fatalf("%s shard %d: %d stored signatures for %d records", name, w, len(sh.sigIDs), len(sh.records))
				}
				for pos, rec := range sh.records {
					want := sel.Signature(strutil.Tokenize(rec.Raw), opts.Method, sx.tau).IDs()
					if !slices.Equal(sh.sigIDs[pos], want) {
						t.Fatalf("%s shard %d: record %d (%q) stores signature %v, selecting now gives %v",
							name, w, rec.ID, rec.Raw, sh.sigIDs[pos], want)
					}
				}
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
// the index restored from its snapshot, hold the same signature IDs at the
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
					if !slices.EqualFunc(b.sigIDs, r.sigIDs, func(x, y []uint32) bool { return slices.Equal(x, y) }) {
						t.Errorf("%s shard %d: stored signatures differ between built and restored", name, w)
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
				for w := range live.shards {
					l, r := live.shards[w], restored.shards[w]
					if len(l.sigIDs) != len(r.sigIDs) {
						t.Fatalf("%s shard %d: %d records live, %d restored", name, w, len(l.sigIDs), len(r.sigIDs))
					}
					for pos := range l.sigIDs {
						if !slices.Equal(l.sigIDs[pos], r.sigIDs[pos]) {
							t.Errorf("%s shard %d: record %d (%q) signed %v live, %v restored",
								name, w, l.records[pos].ID, l.records[pos].Raw, l.sigIDs[pos], r.sigIDs[pos])
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
	sh, order := sx.shards[0], sx.Snapshot().gen.order
	inv, live := heapKeptBy(func() *invindex.Index { return newInverted(sh.sigIDs, order, sx.tau) })
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

package invindex

import (
	"math/rand"
	"sort"
	"testing"
)

// refFilter is the naive count filter the Accumulator must reproduce
// bit-identically: per-record counters, touched-order emission, τ check,
// optional dead skip, limit restriction.
type refFilter struct {
	counts  []int32
	touched []int32
}

func newRefFilter(n int) *refFilter { return &refFilter{counts: make([]int32, n)} }

func (f *refFilter) addPostings(postings []Posting, mult int32) int64 {
	for _, p := range postings {
		if f.counts[p.Record] == 0 {
			f.touched = append(f.touched, int32(p.Record))
		}
		f.counts[p.Record] += mult * int32(p.Count)
	}
	return int64(len(postings))
}

// addBitset is a deliberately dumb exact walk, independent of the tile
// machinery under test.
func (f *refFilter) addBitset(bs *Bitset, mult int32, limit int) int64 {
	var processed int64
	for r := 0; r < limit && r < len(f.counts); r++ {
		if r>>6 < len(bs.words) && bs.words[r>>6]&(1<<(uint(r)&63)) != 0 {
			if f.counts[r] == 0 {
				f.touched = append(f.touched, int32(r))
			}
			f.counts[r] += mult
			processed++
		}
	}
	return processed
}

func (f *refFilter) collect(tau int32, dead []uint64) []int32 {
	var out []int32
	for _, r := range f.touched {
		if f.counts[r] >= tau && (dead == nil || dead[r>>6]&(1<<(uint32(r)&63)) == 0) {
			out = append(out, r)
		}
		f.counts[r] = 0
	}
	f.touched = f.touched[:0]
	return out
}

func randBitset(rng *rand.Rand, numRecords int, density float64) *Bitset {
	bs := &Bitset{words: make([]uint64, (numRecords+63)/64)}
	for r := 0; r < numRecords; r++ {
		if rng.Float64() < density {
			bs.words[r>>6] |= 1 << (uint(r) & 63)
			bs.card++
		}
	}
	return bs
}

func sortedCopy(in []int32) []int32 {
	out := append([]int32(nil), in...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// TestAccumulatorMatchesReference drives random probes — mixed slice and
// bitmap tokens, varying multiplicities, τ values straddling the tile's
// saturation ceiling, self-join limits and tombstones — through the block
// accumulator and the naive reference, asserting identical candidate sets
// and identical processed-entry counts. Both drains of FlushDense must run:
// the merge through the counters, and the direct emission of a probe whose
// every token went through the register block (all bitmaps, τ ≤ satCount,
// every multiplicity below it).
func TestAccumulatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	acc := NewAccumulator()
	pure := 0
	for trial := 0; trial < 200; trial++ {
		numRecords := 1 + rng.Intn(20000)
		ref := newRefFilter(numRecords)
		acc.Reset(numRecords)

		tau := 1 + rng.Intn(40) // sometimes above satCount (32): exact fallback path
		limit := numRecords
		if rng.Intn(3) == 0 {
			limit = rng.Intn(numRecords + 1)
		}
		var dead []uint64
		if rng.Intn(3) == 0 {
			dead = make([]uint64, (numRecords+63)/64)
			for i := range dead {
				dead[i] = rng.Uint64() & rng.Uint64()
			}
		}

		acc.Begin(tau)
		var gotProc, wantProc int64
		tokens := 1 + rng.Intn(8)
		for k := 0; k < tokens; k++ {
			mult := int32(1 + rng.Intn(40)) // sometimes ≥ satCount: exact fallback path
			if rng.Intn(2) == 0 {
				bs := randBitset(rng, numRecords, []float64{0.9, 0.3, 0.02}[rng.Intn(3)])
				gotProc += acc.AddBitset(bs, mult, limit)
				wantProc += ref.addBitset(bs, mult, limit)
			} else {
				var postings []Posting
				for r := 0; r < limit; r++ {
					if rng.Float64() < 0.05 {
						postings = append(postings, Posting{Record: r, Count: 1 + rng.Intn(3)})
					}
				}
				gotProc += acc.AddPostings(postings, mult)
				wantProc += ref.addPostings(postings, mult)
			}
		}
		gotProc += acc.FlushDense(limit)
		if acc.collected {
			pure++
		}
		got := sortedCopy(acc.Collect(dead))
		want := sortedCopy(ref.collect(int32(tau), dead))

		if gotProc != wantProc {
			t.Fatalf("trial %d: processed = %d, want %d", trial, gotProc, wantProc)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d candidates, want %d (n=%d τ=%d limit=%d)",
				trial, len(got), len(want), numRecords, tau, limit)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: candidate[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
	if pure == 0 || pure == 200 {
		t.Errorf("%d of 200 trials took the pure-dense drain; the comparison must cover both drains", pure)
	}
}

// TestAccumulatorResize pins the arena invariant across shrink/grow cycles:
// a Reset to a larger corpus must observe zeroed counters even though the
// grown region overlaps the previous probe's touched list.
func TestAccumulatorResize(t *testing.T) {
	acc := NewAccumulator()
	for _, n := range []int{100, 40, 100, 70, 130} {
		acc.Reset(n)
		acc.Begin(1)
		postings := make([]Posting, 0, n)
		for r := 0; r < n; r++ {
			postings = append(postings, Posting{Record: r, Count: 1})
		}
		acc.AddPostings(postings, 1)
		got := acc.Collect(nil)
		if len(got) != n {
			t.Fatalf("Reset(%d): %d candidates, want %d", n, len(got), n)
		}
	}
}

// TestHybridize pins the representation split and the accessor semantics on
// a hybridized index.
func TestHybridize(t *testing.T) {
	ix := New(4)
	for rec := 0; rec < 8; rec++ {
		ids := []uint32{0}
		if rec%2 == 0 {
			ids = append(ids, 1)
		}
		if rec == 3 {
			ids = append(ids, 2, 2, 2) // count 3: surplus 2 lands in the residual
		}
		if rec == 5 {
			ids = append(ids, 2)
		}
		ix.Add(rec, ids)
	}
	ix.Add(8, []uint32{2, 3})
	ix.Hybridize(3)

	if bs := ix.Bitset(0); bs == nil || bs.Card() != 8 {
		t.Fatalf("id 0 should be a bitmap of card 8, got %+v", bs)
	}
	if bs := ix.Bitset(1); bs == nil || bs.Card() != 4 {
		t.Fatalf("id 1 should be a bitmap of card 4, got %+v", bs)
	}
	if bs := ix.Bitset(0); len(bs.Residual()) != 0 {
		t.Fatalf("id 0 has no multi-occurrence postings; residual = %v", bs.Residual())
	}
	bs2 := ix.Bitset(2)
	if bs2 == nil || bs2.Card() != 3 {
		t.Fatalf("id 2 should be a bitmap of card 3, got %+v", bs2)
	}
	if res := bs2.Residual(); len(res) != 1 || res[0] != (Posting{Record: 3, Count: 2}) {
		t.Fatalf("id 2 residual = %v, want [{3 2}]", res)
	}
	if ix.Bitset(3) != nil {
		t.Fatal("id 3 has a single posting and must stay in slice form")
	}
	if ix.Postings(0) != nil {
		t.Fatal("hybridized id 0 must release its slice form")
	}
	if got := ix.ListLength(0); got != 8 {
		t.Fatalf("ListLength(0) = %d, want 8", got)
	}
	if got := ix.ListLength(2); got != 3 {
		t.Fatalf("ListLength(2) = %d, want 3", got)
	}
	if got := ix.ListLength(3); got != 1 {
		t.Fatalf("ListLength(3) = %d, want 1", got)
	}
	if got, want := ix.DenseKeys(), 3; got != want {
		t.Fatalf("DenseKeys = %d, want %d", got, want)
	}
	if got, want := ix.SparseKeys(), 1; got != want {
		t.Fatalf("SparseKeys = %d, want %d", got, want)
	}
	want := []uint32{0, 1, 2, 3}
	keys := ix.Keys()
	if len(keys) != len(want) {
		t.Fatalf("Keys = %v, want %v", keys, want)
	}
	for i := range keys {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add after Hybridize must panic")
		}
	}()
	ix.Add(9, []uint32{0})
}

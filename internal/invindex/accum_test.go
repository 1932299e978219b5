package invindex

import (
	"math/bits"
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

// probeToken is one probe token of a count-filter check: a bitmap-form list
// (bs set) or a slice-form one, with its probe-side multiplicity.
type probeToken struct {
	bs       *Bitset
	postings []Posting
	mult     int32
}

// checkAccumulator runs one probe through the block accumulator and the naive
// reference and fails unless both report the same processed-entry count and
// the same survivors.
func checkAccumulator(t *testing.T, acc *Accumulator, numRecords, tau, limit int, dead []uint64, tokens []probeToken) {
	t.Helper()
	ref := newRefFilter(numRecords)
	acc.Reset(numRecords)
	acc.Begin(tau)
	var gotProc, wantProc int64
	for _, tok := range tokens {
		if tok.bs != nil {
			gotProc += acc.AddBitset(tok.bs, tok.mult, limit)
			wantProc += ref.addBitset(tok.bs, tok.mult, limit)
		} else {
			gotProc += acc.AddPostings(tok.postings, tok.mult)
			wantProc += ref.addPostings(tok.postings, tok.mult)
		}
	}
	gotProc += acc.FlushDense(limit)
	got := sortedCopy(acc.Collect(dead))
	want := sortedCopy(ref.collect(int32(tau), dead))
	if gotProc != wantProc {
		t.Fatalf("processed = %d, want %d (n=%d τ=%d limit=%d)", gotProc, wantProc, numRecords, tau, limit)
	}
	if len(got) != len(want) {
		t.Fatalf("%d candidates, want %d (n=%d τ=%d limit=%d)", len(got), len(want), numRecords, tau, limit)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("candidate[%d] = %d, want %d (n=%d τ=%d limit=%d)", i, got[i], want[i], numRecords, tau, limit)
		}
	}
}

// randPostings draws a slice-form list over records < limit.
func randPostings(rng *rand.Rand, limit int) []Posting {
	var postings []Posting
	for r := 0; r < limit; r++ {
		if rng.Float64() < 0.05 {
			postings = append(postings, Posting{Record: r, Count: 1 + rng.Intn(3)})
		}
	}
	return postings
}

// randDead draws a tombstone bitmap, or nil for none.
func randDead(rng *rand.Rand, numRecords int) []uint64 {
	if rng.Intn(3) != 0 {
		return nil
	}
	dead := make([]uint64, (numRecords+63)/64)
	for i := range dead {
		dead[i] = rng.Uint64() & rng.Uint64()
	}
	return dead
}

// TestAccumulatorMatchesReference drives random probes — mixed slice and
// bitmap tokens, varying multiplicities (some at or above the saturation
// ceiling, which AddBitset clamps), τ values straddling MaxBlockTau,
// self-join limits and tombstones — through the block accumulator and the
// naive reference, asserting identical candidate sets and identical
// processed-entry counts. Bitmap tokens are drawn only at τ ≤ MaxBlockTau,
// the only τ an index keeps bitmaps at; above it every token is a slice.
// Some trials must fold only bitmaps, so that no slice write marks a lane.
func TestAccumulatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	acc := NewAccumulator()
	allBitmaps := 0
	for trial := 0; trial < 200; trial++ {
		numRecords := 1 + rng.Intn(20000)
		tau := 1 + rng.Intn(40) // sometimes above MaxBlockTau: slice tokens only
		limit := numRecords
		if rng.Intn(3) == 0 {
			limit = rng.Intn(numRecords + 1)
		}
		dead := randDead(rng, numRecords)
		tokens := make([]probeToken, 1+rng.Intn(8))
		slices := 0
		for k := range tokens {
			tokens[k].mult = int32(1 + rng.Intn(40)) // sometimes ≥ satCount: clamped
			if tau <= MaxBlockTau && rng.Intn(2) == 0 {
				tokens[k].bs = randBitset(rng, numRecords, []float64{0.9, 0.3, 0.02}[rng.Intn(3)])
			} else {
				tokens[k].postings = randPostings(rng, limit)
				slices++
			}
		}
		if slices == 0 {
			allBitmaps++
		}
		checkAccumulator(t, acc, numRecords, tau, limit, dead, tokens)
	}
	if allBitmaps == 0 {
		t.Error("no trial folded only bitmaps")
	}
}

// FuzzAccumulator holds the block accumulator to the naive reference for
// arbitrary record counts, limits, tombstones, multiplicities and τ. Each
// pair of spec bytes is one probe token: the first picks its form and
// density, the second its multiplicity (1–64). A bitmap token at
// τ > MaxBlockTau is folded in slice form, as an index built at that τ keeps
// it.
func FuzzAccumulator(f *testing.F) {
	// τ = MaxBlockTau with multiplicities at and above the saturation ceiling.
	f.Add(uint16(300), uint8(MaxBlockTau), uint16(300), int64(1), []byte{0, 32, 2, 40, 1, 0, 0, 63})
	// A limit that cuts a word short, bitmap and slice tokens mixed.
	f.Add(uint16(1000), uint8(3), uint16(100), int64(2), []byte{0, 1, 1, 2, 2, 0, 4, 3})
	// An all-bitmap probe.
	f.Add(uint16(4096), uint8(2), uint16(4096), int64(3), []byte{0, 0, 2, 1, 4, 0, 2, 2})
	acc := NewAccumulator()
	f.Fuzz(func(t *testing.T, n uint16, tau8 uint8, limit16 uint16, seed int64, spec []byte) {
		numRecords := 1 + int(n)%8192
		tau := max(int(tau8)%49, 1)
		limit := min(int(limit16), numRecords)
		rng := rand.New(rand.NewSource(seed))
		dead := randDead(rng, numRecords)
		var tokens []probeToken
		for k := 0; k+1 < len(spec) && len(tokens) < 16; k += 2 {
			tok := probeToken{mult: int32(1 + spec[k+1]%64)}
			if spec[k]&1 != 0 {
				tok.postings = randPostings(rng, limit)
			} else {
				bs := randBitset(rng, numRecords, []float64{0.9, 0.3, 0.02, 0.5}[spec[k]>>1&3])
				if tau <= MaxBlockTau {
					tok.bs = bs
				} else {
					tok.postings = bitsetPostings(bs, limit)
				}
			}
			tokens = append(tokens, tok)
		}
		checkAccumulator(t, acc, numRecords, tau, limit, dead, tokens)
	})
}

// bitsetPostings is a bitmap's list over records < limit in slice form, each
// record counted once.
func bitsetPostings(bs *Bitset, limit int) []Posting {
	var postings []Posting
	for w, x := range bs.words {
		for ; x != 0; x &= x - 1 {
			if r := w<<6 + bits.TrailingZeros64(x); r < limit {
				postings = append(postings, Posting{Record: r, Count: 1})
			}
		}
	}
	return postings
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

package invindex

import "math/bits"

// This file implements the block accumulation engine of the hybrid count
// filter. The classic count filter walks every posting entry of every probe
// token and bumps a per-record overlap counter; with frequent tokens in
// Bitset form the same counts can be produced block-at-a-time: 64 records
// per machine word, added through a carry-save adder network of bit-sliced
// counters that live entirely in registers while every dense token's word
// for that block is folded in, then drained once.
//
// The accumulation is word-major: for each bitmap word position w, the 64
// records' counters are held as countPlanes bit-planes in registers — plane
// k holds bit k of 64 independent counters — plus a saturation mask
// (counters that reached satCount stop counting). Saturation is never
// observable: an index keeps bitmaps only at τ ≤ MaxBlockTau = satCount,
// where a saturated counter is ≥ τ whatever its true count. Adding a bitmap
// word is a ripple-carry add of 1 restricted to the set bits: two ALU ops
// per plane, independent of how many of the 64 records are present, with no
// loads or stores. The ≥ τ verdict of all 64 lanes is read from the
// registers bit-parallel before they die, so a lane only a bitmap wrote and
// whose count stays below τ never touches the per-record counter array.

const (
	// countPlanes bounds the exact counter range of the register block:
	// counts 0..satCount-1 are exact, satCount is the saturation ceiling.
	countPlanes = 5
	// satCount is the first count the planes cannot represent exactly.
	satCount = 1 << countPlanes

	// MaxBlockTau is the largest τ a probe may fold bitmaps at: up to it a
	// counter that saturated at satCount is ≥ τ whatever its true count, so
	// the block's ≥ τ verdict is exact. An index built at a larger τ keeps
	// every list in slice form.
	MaxBlockTau = satCount
)

// The unrolled ripple and extraction in FlushDense spell out all five
// planes.
var _ = [1]struct{}{}[countPlanes-5]

// denseAdd is one deferred dense-token accumulation: the token's bitmap
// words (the slice header is copied here so the fold loop never chases the
// *Bitset pointer) and the probe-side multiplicity it contributes per
// record.
type denseAdd struct {
	words []uint64
	mult  int32
}

// Accumulator is the per-probe scratch of the hybrid count filter: a bump
// arena holding the per-record overlap counters and the touched list, plus
// a deferred list of dense tokens folded block-at-a-time by FlushDense. It
// replaces the counts/touched pair of the classic filter; one Accumulator
// serves any number of sequential probes (Begin resets per probe, Reset
// re-sizes per corpus) and is not safe for concurrent use — pool one per
// worker.
//
// The protocol per probe record is:
//
//	acc.Begin(tau)
//	acc.AddPostings(...) / acc.AddBitset(...)   // once per probe token
//	acc.FlushDense(limit)                       // drain deferred bitmaps
//	recs := acc.Collect(dead)                   // survivors; counters re-zeroed
//
// Counts produced this way give the ≥ τ verdicts of the classic
// entry-at-a-time accumulation for any τ ≤ MaxBlockTau, the only τ a probe
// folds bitmaps at.
type Accumulator struct {
	// block is the arena: one allocation backing both counts (first half)
	// and the touched list (second half). touched can never outgrow its
	// half — a record is appended only on its 0→nonzero transition, so at
	// most one entry per record.
	block   []int32
	counts  []int32
	touched []int32
	sized   int // counts length of the last Reset (the zeroed prefix bound)
	tau     int32
	dense   []denseAdd
	// sliceBits marks the records whose counter received a slice-form write
	// this probe: exactly the lanes whose block extraction cannot be
	// skipped. Collect re-zeroes it alongside the counters, so unlike the
	// arena it needs no watermark — it never aliases the touched list.
	sliceBits []uint64
}

// NewAccumulator returns an empty accumulator; Reset sizes it.
func NewAccumulator() *Accumulator { return &Accumulator{} }

// Reset sizes the arena for a corpus of numRecords records, reusing the
// backing block when it is large enough. Counters are zero afterwards: the
// prefix up to the previous size is zero by the Collect invariant, and a
// growing counter region — which overlaps the previous probe's touched
// list — is cleared explicitly.
func (a *Accumulator) Reset(numRecords int) {
	if cap(a.block) < 2*numRecords {
		a.block = make([]int32, 2*numRecords)
	} else if numRecords > a.sized {
		clear(a.block[a.sized:numRecords])
	}
	a.sized = numRecords
	a.counts = a.block[:numRecords]
	a.touched = a.block[numRecords:numRecords]
	nwords := (numRecords + 63) >> 6
	if cap(a.sliceBits) < nwords {
		a.sliceBits = make([]uint64, nwords)
	} else {
		// Zero by the Collect invariant, like the counter prefix.
		a.sliceBits = a.sliceBits[:nwords]
	}
	a.dense = a.dense[:0]
}

// Begin starts one probe record with overlap threshold tau.
func (a *Accumulator) Begin(tau int) {
	a.tau = int32(tau)
	a.touched = a.touched[:0]
	a.dense = a.dense[:0]
}

// AddPostings folds one slice-form posting list into the counters with the
// given probe-side multiplicity and returns the number of entries
// processed. This is the classic inner loop, shared by rare tokens and the
// dynamic index's delta segments.
func (a *Accumulator) AddPostings(postings []Posting, mult int32) int64 {
	counts := a.counts
	for _, p := range postings {
		if counts[p.Record] == 0 {
			a.touched = append(a.touched, p.Record)
			a.sliceBits[p.Record>>6] |= 1 << (uint32(p.Record) & 63)
		}
		counts[p.Record] += mult * p.Count
	}
	return int64(len(postings))
}

// AddBitset defers one bitmap-form posting list, with the given probe-side
// multiplicity, for block accumulation in FlushDense; it returns 0, and
// FlushDense reports the processed entries. limit is not read: FlushDense
// restricts every deferred list to the records below its own. The probe's τ
// must be at most MaxBlockTau. A multiplicity of satCount or more is clamped
// to satCount: one set bit of such a list already saturates its counter,
// which at τ ≤ MaxBlockTau reads ≥ τ either way.
func (a *Accumulator) AddBitset(bs *Bitset, mult int32, limit int) int64 {
	if a.tau > MaxBlockTau {
		panic("invindex: a bitmap folded at τ > MaxBlockTau")
	}
	a.dense = append(a.dense, denseAdd{bs.words, min(mult, satCount)})
	return 0
}

// FlushDense drains the deferred dense tokens through the register block
// adder, restricted to records < limit, and returns the number of (record,
// token) occurrences processed — the same quantity AddPostings reports for
// slice lists, so the filter's T_τ statistic is representation-independent.
//
// The loop is word-major: for each bitmap word position, every deferred
// token's word is ripple-carry added into six registers (five bit-planes
// plus saturation), then the 64 lanes are merged into the arena counters:
// a lane some slice-form list also wrote, and a lane the bit-parallel ≥ τ
// comparison proves a survivor. The bit-planes never touch memory, there is
// nothing to re-zero, and each token's bitmap streams through the cache
// exactly once — the classic path streams the full-corpus count array once
// per token.
func (a *Accumulator) FlushDense(limit int) int64 {
	if len(a.dense) == 0 {
		return 0
	}
	lw := (limit + 63) >> 6
	lastMask := ^uint64(0)
	if limit&63 != 0 {
		lastMask = 1<<(uint(limit)&63) - 1
	}
	maxWords := 0
	for _, d := range a.dense {
		n := len(d.words)
		if n > lw {
			n = lw
		}
		if n > maxWords {
			maxWords = n
		}
	}
	var processed int64
	counts := a.counts
	dense := a.dense
	tau := a.tau
	for w := 0; w < maxWords; w++ {
		mask := ^uint64(0)
		if w == lw-1 {
			// A bitmap holds exactly ⌈records/64⌉ words with the excess
			// high bits of the last word zero, so this mask only bites when
			// the limit cuts a word short (the self-join prefix).
			mask = lastMask
		}
		var p0, p1, p2, p3, p4, st uint64
		for _, d := range dense {
			words := d.words
			if w >= len(words) {
				continue
			}
			x := words[w] & mask
			if x == 0 {
				continue
			}
			processed += int64(bits.OnesCount64(x))
			// Ripple-carry add of 1 restricted to the set bits, branchless
			// across the five planes; a multiplicity m > 1 (a probe
			// signature rarely repeats an ID) simply adds 1 m times, which
			// reaches the identical counter and saturation state.
			for m := d.mult; m > 0; m-- {
				c := p0 & x
				p0 ^= x
				t := p1 & c
				p1 ^= c
				c = t
				t = p2 & c
				p2 ^= c
				c = t
				t = p3 & c
				p3 ^= c
				c = t
				t = p4 & c
				p4 ^= c
				st |= t
			}
		}
		u := p0 | p1 | p2 | p3 | p4 | st
		if u == 0 {
			continue
		}
		// Bit-parallel ≥ τ over all 64 lanes: evaluate the bit-sliced
		// subtraction counter−τ plane by plane — a lane is ≥ τ exactly when
		// no borrow comes out of the top plane (for a constant subtrahend
		// bit of 1 the borrow recurrence is borrow|¬x, for 0 it is
		// borrow&¬x). Saturated lanes hold true counts ≥ satCount ≥ τ and
		// are always included. AddBitset guarantees τ ≤ satCount here.
		var ge uint64
		if tau >= satCount {
			ge = st
		} else {
			var borrow uint64
			if tau&1 != 0 {
				borrow = ^p0
			}
			if tau&2 != 0 {
				borrow |= ^p1
			} else {
				borrow &^= p1
			}
			if tau&4 != 0 {
				borrow |= ^p2
			} else {
				borrow &^= p2
			}
			if tau&8 != 0 {
				borrow |= ^p3
			} else {
				borrow &^= p3
			}
			if tau&16 != 0 {
				borrow |= ^p4
			} else {
				borrow &^= p4
			}
			ge = ^borrow | st
		}
		recBase := int32(w) << 6
		// Only two kinds of lane can still matter: lanes whose counter got
		// a direct slice write (the block contribution must be merged
		// before Collect compares against τ), and dense-only lanes the
		// bit-parallel comparison already proves ≥ τ. Dense-only lanes
		// below τ — typically the vast majority — are skipped without
		// extraction.
		sb := a.sliceBits[w]
		for x := u & sb; x != 0; x &= x - 1 {
			b := bits.TrailingZeros64(x)
			c := int32(p0>>uint(b)&1) | int32(p1>>uint(b)&1)<<1 | int32(p2>>uint(b)&1)<<2 |
				int32(p3>>uint(b)&1)<<3 | int32(p4>>uint(b)&1)<<4
			if st>>uint(b)&1 != 0 {
				c = satCount
			}
			counts[recBase+int32(b)] += c
		}
		for x := ge &^ sb; x != 0; x &= x - 1 {
			b := bits.TrailingZeros64(x)
			c := int32(p0>>uint(b)&1) | int32(p1>>uint(b)&1)<<1 | int32(p2>>uint(b)&1)<<2 |
				int32(p3>>uint(b)&1)<<3 | int32(p4>>uint(b)&1)<<4
			if st>>uint(b)&1 != 0 {
				c = satCount
			}
			r := recBase + int32(b)
			a.touched = append(a.touched, r)
			counts[r] += c
		}
	}
	a.dense = a.dense[:0]
	return processed
}

// Collect returns the touched records whose overlap reached the probe's τ,
// skipping records whose bit is set in the optional dead bitmap, and
// re-zeroes every touched counter (restoring the arena invariant Reset
// relies on). The result aliases the touched half of the arena and is valid
// until the next Begin/Reset.
func (a *Accumulator) Collect(dead []uint64) []int32 {
	out := a.touched[:0]
	tau := a.tau
	counts := a.counts
	for _, r := range a.touched {
		if counts[r] >= tau && (dead == nil || dead[r>>6]&(1<<(uint32(r)&63)) == 0) {
			out = append(out, r)
		}
		counts[r] = 0
		a.sliceBits[r>>6] &^= 1 << (uint32(r) & 63)
	}
	return out
}

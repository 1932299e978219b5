package join

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/aujoin/aujoin/internal/invindex"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// This file pins the engine's count filter — hybrid posting layout, block
// accumulator, delta segments, tombstones — to a naive reference: across
// every filter method, threshold and serving path (static probe, self-join,
// mutable-index snapshots with tombstones and rebuilds at one and three
// shards) the candidate set must equal the one plain per-record counters
// produce over the signature IDs the index holds, and the processed-postings
// tally (the paper's T_τ cost measure) must agree as well. The filter is
// driven the way every request drives it: a record at a time, through
// shardView.candidatesRecord.

// propVocabulary mixes a skewed common vocabulary (dense posting lists that
// cross the hybrid cutoff) with per-record unique tokens (sparse lists that
// stay in slice form), so both accumulator paths run in every trial.
func propCorpus(n int, seed int64) []strutil.Record {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 60)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("tok%02d", i)
	}
	raws := make([]string, n)
	for i := range raws {
		l := 3 + rng.Intn(4)
		toks := make([]string, 0, l+1)
		for k := 0; k < l; k++ {
			u := rng.Float64()
			toks = append(toks, vocab[int(u*u*float64(len(vocab)))])
		}
		if rng.Intn(4) == 0 {
			toks = append(toks, fmt.Sprintf("uniq%d_%d", seed, i))
		}
		raws[i] = strutil.JoinTokens(toks)
	}
	return strutil.NewCollection(raws)
}

// propConfigs enumerates the method × θ grid of the bit-identity contract.
// The U-Filter fixes τ at 1; the adaptive filters run with τ = 2 so the
// count filter actually accumulates overlaps.
func propConfigs() []Options {
	var out []Options
	for _, theta := range []float64{0.7, 0.8, 0.9} {
		out = append(out,
			Options{Theta: theta, Tau: 1, Method: pebble.UFilter},
			Options{Theta: theta, Tau: 2, Method: pebble.AUHeuristic},
			Options{Theta: theta, Tau: 2, Method: pebble.AUDP},
		)
	}
	return out
}

// filterConfigs is the grid the count filter is held to naiveCandidates on:
// propConfigs and two AU-heuristic configurations, at τ =
// invindex.MaxBlockTau, the largest τ an index keeps bitmaps at, and one
// past it, where every list stays in slice form. The filter is compared with
// its reference, not with BruteForce: on propCorpus the filter's results at
// τ above 25 already miss pairs BruteForce finds, whatever the layout.
func filterConfigs() []Options {
	return append(propConfigs(),
		Options{Theta: 0.8, Tau: invindex.MaxBlockTau, Method: pebble.AUHeuristic},
		Options{Theta: 0.8, Tau: invindex.MaxBlockTau + 1, Method: pebble.AUHeuristic},
	)
}

// checkBlockTau fails unless an index built at τ tau keeps bitmaps exactly
// when tau is at most invindex.MaxBlockTau, for the configurations of
// filterConfigs at τ > 2, whose lists are dense enough to convert.
func checkBlockTau(t *testing.T, name string, tau, denseKeys int) {
	t.Helper()
	switch {
	case tau > invindex.MaxBlockTau && denseKeys != 0:
		t.Errorf("%s: an index built at τ %d keeps %d bitmaps", name, tau, denseKeys)
	case tau > 2 && tau <= invindex.MaxBlockTau && denseKeys == 0:
		t.Errorf("%s: an index built at τ %d converted no list", name, tau)
	}
}

// naiveCandidates is the reference — the classic count filter of the tests'
// names — in the shape of refFilter in
// internal/invindex/accum_test.go: no posting lists, no bitmaps, one overlap
// counter per indexed record. stored[pos] is the signature-ID multiset of the
// record at pos; for each probe signature t it returns, as (base+pos, t)
// pairs, the records among the first limit(t) positions whose multiset
// overlap with the probe reaches tau and that are not dead, and adds to
// processed one per (record, distinct probe ID) the record carries — T_τ,
// which counts tombstoned records too (their postings stay until a rebuild).
func naiveCandidates(stored [][]uint32, dead func(pos int) bool, base int, sigs [][]uint32, tau int, limit func(t int) int) (cands map[pairKey]bool, processed int64) {
	cands = make(map[pairKey]bool)
	for t, sig := range sigs {
		mult := make(map[uint32]int)
		for _, id := range sig {
			if id != pebble.NoID {
				mult[id]++
			}
		}
		for pos, ids := range stored[:limit(t)] {
			overlap := 0
			for i, id := range ids {
				overlap += mult[id]
				if mult[id] > 0 && !slices.Contains(ids[:i], id) {
					processed++
				}
			}
			if overlap >= tau && !dead(pos) {
				cands[pairKey{base + pos, t}] = true
			}
		}
	}
	return cands, processed
}

// filterRecords runs a shard's count filter for every probe signature, a
// record at a time on one scratch — the filter stage of the requests a join
// is made of — and returns the candidates as (position, t) pairs with their
// number (a duplicate would make it exceed the set's size) and the summed
// tally. limit gives record t's position limit (noLimit outside a self-join).
func filterRecords(v *shardView, sigs [][]uint32, tau int, limit func(t int) int) (map[pairKey]bool, int, counters) {
	sc := v.scratch()
	defer sc.release(&v.sh.pool)
	cands, n := make(map[pairKey]bool), 0
	var sum counters
	for t, ids := range sigs {
		recs, tally := v.candidatesRecord(ids, tau, limit(t), sc)
		sum.add(tally)
		n += len(recs)
		for _, r := range recs {
			cands[pairKey{int(r), t}] = true
		}
	}
	return cands, n, sum
}

func unlimited(int) int { return noLimit }

// diffPairs reports a compact description of the symmetric difference.
func diffPairs(got, want map[pairKey]bool) string {
	var extra, missing []pairKey
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	if len(extra)+len(missing) == 0 {
		return ""
	}
	return fmt.Sprintf("extra=%v missing=%v", extra, missing)
}

func TestHybridStaticCandidatesMatchClassic(t *testing.T) {
	j := NewJoiner(paperContext())
	recs := propCorpus(600, 11)
	probe := propCorpus(150, 22)
	noDead := func(int) bool { return false }
	denseSeen := false
	for _, opts := range filterConfigs() {
		name := fmt.Sprintf("%v/θ=%v/τ=%d", opts.Method, opts.Theta, opts.Tau)
		sx := j.BuildShardedIndex(recs, 1, opts, DynamicOptions{})
		sv := sx.Snapshot()
		v, tau := sv.views[0], sx.tau
		if v.inv.DenseKeys() > 0 {
			denseSeen = true
		}
		checkBlockTau(t, name, tau, v.inv.DenseKeys())
		stored := indexedKeys(v)

		sigs := selectSignatures(prepareRecords(probe, sx.dict, j.calc.PrepareProbeBuf), sv.gen, opts.Method, tau)
		got, n, tally := filterRecords(v, sigs, tau, unlimited)
		want, processed := naiveCandidates(stored, noDead, 0, sigs, tau, func(int) int { return len(stored) })
		if d := diffPairs(got, want); n != len(want) || d != "" {
			t.Errorf("%s probe: %d candidates, reference %d: %s", name, n, len(want), d)
		}
		if tally.ProbePostings != processed {
			t.Errorf("%s probe: processed postings %d, reference %d", name, tally.ProbePostings, processed)
		}
		if tally.ProbeBitsetTokens == 0 && v.inv.DenseKeys() > 0 {
			t.Errorf("%s probe: index has %d dense keys but no bitset lookups", name, v.inv.DenseKeys())
		}
		// Every distinct known ID of a probe signature is one lookup, in one
		// representation or the other.
		lookups := int64(0)
		for _, ids := range sigs {
			for a, id := range ids {
				if id != pebble.NoID && (a == 0 || ids[a-1] != id) {
					lookups++
				}
			}
		}
		if got := tally.ProbeBitsetTokens + tally.ProbeSliceTokens; got != lookups {
			t.Errorf("%s probe: %d bitset + %d slice lookups, reference %d", name, tally.ProbeBitsetTokens, tally.ProbeSliceTokens, lookups)
		}

		// Self-join over the prebuilt signatures: only records preceding the
		// probe record count.
		self := func(t int) int { return t }
		got, n, tally = filterRecords(v, stored, tau, self)
		want, processed = naiveCandidates(stored, noDead, 0, stored, tau, self)
		if d := diffPairs(got, want); n != len(want) || d != "" {
			t.Errorf("%s self: %d candidates, reference %d: %s", name, n, len(want), d)
		}
		if tally.ProbePostings != processed {
			t.Errorf("%s self: processed postings %d, reference %d", name, tally.ProbePostings, processed)
		}
	}
	if !denseSeen {
		t.Fatal("no configuration produced a hybridized index; the property test is vacuous")
	}
}

// mutate applies the same insert/remove script to an index: three insert
// batches (fresh tokens land in the dynamic order region), one scripted
// remove wave (tombstones), returning the removed IDs.
func mutate(sx *ShardedIndex, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var inserted []int
	for b := 0; b < 3; b++ {
		batch := make([]string, 40)
		for i := range batch {
			extra := fmt.Sprintf("dyn%d_%d_%d", seed, b, rng.Intn(25))
			batch[i] = fmt.Sprintf("tok%02d tok%02d %s", rng.Intn(60), rng.Intn(60), extra)
		}
		inserted = append(inserted, sx.InsertBatch(batch)...)
	}
	var removed []int
	for i := 0; i < 50; i++ {
		id := rng.Intn(600 + len(inserted))
		if sx.Remove(id) {
			removed = append(removed, id)
		}
	}
	return removed
}

// testHybridCandidates compares every shard's count filter (and the
// end-to-end Probe statistics above it) of a mutated index against the naive
// reference run shard by shard.
func testHybridCandidates(t *testing.T, shards int) {
	j := NewJoiner(paperContext())
	recs := propCorpus(600, 33)
	probe := propCorpus(120, 44)
	denseSeen := false
	// maxSegments 2 forces rebuilds during the 3-batch insert script, so the
	// comparison covers post-rebuild snapshots, not just delta chains.
	for _, dopts := range []DynamicOptions{{}, {maxSegments: 2}} {
		for _, opts := range filterConfigs() {
			name := fmt.Sprintf("shards=%d/%v/θ=%v/τ=%d/maxseg=%d", shards, opts.Method, opts.Theta, opts.Tau, dopts.maxSegments)
			sx := j.BuildShardedIndex(recs, shards, opts, dopts)
			mutate(sx, 55)
			st := sx.Stats()
			if st.Dead == 0 {
				t.Fatalf("%s: mutation script removed nothing: %+v", name, st)
			}
			if dopts.maxSegments == 2 && st.Rebuilds == 0 {
				t.Fatalf("%s: expected forced rebuilds, got none", name)
			}
			if st.DenseKeys > 0 {
				denseSeen = true
			}
			checkBlockTau(t, name, sx.tau, st.DenseKeys)

			sv := sx.Snapshot()
			sigs := selectSignatures(prepareRecords(probe, sx.dict, j.calc.PrepareProbeBuf), sv.gen, opts.Method, sx.tau)
			candidates, processed := 0, int64(0)
			for w, v := range sv.views {
				stored := indexedKeys(v)
				dead := func(pos int) bool { return !v.alive(pos) }
				got, n, tally := filterRecords(v, sigs, sx.tau, unlimited)
				want, p := naiveCandidates(stored, dead, 0, sigs, sx.tau, func(int) int { return len(stored) })
				if d := diffPairs(got, want); n != len(want) || d != "" {
					t.Errorf("%s shard %d: %d candidates, reference %d: %s", name, w, n, len(want), d)
				}
				if tally.ProbePostings != p {
					t.Errorf("%s shard %d: processed postings %d, reference %d", name, w, tally.ProbePostings, p)
				}
				candidates, processed = candidates+len(want), processed+p
			}

			// The end-to-end Probe must report the same filter work.
			if _, pst := sv.Probe(probe); pst.Candidates != candidates || pst.ProcessedPairs != processed {
				t.Errorf("%s: Probe reported %d candidates / %d postings, reference %d / %d",
					name, pst.Candidates, pst.ProcessedPairs, candidates, processed)
			}
		}
	}
	if !denseSeen {
		t.Fatal("no configuration produced a hybridized shard; the property test is vacuous")
	}
}

func TestHybridDynamicCandidatesMatchClassic(t *testing.T) { testHybridCandidates(t, 1) }
func TestHybridShardedCandidatesMatchClassic(t *testing.T) { testHybridCandidates(t, 3) }

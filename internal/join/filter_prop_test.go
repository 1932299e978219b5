package join

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// This file pins the hybrid posting layout to the classic count filter:
// across every filter method, threshold and serving path (static probe,
// self-join, mutable-index snapshots with tombstones and rebuilds at one and
// three shards) the candidate set produced with bitmap-backed dense lists must be
// bit-identical to the one produced with Options.ClassicFilter (slice-only
// postings), and the processed-postings tally (the paper's T_τ cost measure)
// must agree as well.

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

func classic(opts Options) Options {
	opts.ClassicFilter = true
	return opts
}

func pairKeySet(cands []pairKey) map[pairKey]bool {
	m := make(map[pairKey]bool, len(cands))
	for _, c := range cands {
		m[c] = true
	}
	return m
}

// diffPairs reports a compact description of the symmetric difference.
func diffPairs(hybrid, cls map[pairKey]bool) string {
	var onlyH, onlyC []pairKey
	for k := range hybrid {
		if !cls[k] {
			onlyH = append(onlyH, k)
		}
	}
	for k := range cls {
		if !hybrid[k] {
			onlyC = append(onlyC, k)
		}
	}
	return fmt.Sprintf("only-hybrid=%v only-classic=%v", onlyH, onlyC)
}

func TestHybridStaticCandidatesMatchClassic(t *testing.T) {
	j := NewJoiner(paperContext())
	recs := propCorpus(600, 11)
	probe := propCorpus(150, 22)
	ctx := context.Background()
	denseSeen := false
	for _, opts := range propConfigs() {
		name := fmt.Sprintf("%v/θ=%v", opts.Method, opts.Theta)
		hx := j.BuildIndex(recs, opts)
		cx := j.BuildIndex(recs, classic(opts))
		if hx.inv.DenseKeys() > 0 {
			denseSeen = true
		}
		if cx.inv.DenseKeys() != 0 {
			t.Fatalf("%s: classic index hybridized anyway (%d dense keys)", name, cx.inv.DenseKeys())
		}

		hsigs := j.signatures(probe, hx.sel, opts.Method, hx.tau)
		csigs := j.signatures(probe, cx.sel, opts.Method, cx.tau)
		hc, ht, err := hx.candidates(ctx, hsigs, false, 4)
		if err != nil {
			t.Fatalf("%s: hybrid candidates: %v", name, err)
		}
		cc, ct, err := cx.candidates(ctx, csigs, false, 4)
		if err != nil {
			t.Fatalf("%s: classic candidates: %v", name, err)
		}
		hset, cset := pairKeySet(hc), pairKeySet(cc)
		if len(hset) != len(cset) || diffPairs(hset, cset) != "only-hybrid=[] only-classic=[]" {
			t.Errorf("%s probe: candidate sets differ: %s", name, diffPairs(hset, cset))
		}
		if ht.postings != ct.postings {
			t.Errorf("%s probe: processed postings differ: hybrid=%d classic=%d", name, ht.postings, ct.postings)
		}
		if ht.bitsetTokens == 0 && hx.inv.DenseKeys() > 0 {
			t.Errorf("%s probe: hybrid index has %d dense keys but no bitset lookups", name, hx.inv.DenseKeys())
		}
		if ct.bitsetTokens != 0 {
			t.Errorf("%s probe: classic filter reported %d bitset lookups", name, ct.bitsetTokens)
		}

		// Self-join over the prebuilt signatures.
		hc, ht, err = hx.candidates(ctx, hx.sigs, true, 4)
		if err != nil {
			t.Fatalf("%s: hybrid self candidates: %v", name, err)
		}
		cc, ct, err = cx.candidates(ctx, cx.sigs, true, 4)
		if err != nil {
			t.Fatalf("%s: classic self candidates: %v", name, err)
		}
		hset, cset = pairKeySet(hc), pairKeySet(cc)
		if diffPairs(hset, cset) != "only-hybrid=[] only-classic=[]" {
			t.Errorf("%s self: candidate sets differ: %s", name, diffPairs(hset, cset))
		}
		if ht.postings != ct.postings {
			t.Errorf("%s self: processed postings differ: hybrid=%d classic=%d", name, ht.postings, ct.postings)
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

// testHybridCandidates compares the fan-out candidate stage (and the
// end-to-end Probe above it) of a hybrid-layout index against its classic
// twin after the same mutation script.
func testHybridCandidates(t *testing.T, shards int) {
	j := NewJoiner(paperContext())
	recs := propCorpus(600, 33)
	probe := propCorpus(120, 44)
	ctx := context.Background()
	// MaxSegments 2 forces rebuilds during the 3-batch insert script, so the
	// comparison covers post-rebuild snapshots, not just delta chains.
	for _, dopts := range []DynamicOptions{{}, {MaxSegments: 2}} {
		for _, opts := range propConfigs() {
			name := fmt.Sprintf("shards=%d/%v/θ=%v/maxseg=%d", shards, opts.Method, opts.Theta, dopts.MaxSegments)
			hx := j.BuildShardedIndex(recs, shards, opts, dopts)
			cx := j.BuildShardedIndex(recs, shards, classic(opts), dopts)
			mutate(hx, 55)
			mutate(cx, 55)
			hs, cs := hx.Stats(), cx.Stats()
			if hs.Dead == 0 || hs.Dead != cs.Dead || hs.Records != cs.Records {
				t.Fatalf("%s: mutation scripts diverged: hybrid=%+v classic=%+v", name, hs, cs)
			}
			if dopts.MaxSegments == 2 && hs.Rebuilds == 0 {
				t.Fatalf("%s: expected forced rebuilds, got none", name)
			}

			hv, cv := hx.Snapshot(), cx.Snapshot()
			htgt, _ := hv.probeTarget(hx.tau)
			ctgt, _ := cv.probeTarget(cx.tau)
			hsigs := j.signatures(probe, hv.gen.sel, opts.Method, hx.tau)
			csigs := j.signatures(probe, cv.gen.sel, opts.Method, cx.tau)
			hc, ht, err := htgt.candidates(ctx, hsigs, 4)
			if err != nil {
				t.Fatalf("%s: hybrid candidates: %v", name, err)
			}
			cc, ct, err := ctgt.candidates(ctx, csigs, 4)
			if err != nil {
				t.Fatalf("%s: classic candidates: %v", name, err)
			}
			hset, cset := pairKeySet(hc), pairKeySet(cc)
			if diffPairs(hset, cset) != "only-hybrid=[] only-classic=[]" {
				t.Errorf("%s: candidate sets differ: %s", name, diffPairs(hset, cset))
			}
			if ht.postings != ct.postings {
				t.Errorf("%s: processed postings differ: hybrid=%d classic=%d", name, ht.postings, ct.postings)
			}

			// End-to-end probes must agree too (positions remapped through two
			// different flattened catalogs collapse to the same stable IDs);
			// verification is layout-blind, so once per configuration is enough.
			if dopts.MaxSegments != 0 {
				continue
			}
			hp, hstats := hv.Probe(probe)
			cp, cstats := cv.Probe(probe)
			if len(hp) != len(cp) || hstats.Candidates != cstats.Candidates {
				t.Errorf("%s: probe results differ: hybrid %d pairs/%d cands, classic %d pairs/%d cands",
					name, len(hp), hstats.Candidates, len(cp), cstats.Candidates)
			}
		}
	}
}

func TestHybridDynamicCandidatesMatchClassic(t *testing.T) { testHybridCandidates(t, 1) }
func TestHybridShardedCandidatesMatchClassic(t *testing.T) { testHybridCandidates(t, 3) }

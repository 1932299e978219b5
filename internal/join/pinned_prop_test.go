package join

import (
	"context"
	"fmt"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
)

// This file pins the one configuration per index and the soundness of every
// pinned one: a request selects its probe signature under the configuration
// the index was built with, and any {method} × τ′ ≤ τ_build pinned through
// QueryOpts.ProbeMethod/ProbeTau may only change how much the candidate phase
// over-admits — never what survives exact verification. The benchmark's
// oracle leans on the second half.

func matchesEqual(a, b []QueryMatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPlannedEqualsFixed is the pinned-configuration property: across 3
// filters × θ ∈ {0.7, 0.8, 0.9} × {static, post-mutation} × shards ∈ {1, 3},
// every {UFilter, AUHeuristic, AUDP} × τ′ ∈ [1, τ_build + 1] pinned through
// QueryOpts answers ProbeRecordCtx and QueryTopKCtx exactly as the default
// request does and as BruteForce over the snapshot's live records does, and
// batch Probe (which takes no QueryOpts) equals BruteForce too. τ_build + 1
// exercises the soundness clamp. The default request must also do the same
// filter work as the request pinned at the build configuration, whatever
// QueryOpts.Plan says: one configuration per index.
func TestPlannedEqualsFixed(t *testing.T) {
	j := NewJoiner(paperContext())
	recs := propCorpus(600, 101)
	probe := propCorpus(120, 202)
	ctx := context.Background()
	shorter := 0

	for _, shards := range gridShards {
		for _, mutated := range []bool{false, true} {
			for _, opts := range propConfigs() {
				kind, dopts := "static", DynamicOptions{}
				if mutated {
					// maxSegments 2 forces rebuilds mid-script, so the requests
					// run against compacted snapshots.
					kind, dopts = "mutated", DynamicOptions{maxSegments: 2}
				}
				name := fmt.Sprintf("%s/shards=%d/%v/θ=%v", kind, shards, opts.Method, opts.Theta)
				sx := j.BuildShardedIndex(recs, shards, opts, dopts)
				if mutated {
					mutate(sx, 7)
				}
				v := sx.Snapshot()
				oracle := j.BruteForce(v.Live(), probe, opts.Theta, nil)

				if got, _ := v.Probe(probe); !pairsEqual(got, oracle) {
					t.Fatalf("%s: batch Probe diverged from brute force: %d vs %d pairs", name, len(got), len(oracle))
				}

				// Cycling the pinned configurations by probe index keeps the
				// grid cheap.
				pinned := []QueryOpts{{ProbeMethod: pebble.UFilter, ProbeTau: 3}}
				for tau := 1; tau <= sx.tau+1; tau++ {
					pinned = append(pinned,
						QueryOpts{ProbeMethod: pebble.AUHeuristic, ProbeTau: tau},
						QueryOpts{ProbeMethod: pebble.AUDP, ProbeTau: tau})
				}
				for i, rec := range probe {
					all := rowsOf(oracle, rec.ID) // ascending ID, ProbeRecordCtx's order
					best := bestFirst(all)
					best = best[:min(5, len(best))]
					pin := pinned[i%len(pinned)]
					for _, qo := range []QueryOpts{{}, pin} {
						got, err := v.ProbeRecordCtx(ctx, rec.Tokens, qo)
						if err != nil {
							t.Fatalf("%s probe %d %+v: ProbeRecordCtx: %v", name, i, qo, err)
						}
						if !matchesEqual(got, all) {
							t.Fatalf("%s probe %d %+v: ProbeRecordCtx diverged from brute force:\n got %v\nwant %v", name, i, qo, got, all)
						}
						// Top-k is deterministic under ties (similarity desc, ID
						// asc), so the answers must agree element-wise.
						got, err = v.QueryTopKCtx(ctx, rec.Tokens, 5, qo)
						if err != nil {
							t.Fatalf("%s probe %d %+v: QueryTopKCtx: %v", name, i, qo, err)
						}
						if !matchesEqual(got, best) {
							t.Fatalf("%s probe %d %+v: top-k diverged from brute force:\n got %v\nwant %v", name, i, qo, got, best)
						}
					}
					method, tau := pinnedConfig(pin, sx.tau)
					if v.gen.sel.Signature(rec.Tokens, method, tau).Len() < v.gen.sel.Signature(rec.Tokens, opts.Method, sx.tau).Len() {
						shorter++
					}
				}

				// filterWork is what the count filter did for the first probes
				// under qo: signature tokens looked up and postings processed.
				filterWork := func(qo QueryOpts) [3]int64 {
					before := sx.Stats()
					for _, rec := range probe[:20] {
						if _, err := v.ProbeRecordCtx(ctx, rec.Tokens, qo); err != nil {
							t.Fatalf("%s %+v: ProbeRecordCtx: %v", name, qo, err)
						}
					}
					d := minus(sx.Stats().counters, before.counters)
					return [3]int64{d.ProbePostings, d.ProbeBitsetTokens, d.ProbeSliceTokens}
				}
				built := filterWork(QueryOpts{ProbeMethod: opts.Method, ProbeTau: sx.tau})
				for _, qo := range []QueryOpts{{}, {Plan: PlanFixed}} {
					if got := filterWork(qo); got != built {
						t.Fatalf("%s: request %+v did filter work %v, the build configuration does %v", name, qo, got, built)
					}
				}
			}
		}
	}

	// Vacuity guard: some pinned configuration must have probed with a
	// strictly shorter signature than the built one — otherwise every request
	// above ran the same filter and the equivalence is trivially true.
	if shorter == 0 {
		t.Fatal("no pinned signature was shorter than the built one; the property test is vacuous")
	}
}

package join

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// titlesLookups is a titles-shaped catalog of n records — titlesConfig's
// generator, 200 synonym rules and 1 000 taxonomy nodes, q = 5 — and its
// joiner, with 2·probes probe records: variants (typo, synonym or taxonomy
// swap) of catalog records and records of the generator outside the catalog,
// alternately, numbered from n.
func titlesLookups(n, probes int) (*Joiner, []strutil.Record, []strutil.Record) {
	cfg := titlesConfig()
	cfg.Size = n
	gen := datagen.New(cfg)
	universe := gen.Collection(n + probes)
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = 5
	var raw []string
	for k := 0; k < probes; k++ {
		v, _ := gen.Variant(universe[k*n/probes])
		raw = append(raw, v, universe[n+k])
	}
	qs := strutil.NewCollection(raw)
	for k := range qs {
		qs[k].ID += n
	}
	return NewJoiner(ctx), strutil.NewCollection(universe[:n]), qs
}

// TestLookupMatchesBruteForceTitles holds the pooled single-record read to
// BruteForce on titles-shaped probes, whose rules and entities give some
// probes multi-token segments — the ones whose span texts the segmenter
// builds once and the dictionary read looks up by — at the titles workloads'
// configuration and at a looser one, on one and on three shards. Every
// lookup of one index runs through the same pool, so each probe is prepared
// into the storage of the one before. At least a quarter of the probes must
// carry a multi-token rule or entity segment, and some lookups must match.
func TestLookupMatchesBruteForceTitles(t *testing.T) {
	const n, probes = 400, 40
	j, recs, qs := titlesLookups(n, probes)
	multi := 0
	for _, q := range qs {
		for _, sg := range j.calc.Prepare(q.Tokens).Segs {
			if sg.Span.Len() > 1 && (sg.Rule || sg.Entity) {
				multi++
				break
			}
		}
	}
	t.Logf("%d of %d probes carry a multi-token rule or entity segment", multi, len(qs))
	if multi < len(qs)/4 {
		t.Fatalf("%d of %d probes carry a multi-token rule or entity segment, want at least %d", multi, len(qs), len(qs)/4)
	}
	for _, opts := range []Options{titlesOptions, {Theta: 0.7, Tau: 2, Method: pebble.AUDP}} {
		want := j.BruteForce(recs, qs, opts.Theta, nil)
		if len(want) == 0 {
			t.Fatalf("θ=%v: BruteForce matches no probe", opts.Theta)
		}
		for _, shards := range []int{1, 3} {
			v := j.BuildShardedIndex(recs, shards, opts, DynamicOptions{}).Snapshot()
			for _, q := range qs {
				got, exp := probeRecord(t, v, q.Tokens), rowsOf(want, q.ID)
				if len(got) != 0 || len(exp) != 0 {
					if !reflect.DeepEqual(got, exp) {
						t.Fatalf("θ=%v, %d shards: %v: lookup %v, BruteForce %v", opts.Theta, shards, q.Tokens, got, exp)
					}
				}
			}
		}
	}
}

// TestConcurrentLookupsMatchSequential runs distinct lookups side by side on
// one snapshot of a titles-shaped index, at one and at four shards, and holds
// every answer — top 10 and every match reaching θ — to the one the same
// lookup gave alone: lookups that run at once take different scratches from
// the index's pool, and a scratch put back must carry nothing of its lookup
// into the next. It runs under the race detector.
func TestConcurrentLookupsMatchSequential(t *testing.T) {
	const readers, rounds = 4, 3
	j, recs, qs := titlesLookups(400, 24)
	opts := Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}
	for _, shards := range []int{1, 4} {
		v := j.BuildShardedIndex(recs, shards, opts, DynamicOptions{}).Snapshot()
		top, all := make([][]QueryMatch, len(qs)), make([][]QueryMatch, len(qs))
		matched := 0
		for i, q := range qs {
			top[i], all[i] = queryTopK(t, v, q.Tokens, 10), queryTopK(t, v, q.Tokens, 0)
			matched += min(len(all[i]), 1)
		}
		if matched == 0 {
			t.Fatalf("%d shards: no lookup matches", shards)
		}
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				ctx := context.Background()
				for round := 0; round < rounds; round++ {
					for i := r; i < len(qs); i += readers {
						k := 10
						want := top[i]
						if (i+round)%2 == 1 {
							k, want = 0, all[i]
						}
						got, err := v.QueryTopKCtx(ctx, qs[i].Tokens, k, QueryOpts{})
						if err != nil || !reflect.DeepEqual(got, want) {
							t.Errorf("%d shards, k=%d: %v: %v (error %v) beside other lookups, %v alone", shards, k, qs[i].Tokens, got, err, want)
							return
						}
					}
				}
			}(r)
		}
		wg.Wait()
	}
}

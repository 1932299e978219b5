package join

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// This file pins the one preparation a record gets: the signatures the
// engine selects from prepared records equal those of a reference that
// enumerates segments and applies Table 2 directly to the tokens, and
// serving queries leaves the index's segment dictionary as it found it.

// refPebbles is the reference generator: every well-defined segment of the
// token sequence (Definition 1), in start-then-length order, and per segment
// the pebbles of Table 2 — one per q-gram occurrence at weight 1/|G(P,q)|,
// one per distinct lhs among the rules either side of which the segment
// matches at the best closeness, in key order, and one per taxonomy ancestor
// at weight 1/depth. It looks everything up from the tokens, shares no code
// with the engine's generator, and returns the segment texts beside the
// pebbles.
func refPebbles(ctx *sim.Context, tokens []string) (pebbles []pebble.Pebble, segTexts []string) {
	for start := range tokens {
		for length := 1; length <= ctx.MaxRuleTokens() && start+length <= len(tokens); length++ {
			span := tokens[start : start+length]
			lhs, rhs := ctx.Rules.ByLHS(span), ctx.Rules.ByRHS(span)
			node, entity := ctx.Tax.LookupTokens(span)
			if length > 1 && len(lhs)+len(rhs) == 0 && !entity {
				continue
			}
			seg, text := len(segTexts), strutil.JoinTokens(span)
			segTexts = append(segTexts, text)

			grams := strutil.QGrams(text, ctx.GramQ())
			for _, g := range grams {
				pebbles = append(pebbles, pebble.Pebble{Key: "g:" + g, Weight: 1 / float64(len(grams)), Segment: seg, Measure: sim.Jaccard})
			}

			closeness := map[string]float64{}
			for _, id := range append(slices.Clone(lhs), rhs...) {
				r := ctx.Rules.Rule(id)
				closeness[r.LHSText()] = max(closeness[r.LHSText()], r.C)
			}
			sides := make([]string, 0, len(closeness))
			for k := range closeness {
				sides = append(sides, k)
			}
			sort.Strings(sides)
			for _, k := range sides {
				pebbles = append(pebbles, pebble.Pebble{Key: "s:" + k, Weight: closeness[k], Segment: seg, Measure: sim.Synonym})
			}

			if entity {
				for _, anc := range ctx.Tax.Ancestors(node) {
					pebbles = append(pebbles, pebble.Pebble{Key: "t:" + ctx.Tax.Name(anc), Weight: 1 / float64(ctx.Tax.Depth(node)), Segment: seg, Measure: sim.Taxonomy})
				}
			}
		}
	}
	return pebbles, segTexts
}

// TestSignatureFromPreparedMatchesReference compares, over every method, θ
// and τ of the grid, the signature IDs the engine stores for each indexed
// record and selects for each probe — both from prepared records — with the
// selection over the reference generator's pebbles, and the order the engine
// counted with the reference's document frequencies. The probes include
// records with tokens the dictionary has never seen.
func TestSignatureFromPreparedMatchesReference(t *testing.T) {
	ctx := paperContext()
	j := NewJoiner(ctx)
	recs := strutil.NewCollection(append([]string{"coffee shop latte helsingki", "apple cake bakery", "cafe coffee drinks"},
		rawsOf(benchCorpus(300, 71))...))
	probes := strutil.NewCollection(append([]string{"coffee shop zzyzx", "quux apple cake frobnicate", "xyzzy"},
		rawsOf(benchCorpus(80, 72))...))

	// The corpus must hold what the comparison is about: multi-token segments
	// of both knowledge sources, and probe keys no indexed record has.
	var ruleSpan, entitySpan bool
	for _, rec := range recs {
		_, texts := refPebbles(ctx, rec.Tokens)
		for _, text := range texts {
			multi := len(strutil.Tokenize(text)) > 1
			ruleSpan = ruleSpan || multi && ctx.Rules.IsSide(text)
			_, entity := ctx.Tax.LookupText(text)
			entitySpan = entitySpan || multi && entity
		}
	}
	if !ruleSpan || !entitySpan {
		t.Fatalf("corpus has multi-token rule segment: %v, multi-token entity: %v; want both", ruleSpan, entitySpan)
	}

	unknownSeen := false
	for _, base := range propConfigs() {
		for _, tau := range []int{1, 2, 4} {
			opts := base
			opts.Tau = tau
			name := fmt.Sprintf("%v/θ=%v/τ=%d", opts.Method, opts.Theta, tau)
			sx := j.BuildShardedIndex(recs, 2, opts, DynamicOptions{})
			g := sx.Snapshot().gen

			freq := map[string]int{}
			for _, rec := range recs {
				pebbles, _ := refPebbles(ctx, rec.Tokens)
				seen := map[string]bool{}
				for _, p := range pebbles {
					if !seen[p.Key] {
						seen[p.Key] = true
						freq[p.Key]++
					}
				}
			}
			keys, freqs := g.order.FrequencyTable()
			if len(keys) != len(freq) {
				t.Fatalf("%s: the order holds %d keys, the reference generates %d", name, len(keys), len(freq))
			}
			for i, k := range keys {
				if freqs[i] != freq[k] {
					t.Fatalf("%s: key %q has document frequency %d in the order, %d by the reference", name, k, freqs[i], freq[k])
				}
			}

			refSig := func(tokens []string) []uint32 {
				pebbles, texts := refPebbles(ctx, tokens)
				pr := j.calc.Prepare(tokens)
				if pr.NumSegments() != len(texts) {
					t.Fatalf("%s: %v prepared into %d segments, the reference enumerates %v", name, tokens, pr.NumSegments(), texts)
				}
				for i, text := range texts {
					if pr.Table(i).Text != text {
						t.Fatalf("%s: %v segment %d is %q, the reference enumerates %q", name, tokens, i, pr.Table(i).Text, text)
					}
				}
				g.sel.Order.Sort(pebbles)
				if engine := g.sel.PrepareRecord(pr).Pebbles; !slices.Equal(pebbles, engine) {
					t.Fatalf("%s: %v sorts into pebbles %v, the reference generates %v", name, tokens, engine, pebbles)
				}
				return g.sel.RecordSignature(pr, opts.Method, sx.tau).IDs()
			}
			for w, v := range sx.Snapshot().views {
				keys := indexedKeys(v)
				for pos, rec := range v.records {
					if got, want := keys[pos], knownKeys(refSig(strutil.Tokenize(rec.Raw))); !slices.Equal(got, want) {
						t.Fatalf("%s shard %d: record %q is indexed under %v, the reference selects %v", name, w, rec.Raw, got, want)
					}
				}
			}
			prep := prepareRecords(probes, sx.dict, j.calc.PrepareProbeBuf)
			for i, got := range selectSignatures(prep, g, opts.Method, sx.tau) {
				if want := refSig(probes[i].Tokens); !slices.Equal(got, want) {
					t.Fatalf("%s: probe %q is signed %v, the reference selects %v", name, probes[i].Raw, got, want)
				}
				unknownSeen = unknownSeen || slices.Contains(got, pebble.NoID)
			}
		}
	}
	if !unknownSeen {
		t.Error("no probe signature carried a key unknown to the order; the unseen tokens were never exercised")
	}
}

func rawsOf(recs []strutil.Record) []string {
	raws := make([]string, len(recs))
	for i, rec := range recs {
		raws[i] = rec.Raw
	}
	return raws
}

// TestQueriesDoNotGrowDictionary: the probe side reads the index's segment
// dictionary and never writes it. A thousand queries and one probe batch,
// many of them carrying tokens no indexed record has, leave DistinctSegments
// and DistinctGrams where the build put them; an insert of the same tokens
// then moves both, so the reading is live.
func TestQueriesDoNotGrowDictionary(t *testing.T) {
	j := NewJoiner(paperContext())
	recs := benchCorpus(300, 5)
	queries := benchCorpus(1000, 6)
	for i := range queries {
		if i%3 == 0 {
			queries[i] = strutil.NewRecord(i, fmt.Sprintf("%s unseen%d", queries[i].Raw, i))
		}
	}
	for _, shards := range []int{1, 3} {
		sx := j.BuildShardedIndex(recs, shards, Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
		built, grams := sx.Stats().DistinctSegments, sx.Stats().DistinctGrams
		if built == 0 || grams == 0 {
			t.Fatalf("shards=%d: the build interned %d segments, numbered %d grams", shards, built, grams)
		}
		matches := 0
		for _, q := range queries {
			m, err := sx.Snapshot().QueryTopKCtx(context.Background(), q.Tokens, 5, QueryOpts{})
			if err != nil {
				t.Fatalf("shards=%d: query %q: %v", shards, q.Raw, err)
			}
			matches += len(m)
		}
		pairs, _ := sx.Snapshot().Probe(queries)
		if matches == 0 || len(pairs) == 0 {
			t.Fatalf("shards=%d: %d query matches, %d probe pairs; the requests did no work", shards, matches, len(pairs))
		}
		if got := sx.Stats().DistinctSegments; got != built {
			t.Errorf("shards=%d: DistinctSegments %d after 1000 queries and a probe batch, %d after the build", shards, got, built)
		}
		if got := sx.Stats().DistinctGrams; got != grams {
			t.Errorf("shards=%d: DistinctGrams %d after 1000 queries and a probe batch, %d after the build", shards, got, grams)
		}
		sx.InsertBatch([]string{queries[0].Raw})
		if got := sx.Stats().DistinctSegments; got <= built {
			t.Errorf("shards=%d: DistinctSegments %d after inserting %q, want more than %d", shards, got, queries[0].Raw, built)
		}
		if got := sx.Stats().DistinctGrams; got <= grams {
			t.Errorf("shards=%d: DistinctGrams %d after inserting %q, want more than %d", shards, got, queries[0].Raw, grams)
		}
	}
}

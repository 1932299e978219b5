package join

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
)

// TestAdoptOrderInternsMissingKeys covers the race AdoptOrder's defensive
// intern exists for: the adopted image lacks a key a live record generates (a
// mutation landed between the builder's frequency collection and the
// adoption). The key must join the adopted order's dynamic region, every
// stored signature must be the one a fresh selection under the adopted order
// gives, and the index must go on answering exactly.
func TestAdoptOrderInternsMissingKeys(t *testing.T) {
	j := NewJoiner(paperContext())
	recs := benchCorpus(300, 13)
	probes := benchCorpus(60, 14)
	opts := Options{Theta: 0.8, Tau: 2, Method: pebble.AUDP}
	want := j.BruteForce(recs, probes, opts.Theta, nil)
	for _, shards := range []int{1, 3} {
		sx := j.BuildShardedIndex(recs, shards, opts, DynamicOptions{})
		keys, freqs := sx.KeyFrequencies()
		// Drop the most frequent key: the one most signatures would lose.
		dropped := keys[len(keys)-1]
		keys, freqs = keys[:len(keys)-1], freqs[:len(freqs)-1]
		if err := sx.AdoptOrder(keys, freqs); err != nil {
			t.Fatalf("shards=%d: AdoptOrder: %v", shards, err)
		}
		g := sx.gen.Load()
		if id, ok := g.order.ID(dropped); !ok || int(id) < g.order.FrozenKeys() {
			t.Fatalf("shards=%d: key %q missing from the image has ID %d (interned: %v), want a dynamic ID past the %d frozen keys",
				shards, dropped, id, ok, g.order.FrozenKeys())
		}
		if n := g.order.DynamicCount(); n != 1 {
			t.Errorf("shards=%d: %d keys interned on adoption, want only the dropped one", shards, n)
		}
		for w, sh := range sx.shards {
			for pos, rec := range sh.records {
				if fresh := g.sel.Signature(rec.Tokens, opts.Method, sx.tau).IDs(); !slices.Equal(sh.sigIDs[pos], fresh) {
					t.Fatalf("shards=%d shard %d: record %q stores signature %v, selecting under the adopted order gives %v",
						shards, w, rec.Raw, sh.sigIDs[pos], fresh)
				}
			}
		}
		var got []Pair
		for _, p := range probes {
			ms, err := sx.Snapshot().ProbeRecordCtx(context.Background(), p.Tokens, QueryOpts{})
			if err != nil {
				t.Fatalf("shards=%d: probe %q: %v", shards, p.Raw, err)
			}
			for _, m := range ms {
				got = append(got, Pair{S: m.Record, T: p.ID, Similarity: m.Similarity})
			}
		}
		sortPairs(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: %d pairs after adoption, brute force finds %d", shards, len(got), len(want))
		}
	}
}

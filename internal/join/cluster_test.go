package join

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// TestAdoptOrderInternsMissingKeys covers AdoptOrder's guard: the adopted
// image lacks a key a live record generates. The key must join the adopted
// order's dynamic region, every record must be indexed under the signature
// a fresh selection under the adopted order gives, and the index must go on
// answering exactly.
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
		if err := adoptImage(sx, keys, freqs); err != nil {
			t.Fatalf("shards=%d: AdoptOrder: %v", shards, err)
		}
		g := sx.Snapshot().gen
		if id, ok := g.order.ID(dropped); !ok || int(id) < g.order.FrozenKeys() {
			t.Fatalf("shards=%d: key %q missing from the image has ID %d (interned: %v), want a dynamic ID past the %d frozen keys",
				shards, dropped, id, ok, g.order.FrozenKeys())
		}
		if n := g.order.DynamicCount(); n != 1 {
			t.Errorf("shards=%d: %d keys interned on adoption, want only the dropped one", shards, n)
		}
		for w, v := range sx.Snapshot().views {
			keys := indexedKeys(v)
			for pos, rec := range v.records {
				if fresh := knownKeys(g.sel.Signature(strutil.Tokenize(rec.Raw), opts.Method, sx.tau).IDs()); !slices.Equal(keys[pos], fresh) {
					t.Fatalf("shards=%d shard %d: record %q is indexed under %v, selecting under the adopted order gives %v",
						shards, w, rec.Raw, keys[pos], fresh)
				}
			}
		}
		var got []Pair
		for _, p := range probes {
			ms, err := probeByID(context.Background(), sx.Snapshot(), p.Tokens, QueryOpts{})
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

// adoptImage adopts the order an image in finalize order restores to.
func adoptImage(sx *ShardedIndex, keys []string, freqs []int) error {
	fz, err := pebble.RestoreFrozen(keys, freqs)
	if err != nil {
		return err
	}
	sx.AdoptOrder(fz)
	return nil
}

// TestHostedIndexesAtDictCap: two indexes that one joiner starts through
// PrepareShardedIndexWithIDs, as a cluster worker starts the two groups it
// hosts, intern into its one HostedDict, capped here below the texts of both
// and above those of either. Their shares are prepared concurrently,
// installed under the merged order, and take insert batches concurrently,
// so the texts past the cap take private tables whichever index meets them
// first. After the seed and after every round of inserts, each index
// answers as BruteForce over its own live records, and the dictionary is
// full at its cap.
func TestHostedIndexesAtDictCap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	j := NewJoiner(propertyContexts()["full"])
	opts := Options{Theta: 0.7, Tau: 2, Method: pebble.AUDP}
	var shares [2][]strutil.Record
	catalog := strutil.NewCollection(taggedCorpus(120, rng))
	for _, rec := range catalog {
		shares[rec.ID%2] = append(shares[rec.ID%2], rec)
	}
	texts := func(colls ...[]strutil.Record) int {
		d := core.NewSegDict()
		for _, coll := range colls {
			prepareRecords(coll, d, j.calc.PrepareInBuf)
		}
		return d.Len()
	}
	single, union := max(texts(shares[0]), texts(shares[1])), texts(shares[0], shares[1])
	if single+1 >= union {
		t.Fatalf("one share holds %d texts and both %d: no cap lies between", single, union)
	}
	limit := (single + union) / 2
	dict := j.HostedDict()
	core.SetSegDictLimit(dict, limit)

	// both runs f for the two indexes at once.
	both := func(f func(g int)) {
		var wg sync.WaitGroup
		for g := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(g)
			}()
		}
		wg.Wait()
	}
	var pending [2]*PendingIndex
	var errs [2]error
	both(func(g int) {
		ids, raws := make([]int, len(shares[g])), make([]string, len(shares[g]))
		for i, rec := range shares[g] {
			ids[i], raws[i] = rec.ID, rec.Raw
		}
		pending[g], errs[g] = j.PrepareShardedIndexWithIDs(ids, raws, 2, opts, DynamicOptions{})
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	k0, f0 := pending[0].KeyFrequencies()
	k1, f1 := pending[1].KeyFrequencies()
	keys, freqs, err := pebble.MergeFrequencyTables([][]string{k0, k1}, [][]int{f0, f1})
	if err != nil {
		t.Fatal(err)
	}
	fz, err := pebble.RestoreFrozen(keys, freqs)
	if err != nil {
		t.Fatal(err)
	}
	ix := [2]*ShardedIndex{pending[0].Install(fz), pending[1].Install(fz)}
	if order, shared := ix[0].Shares(ix[1]); !order || !shared {
		t.Fatalf("the two indexes share the order %v and the dictionary %v, want both", order, shared)
	}

	probe := append(propertyCorpus(20, rng), catalog[:10]...)
	matched := 0
	check := func(stage string) {
		t.Helper()
		if dict.Len() != limit {
			t.Fatalf("%s: the dictionary holds %d texts, want its cap %d", stage, dict.Len(), limit)
		}
		for g, sx := range ix {
			v := sx.Snapshot()
			got, _ := v.Probe(probe)
			if want := j.BruteForce(v.Live(), probe, opts.Theta, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: index %d: Probe %d pairs, oracle %d pairs", stage, g, len(got), len(want))
			}
			matched += len(got)
		}
	}
	check("seeded")
	next := 120
	for round := range 3 {
		var batches [2][]string
		var ids [2][]int
		for g := range batches {
			batches[g] = taggedCorpus(12, rng)
			for range batches[g] {
				ids[g], next = append(ids[g], next), next+1
			}
		}
		both(func(g int) { errs[g] = ix[g].InsertBatchRecords(ids[g], batches[g]) })
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("round %d", round))
	}
	if matched == 0 {
		t.Fatal("no probe matched a record")
	}
}

// taggedCorpus is rawCorpus with a made-up word after every record, so that
// records carry texts few others share.
func taggedCorpus(n int, rng *rand.Rand) []string {
	out := rawCorpus(n, rng)
	for i := range out {
		w := make([]byte, 4)
		for k := range w {
			w[k] = byte('a' + rng.Intn(26))
		}
		out[i] += " " + string(w)
	}
	return out
}

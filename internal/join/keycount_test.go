package join

import (
	"slices"
	"testing"
	"time"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// TestKeyCountMatchesKeyPath holds the signing of a collection — its order
// counted by key number (pebble.KeyCount) and its records signed through the
// new generation's probe table — to the key path, where every pebble is
// generated and looked up by key: for a build, both sides of a one-shot
// join, a re-freeze, AdoptOrder and a two-phase build (PendingIndex), every
// record's signature IDs must be Selector.RecordSignature's under every
// method, and the order's frequency table BuildOrder's over the same
// records, which prepares them without a dictionary and so counts every gram
// by key. The corpus is the rule- and
// taxonomy-heavy generator, whose rules share lhs texts; the probe side holds
// typo'd variants with texts the dictionary lacks (NoSegID segments); and the
// index's dictionary is held at its cap (core.SetSegDictLimit), so indexed
// texts past it are counted and signed by key beside those it holds.
func TestKeyCountMatchesKeyPath(t *testing.T) {
	const n = 300
	gen := datagen.New(heavyConfig(n))
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = 2
	j := NewJoiner(ctx)
	universe := gen.Collection(n + 40)
	s := strutil.NewCollection(universe[:n])
	var probeRaws []string
	for k := range 80 {
		raw := universe[n+k/2]
		if k%2 == 0 {
			raw, _ = gen.Variant(universe[k*n/80])
		}
		probeRaws = append(probeRaws, raw)
	}
	probes := strutil.NewCollection(probeRaws)
	shared := false
	for id := range ctx.Rules.Len() {
		shared = shared || len(ctx.Rules.ByLHSText(ctx.Rules.Rule(id).LHSText())) > 1
	}
	if !shared {
		t.Fatal("no two rules share an lhs")
	}

	// sameSignatures holds every record's signature IDs to the key path's.
	sameSignatures := func(state string, g *orderGen, m pebble.Method, tau int, prepared []*core.PreparedRecord, sigIDs [][]uint32) {
		t.Helper()
		for i, pr := range prepared {
			if want := g.sel.RecordSignature(pr, m, tau).IDs(); !slices.Equal(sigIDs[i], want) {
				t.Fatalf("%s %v: record %d (%v) signed %v through the table, %v by key", state, m, i, pr.Segs, sigIDs[i], want)
			}
		}
	}
	// sameTable holds an order's frequency table to BuildOrder's.
	sameTable := func(state string, keys []string, freqs []int, recs ...[]strutil.Record) {
		t.Helper()
		wantKeys, wantFreqs := j.BuildOrder(recs...).FrequencyTable()
		if !slices.Equal(keys, wantKeys) || !slices.Equal(freqs, wantFreqs) {
			t.Fatalf("%s: the count by key number holds %d keys, BuildOrder %d, or their frequencies differ", state, len(keys), len(wantKeys))
		}
	}
	// noEntry counts the segments of the records without a dictionary entry.
	noEntry := func(prepared []*core.PreparedRecord) int {
		count := 0
		for _, pr := range prepared {
			for _, sg := range pr.Segs {
				if sg.ID() == core.NoSegID {
					count++
				}
			}
		}
		return count
	}
	// shardSignatures holds every shard's stored signatures to the key path's.
	shardSignatures := func(state string, sx *ShardedIndex, m pebble.Method) {
		t.Helper()
		g := sx.Snapshot().gen
		for _, sh := range sx.shards {
			sameSignatures(state, g, m, sx.tau, sh.prepared, sh.sigIDs)
		}
	}

	for _, m := range []pebble.Method{pebble.UFilter, pebble.AUHeuristic, pebble.AUDP} {
		opts := Options{Theta: 0.7, Tau: 2, Method: m}

		sv, prepT, sigT := j.joinIndex(s, probes, opts)
		if noEntry(prepT) == 0 {
			t.Fatal("no probe segment lacks a dictionary entry")
		}
		sameSignatures("one-shot join S", sv.gen, m, sv.sx.tau, sv.views[0].prepared, sv.views[0].sigIDs)
		sameSignatures("one-shot join T", sv.gen, m, sv.sx.tau, prepT, sigT)
		keys, freqs := sv.gen.order.FrequencyTable()
		sameTable("one-shot join", keys, freqs, s, probes)

		// A two-shard build whose dictionary stops at half of the texts the
		// records carry.
		full := core.NewSegDict()
		prepareRecords(s, full, j.calc.PrepareInBuf)
		sx := j.newRouter(core.NewSegDict(), opts, DynamicOptions{})
		core.SetSegDictLimit(sx.dict, full.Len()/2)
		parts, in := make([]part, 2), make([][]strutil.Record, 2)
		for _, rec := range s {
			in[shardOf(rec.ID, 2)] = append(in[shardOf(rec.ID, 2)], rec)
			sx.nextID = max(sx.nextID, rec.ID+1)
		}
		var prepared [][]*core.PreparedRecord
		for w := range parts {
			parts[w].records = storedRecords(in[w])
			parts[w].prepared = prepareRecords(in[w], sx.dict, j.calc.PrepareInBuf)
			prepared = append(prepared, parts[w].prepared)
		}
		if sx.dict.Len() != full.Len()/2 || noEntry(slices.Concat(prepared...)) == 0 {
			t.Fatalf("the dictionary holds %d of %d texts, not its cap", sx.dict.Len(), full.Len())
		}
		sx.install(j.orderOf(sx.dict, prepared...), parts, time.Now())
		shardSignatures("build at cap", sx, m)
		keys, freqs = sx.Snapshot().gen.order.FrequencyTable()
		sameTable("build at cap", keys, freqs, s)

		sx.InsertBatch(probeRaws[:40])
		sx.RemoveBatch([]int{0, 1, 2, 3, 4})
		sx.refreezeMu.Lock()
		sx.refreezeLocked((*ShardedIndex).countedOrder)
		sx.refreezeMu.Unlock()
		shardSignatures("re-freeze", sx, m)
		live := sx.Snapshot().Live()
		keys, freqs = sx.KeyFrequencies()
		sameTable("re-freeze", keys, freqs, live)
		if k, f := sx.Snapshot().gen.order.FrequencyTable(); !slices.Equal(k, keys) || !slices.Equal(f, freqs) {
			t.Fatal("re-freeze: the re-frozen order is not the live records' exported table")
		}

		// An image without its most frequent key, which the adoption interns
		// dynamically.
		if err := adoptImage(sx, keys[:len(keys)-1], freqs[:len(freqs)-1]); err != nil {
			t.Fatal(err)
		}
		if d := sx.Snapshot().gen.order.DynamicCount(); d != 1 {
			t.Fatalf("adoption interned %d keys, want the one the image lacks", d)
		}
		shardSignatures("adopted", sx, m)

		// A two-phase build: the pending records' table, merged as a
		// coordinator merges it, is BuildOrder's, and installed under it
		// every record is signed once, as by the key path.
		ids, raws := make([]int, len(s)), make([]string, len(s))
		for i, rec := range s {
			ids[i], raws[i] = rec.ID, rec.Raw
		}
		pending, err := j.PrepareShardedIndexWithIDs(ids, raws, 2, opts, DynamicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		k, f := pending.KeyFrequencies()
		keys, freqs, err = pebble.MergeFrequencyTables([][]string{k}, [][]int{f})
		if err != nil {
			t.Fatal(err)
		}
		sameTable("pending", keys, freqs, s)
		fz, err := pebble.RestoreFrozen(keys, freqs)
		if err != nil {
			t.Fatal(err)
		}
		installed := pending.Install(fz)
		shardSignatures("installed", installed, m)
		if st := installed.Stats(); st.Signed != int64(len(s)) || st.Counted != int64(len(s)) || st.Rebuilds != 0 || st.DynamicKeys != 0 {
			t.Fatalf("installed: signed %d, counted %d, %d rebuilds, %d dynamic keys; want each of %d records signed and counted once",
				st.Signed, st.Counted, st.Rebuilds, st.DynamicKeys, len(s))
		}
	}
}

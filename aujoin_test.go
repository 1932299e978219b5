package aujoin

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func paperJoiner(t *testing.T) *Joiner {
	t.Helper()
	j, err := NewStrict(
		WithSynonym("coffee shop", "cafe", 1),
		WithSynonym("cake", "gateau", 1),
		WithTaxonomyPath("wikipedia", "food", "coffee", "coffee drinks", "espresso"),
		WithTaxonomyPath("wikipedia", "food", "coffee", "coffee drinks", "latte"),
		WithTaxonomyPath("wikipedia", "food", "cake", "apple cake"),
	)
	if err != nil {
		t.Fatalf("NewStrict: %v", err)
	}
	return j
}

func TestSimilarityPOIExample(t *testing.T) {
	j := paperJoiner(t)
	got := j.Similarity("coffee shop latte Helsingki", "espresso cafe Helsinki")
	want := (1 + 0.8 + 2.0/3.0) / 3
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Similarity = %v, want %v", got, want)
	}
	exact, complete := j.SimilarityExact("coffee shop latte Helsingki", "espresso cafe Helsinki")
	if !complete || math.Abs(exact-want) > 1e-9 {
		t.Errorf("SimilarityExact = %v (complete=%v), want %v", exact, complete, want)
	}
}

func TestJoinAndSelfJoin(t *testing.T) {
	j := paperJoiner(t)
	left := []string{"coffee shop latte Helsingki", "apple cake bakery", "nothing in common"}
	right := []string{"espresso cafe Helsinki", "cake gateau bakery", "completely different"}
	matches, stats := j.Join(left, right, JoinOptions{Theta: 0.75, Tau: 2, Filter: AUFilterDP})
	found := false
	for _, m := range matches {
		if m.S == 0 && m.T == 0 && m.Similarity >= 0.75 {
			found = true
		}
	}
	if !found {
		t.Errorf("POI pair missing from matches %v", matches)
	}
	if stats.Results != len(matches) || stats.Candidates < len(matches) {
		t.Errorf("stats inconsistent: %+v", stats)
	}
	if stats.Total() <= 0 {
		t.Error("total time should be positive")
	}

	self, _ := j.SelfJoin([]string{"latte art", "latte art", "espresso bar"}, JoinOptions{Theta: 0.9})
	dup := false
	for _, m := range self {
		if m.S == 0 && m.T == 1 {
			dup = true
		}
		if m.S >= m.T {
			t.Errorf("self-join pair not ordered: %+v", m)
		}
	}
	if !dup {
		t.Errorf("duplicate pair missing from self-join %v", self)
	}
}

func TestIndexProbeAndQuery(t *testing.T) {
	j := paperJoiner(t)
	catalog := []string{"coffee shop latte Helsingki", "apple cake bakery", "nothing in common"}
	ix := j.Index(catalog, JoinOptions{Theta: 0.75, Tau: 2, Filter: AUFilterDP})

	// Probing the prebuilt index must agree with the one-shot join.
	batch := []string{"espresso cafe Helsinki", "cake gateau bakery"}
	want, _ := j.Join(catalog, batch, JoinOptions{Theta: 0.75, Tau: 2, Filter: AUFilterDP})
	got, stats := ix.Probe(batch)
	if len(got) != len(want) {
		t.Fatalf("Probe = %v, want %v", got, want)
	}
	for i := range got {
		if got[i].S != want[i].S || got[i].T != want[i].T {
			t.Errorf("Probe[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if stats.Results != len(got) {
		t.Errorf("stats.Results = %d, want %d", stats.Results, len(got))
	}

	// A second probe reuses the index; a fresh query serves single lookups.
	if again, _ := ix.Probe(batch); len(again) != len(got) {
		t.Error("repeated probe differs")
	}
	hits := ix.Query("espresso cafe Helsinki")
	found := false
	for _, h := range hits {
		if h.Record == 0 && h.Similarity >= 0.75 {
			found = true
		}
	}
	if !found {
		t.Errorf("Query missed the POI record: %v", hits)
	}
	if hits := ix.Query("zzz qqq"); len(hits) != 0 {
		t.Errorf("unrelated query returned %v", hits)
	}
}

func TestIndexInsertRemoveSnapshot(t *testing.T) {
	j := paperJoiner(t)
	catalog := []string{"coffee shop latte Helsingki", "apple cake bakery", "nothing in common"}
	ix := j.Index(catalog, JoinOptions{Theta: 0.75, Tau: 2, Filter: AUFilterDP})

	before := ix.Snapshot()
	ids := ix.Insert([]string{"espresso cafe Helsinki central"})
	if len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("Insert ids = %v, want [3]", ids)
	}

	// The pre-insert snapshot must not see the new record; a fresh one must.
	for _, h := range before.Query("espresso cafe Helsinki central") {
		if h.Record == 3 {
			t.Errorf("stale snapshot sees the inserted record: %v", h)
		}
	}
	hits := ix.Query("espresso cafe Helsinki central")
	found := false
	for _, h := range hits {
		if h.Record == 3 && h.Similarity > 0.99 {
			found = true
		}
	}
	if !found {
		t.Fatalf("query after insert missed the new record: %v", hits)
	}

	// QueryTopK ranks the exact match first.
	top := ix.QueryTopK("espresso cafe Helsinki central", 1)
	if len(top) != 1 || top[0].Record != 3 {
		t.Fatalf("QueryTopK = %v, want the inserted record first", top)
	}

	// Removing tombstones the record for new snapshots only.
	mid := ix.Snapshot()
	if !ix.Remove(3) {
		t.Fatal("Remove(3) reported absent")
	}
	if ix.Remove(3) {
		t.Fatal("Remove(3) succeeded twice")
	}
	midSees := false
	for _, h := range mid.Query("espresso cafe Helsinki central") {
		if h.Record == 3 {
			midSees = true
		}
	}
	if !midSees {
		t.Error("pre-remove snapshot lost the record")
	}
	for _, h := range ix.Query("espresso cafe Helsinki central") {
		if h.Record == 3 {
			t.Error("removed record still served")
		}
	}

	// The tombstone may already be compacted away by a threshold rebuild,
	// so only the live count and insert counter are pinned exactly.
	st := ix.Stats()
	if st.Live != 3 || st.Inserts != 1 {
		t.Errorf("Stats = %+v, want 3 live / 1 inserted", st)
	}
}

func TestMeasureRestrictionOption(t *testing.T) {
	full := paperJoiner(t)
	jOnly := New(WithMeasures("J"))
	s, u := "coffee shop latte Helsingki", "espresso cafe Helsinki"
	if jOnly.Similarity(s, u) >= full.Similarity(s, u) {
		t.Error("Jaccard-only similarity should be below the unified one on the POI pair")
	}
}

func TestLoadersAndErrors(t *testing.T) {
	j, err := NewStrict(
		WithSynonymsFrom(strings.NewReader("coffee shop\tcafe\t1\n")),
		WithTaxonomyFrom(strings.NewReader("root\t\ndrinks\troot\nespresso\tdrinks\n")),
	)
	if err != nil {
		t.Fatalf("NewStrict with loaders: %v", err)
	}
	if got := j.Similarity("coffee shop", "cafe"); got != 1 {
		t.Errorf("loaded synonym similarity = %v", got)
	}

	if _, err := NewStrict(WithSynonym("", "x", 1)); err == nil {
		t.Error("expected error for empty synonym side")
	}
	if _, err := NewStrict(WithGramLength(0)); err == nil {
		t.Error("expected error for zero gram length")
	}
	if _, err := NewStrict(WithApproximationT(0.5)); err == nil {
		t.Error("expected error for t ≤ 1")
	}
	if _, err := NewStrict(WithTaxonomyPath()); err == nil {
		t.Error("expected error for empty taxonomy path")
	}
	if _, err := NewStrict(
		WithTaxonomyPath("rootA", "x"),
		WithTaxonomyPath("rootB", "y"),
	); err == nil {
		t.Error("expected error for inconsistent taxonomy roots")
	}
	if _, err := NewStrict(WithSynonymsFrom(strings.NewReader("bad-line\n"))); err == nil {
		t.Error("expected error for malformed synonym file")
	}
	if _, err := NewStrict(WithTaxonomyFrom(strings.NewReader("child\tmissing\n"))); err == nil {
		t.Error("expected error for malformed taxonomy file")
	}
}

func TestNewPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New should panic on invalid options")
		}
	}()
	New(WithGramLength(-1))
}

func TestFilterNames(t *testing.T) {
	if UFilter.String() != "U-Filter" {
		t.Error("UFilter name")
	}
	if AUFilterHeuristic.String() != "AU-Filter (heuristics)" {
		t.Error("heuristic name")
	}
	if AUFilterDP.String() != "AU-Filter (DP)" {
		t.Error("DP name")
	}
}

func TestJoinOptionsDefaults(t *testing.T) {
	j := paperJoiner(t)
	// Tau < 1 and default filter must still work.
	matches, stats := j.Join([]string{"espresso"}, []string{"espresso"}, JoinOptions{Theta: 0.9})
	if len(matches) != 1 || stats.Tau != 1 {
		t.Errorf("defaults broken: %v %+v", matches, stats)
	}

	// The U-Filter has no τ, so Tau 3 runs at 1: the built index, the same
	// index restored from its snapshot and the one-shot joins all report the
	// τ that ran, not the one that was asked for.
	recs, opts := []string{"espresso"}, JoinOptions{Theta: 0.9, Tau: 3, Filter: UFilter}
	ix := j.Index(recs, opts)
	var buf bytes.Buffer
	if _, err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := j.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, built := ix.Probe(recs)
	_, reread := restored.Probe(recs)
	_, oneShot := j.Join(recs, recs, opts)
	_, self := j.SelfJoin(recs, opts)
	for name, got := range map[string]int{
		"built Probe": built.Tau, "restored Probe": reread.Tau,
		"Join": oneShot.Tau, "SelfJoin": self.Tau,
		"built IndexStats": ix.Stats().Tau, "restored IndexStats": restored.Stats().Tau,
	} {
		if got != 1 {
			t.Errorf("U-Filter, Tau 3: %s reports τ = %d, want 1", name, got)
		}
	}
}

// TestIndexShardedMatchesSingle pins the public shard-count invariance: an
// index partitioned across several shards must serve exactly what the
// one-shard index serves, through Probe, Query and QueryTopK,
// before and after batched mutations.
func TestIndexShardedMatchesSingle(t *testing.T) {
	j := paperJoiner(t)
	catalog := []string{
		"coffee shop latte Helsingki", "apple cake bakery", "nothing in common",
		"espresso machines shop", "database systems course", "corner market town",
	}
	opts := JoinOptions{Theta: 0.75, Tau: 2, Filter: AUFilterDP}
	single := j.Index(catalog, opts)
	sharded := j.IndexWith(catalog, opts, IndexOptions{Shards: 3})
	if got := sharded.Stats().Shards; got != 3 {
		t.Fatalf("Shards = %d, want 3", got)
	}

	mutate := func(ix *Index) {
		ids := ix.Insert([]string{"espresso cafe Helsinki central", "apple gateau bakery", "coffee corner shop"})
		removed := ix.RemoveBatch([]int{ids[1], 1, 999})
		if want := []bool{true, true, false}; len(removed) != 3 || removed[0] != want[0] || removed[1] != want[1] || removed[2] != want[2] {
			t.Fatalf("RemoveBatch = %v, want %v", removed, want)
		}
	}
	mutate(single)
	mutate(sharded)

	batch := []string{"espresso cafe Helsinki", "cake gateau bakery", "coffee shop latte"}
	wantPairs, _ := single.Probe(batch)
	gotPairs, stats := sharded.Probe(batch)
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("sharded Probe = %v, want %v", gotPairs, wantPairs)
	}
	for i := range gotPairs {
		if gotPairs[i] != wantPairs[i] {
			t.Fatalf("sharded Probe[%d] = %+v, want %+v", i, gotPairs[i], wantPairs[i])
		}
	}
	if stats.Results != len(gotPairs) {
		t.Errorf("stats.Results = %d, want %d", stats.Results, len(gotPairs))
	}
	for _, q := range append(batch, "zzz qqq") {
		wantQ := single.Query(q)
		gotQ := sharded.Query(q)
		if len(gotQ) != len(wantQ) {
			t.Fatalf("sharded Query(%q) = %v, want %v", q, gotQ, wantQ)
		}
		for i := range gotQ {
			if gotQ[i] != wantQ[i] {
				t.Fatalf("sharded Query(%q)[%d] = %+v, want %+v", q, i, gotQ[i], wantQ[i])
			}
		}
		for _, k := range []int{1, 2, 10} {
			wantK := single.QueryTopK(q, k)
			gotK := sharded.QueryTopK(q, k)
			if len(gotK) != len(wantK) {
				t.Fatalf("sharded QueryTopK(%q, %d) = %v, want %v", q, k, gotK, wantK)
			}
			for i := range gotK {
				if gotK[i] != wantK[i] {
					t.Fatalf("sharded QueryTopK(%q, %d)[%d] = %+v, want %+v", q, k, i, gotK[i], wantK[i])
				}
			}
		}
	}

	// The shared prepared cache across shards surfaces its counters.
	if st := sharded.Stats(); st.CacheMisses == 0 {
		t.Errorf("expected cache misses after inserts: %+v", st)
	}
}

// TestQueryTopKDegenerateK pins the k ≤ 0 guard at the public API: an empty
// slice, no panic, on both sharded and single indexes.
func TestQueryTopKDegenerateK(t *testing.T) {
	j := paperJoiner(t)
	catalog := []string{"coffee shop latte Helsingki", "apple cake bakery"}
	for _, shards := range []int{1, 2} {
		ix := j.IndexWith(catalog, JoinOptions{Theta: 0.75, Tau: 2}, IndexOptions{Shards: shards})
		for _, k := range []int{0, -1, -100} {
			if got := ix.QueryTopK("coffee shop latte", k); len(got) != 0 {
				t.Errorf("shards=%d QueryTopK(k=%d) = %v, want empty", shards, k, got)
			}
			if got := ix.Snapshot().QueryTopK("coffee shop latte", k); len(got) != 0 {
				t.Errorf("shards=%d View.QueryTopK(k=%d) = %v, want empty", shards, k, got)
			}
		}
	}
}

// TestIndexStatsWireShape pins the /stats protocol: IndexStats is an alias of
// the engine's own statistics struct, so a renamed field or tag there would
// change what the daemons answer. Every field is set non-zero (omitempty
// fields drop out otherwise) and the marshalled key set is compared with the
// golden list.
func TestIndexStatsWireShape(t *testing.T) {
	var st IndexStats
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(1)
			case reflect.Uint64:
				f.SetUint(1)
			case reflect.Float64:
				f.SetFloat(1)
			case reflect.Struct: // embedded counters
				fill(f)
			default:
				t.Fatalf("field %s: unhandled kind %v", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(&st).Elem())
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]json.RawMessage
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(wire))
	for k := range wire {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"build_time_ns", "cache_hits", "cache_misses", "dead", "dense_keys", "distinct_grams", "distinct_segments",
		"dynamic_keys", "frozen_keys", "inserts", "live", "memo_hits", "msim_evals",
		"probe_bitset_tokens", "probe_postings",
		"probe_slice_tokens", "pruned_by_bound", "pruned_by_cover", "rebuilds", "records", "segments", "shards",
		"sparse_keys", "tau", "theta", "verified_candidates",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/stats keys changed:\n got %v\nwant %v", got, want)
	}
}

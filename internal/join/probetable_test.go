package join

import (
	"reflect"
	"slices"
	"testing"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// heavyConfig is a rule- and taxonomy-heavy generator: a 40-token vocabulary
// under 150 rules of up to four tokens a side and 120 entities, half of all
// positions a rule side or an entity, so segments match several rules of one
// lhs and rule sides double as entity names.
func heavyConfig(size int) datagen.Config {
	return datagen.Config{
		Name: "heavy", Seed: 3, Size: size, VocabSize: 40, MinTokens: 2, MaxTokens: 8,
		TaxonomyNodes: 120, TaxonomyFanout: 4, TaxonomyDepth: 6, SynonymRules: 150, MaxRuleTokens: 4,
		EntityRate: 0.5, SynonymTermRate: 0.5, TypoRate: 0.5, SynonymSwapRate: 0.6, TaxonomySwapRate: 0.6,
	}
}

// TestProbeSigningAcrossGenerations holds the signature a served probe gets —
// prepared and signed through its generation's probe table by one lookup
// scratch, reused for every probe and every generation (lookup.sign) — to the
// key path's (RecordSignature) for every method at τ ∈ {1, 2, 3, 6, 12}, on the
// titles shape, the MED shape and a rule- and taxonomy-heavy generator, in
// every state an index's generations pass through: a fresh build; insert
// batches, which intern texts past the table and keys into the order's
// dynamic region; a re-freeze; removals and a re-freeze, after which the
// dictionary holds entries with keys the new order lacks; and AdoptOrder of
// an image without the most frequent key, which the adoption interns
// dynamically. The probes are variants of indexed records, the inserted
// variants and records the index never saw; each state must sign probe segments from the
// table, and the states after a mutation must also meet entries the table
// does not hold.
func TestProbeSigningAcrossGenerations(t *testing.T) {
	titles := titlesConfig()
	titles.Size = 600
	for _, c := range []struct {
		name  string
		cfg   datagen.Config
		q     int
		theta float64
	}{
		{"titles", titles, 5, 0.9},
		{"MED", datagen.MEDLike(400, 7), 2, 0.8},
		{"heavy", heavyConfig(400), 2, 0.7},
	} {
		gen := datagen.New(c.cfg)
		ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
		ctx.Q = c.q
		j := NewJoiner(ctx)
		n := c.cfg.Size
		universe := gen.Collection(n + 60)
		records := universe[:n]
		sx := j.BuildShardedIndex(strutil.NewCollection(records), 2, Options{Theta: c.theta, Tau: 2, Method: pebble.AUDP}, DynamicOptions{})
		var probes [][]string
		inserts := make([]string, 120)
		for k := range inserts {
			inserts[k], _ = gen.Variant(records[(7*k+3)%n])
		}
		for k := range 60 {
			v, _ := gen.Variant(records[k*n/60])
			probes = append(probes, strutil.Tokenize(v), strutil.Tokenize(universe[n+k]), strutil.Tokenize(inserts[2*k]))
		}

		lk := new(lookup)
		// check signs every probe under the current generation, whose table
		// covers the first covered entries of the dictionary, and reports how
		// many probe segments the table signed and how many had an entry it
		// does not hold (refused, or interned past it).
		check := func(state string, covered int) (held, skipped int) {
			v := sx.Snapshot()
			g := v.gen
			for _, tokens := range probes {
				pq, _ := lk.sign(v, tokens, pebble.UFilter, 1)
				for _, sg := range pq.Segs {
					if g.probes.Holds(sg.ID) {
						held++
						if int(sg.ID) >= covered {
							t.Fatalf("%s %s: the table holds entry %d, past the %d it was built over", c.name, state, sg.ID, covered)
						}
					} else if int(sg.ID) < sx.dict.Len() {
						skipped++
					}
				}
				for _, m := range []pebble.Method{pebble.UFilter, pebble.AUHeuristic, pebble.AUDP} {
					for _, tau := range []int{1, 2, 3, 6, 12} {
						pq, got := lk.sign(v, tokens, m, tau)
						want := g.sel.RecordSignature(pq, m, tau).IDs()
						if !slices.Equal(got, want) {
							t.Fatalf("%s %s %v τ=%d: %v signed %v from the table, %v by key", c.name, state, m, tau, tokens, got, want)
						}
					}
				}
			}
			if held == 0 {
				t.Fatalf("%s %s: no probe segment was signed from the table", c.name, state)
			}
			return held, skipped
		}
		refreeze := func() {
			sx.refreezeMu.Lock()
			sx.refreezeLocked((*ShardedIndex).countedOrder)
			sx.refreezeMu.Unlock()
		}

		check("fresh", sx.dict.Len())

		covered := sx.dict.Len()
		for k := 0; k < len(inserts); k += 20 {
			sx.InsertBatch(inserts[k : k+20])
		}
		if sx.Snapshot().gen.order.DynamicCount() == 0 || sx.dict.Len() == covered {
			t.Fatalf("%s: the inserts interned no dynamic key or no text", c.name)
		}
		if _, skipped := check("inserts", covered); skipped == 0 {
			t.Fatalf("%s inserts: no probe segment had an entry interned past the table", c.name)
		}

		refreeze()
		check("re-freeze", sx.dict.Len())

		var removed []int
		for id := 0; id < n; id += 2 {
			removed = append(removed, id)
		}
		sx.RemoveBatch(removed)
		refreeze()
		if _, skipped := check("removals", sx.dict.Len()); skipped == 0 {
			t.Fatalf("%s removals: no probe segment had an entry with a key the re-frozen order lacks", c.name)
		}

		keys, freqs := sx.KeyFrequencies()
		if err := sx.AdoptOrder(keys[:len(keys)-1], freqs[:len(freqs)-1]); err != nil {
			t.Fatalf("%s: AdoptOrder: %v", c.name, err)
		}
		if sx.Snapshot().gen.order.DynamicCount() != 1 {
			t.Fatalf("%s: adoption interned %d keys, want the one the image lacks", c.name, sx.Snapshot().gen.order.DynamicCount())
		}
		check("adopted", sx.dict.Len())
	}
}

// TestProbeTableFootprint builds the titles index (the benchmark's titles
// corpus) and holds its generation's probe table to the layout's budget —
// at most 8 bytes a pebble of the dictionary's entries and 8 bytes an entry —
// and to arrays whose elements hold no pointers, so the collector never
// scans them.
func TestProbeTableFootprint(t *testing.T) {
	cfg := titlesConfig()
	gen := datagen.New(cfg)
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = 5
	sx := NewJoiner(ctx).BuildShardedIndex(strutil.NewCollection(gen.Collection(cfg.Size)), 1, titlesOptions, DynamicOptions{})
	entries, pebbles := 0, 0
	for v, id := sx.dict.View(), 0; id < v.Len(); id++ {
		d, _, _ := v.Entry(uint32(id))
		entries++
		pebbles += len(d.GramKeys)
		lhs := map[string]bool{}
		for _, id := range append(slices.Clone(d.LHS), d.RHS...) {
			lhs[ctx.Rules.Rule(id).LHSText()] = true
		}
		pebbles += len(lhs)
		if d.Node != taxonomy.InvalidNode {
			pebbles += ctx.Tax.Depth(d.Node)
		}
	}
	bytes := sx.Snapshot().gen.probes.Bytes()
	t.Logf("%d entries, %d pebbles: %d bytes", entries, pebbles, bytes)
	if budget := 8*pebbles + 8*entries; bytes > budget {
		t.Errorf("the probe table takes %d bytes, over the budget of %d for %d entries and %d pebbles", bytes, budget, entries, pebbles)
	}
	typ := reflect.TypeOf(pebble.ProbeTable{})
	for i := range typ.NumField() {
		if f := typ.Field(i); f.Type.Kind() != reflect.Slice || hasPointers(f.Type.Elem()) {
			t.Errorf("probe table field %s is a %v: want a slice of pointer-free elements", f.Name, f.Type)
		}
	}
}

// hasPointers reports whether a value of type typ holds a pointer the
// collector must scan.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := range typ.NumField() {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

package pebble

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// probeCorpus is one shape the probe table is checked on: a generator, its
// gram length and the join threshold.
type probeCorpus struct {
	name  string
	cfg   datagen.Config
	q     int
	theta float64
}

// probeCorpora are the titles shape (flat vocabulary, long records, q = 5),
// the MED shape (q = 2) and a rule- and taxonomy-heavy generator, whose small
// vocabulary makes segments match several rules of one lhs, and rule sides
// double as entity names.
func probeCorpora(size int) []probeCorpus {
	titles := datagen.MEDLike(size, 20190811)
	titles.VocabSize, titles.MinTokens, titles.MaxTokens, titles.DistinctTokens = 10000, 10, 14, true
	titles.EntityRate, titles.SynonymTermRate, titles.TaxonomyNodes, titles.SynonymRules = 0.05, 0.05, 1000, 200
	heavy := datagen.Config{
		Name: "heavy", Seed: 3, Size: size, VocabSize: 40, MinTokens: 2, MaxTokens: 8,
		TaxonomyNodes: 120, TaxonomyFanout: 4, TaxonomyDepth: 6, SynonymRules: 150, MaxRuleTokens: 4,
		EntityRate: 0.5, SynonymTermRate: 0.5, TypoRate: 0.5, SynonymSwapRate: 0.6, TaxonomySwapRate: 0.6,
	}
	return []probeCorpus{
		{"titles", titles, 5, 0.9},
		{"MED", datagen.MEDLike(size, 7), 2, 0.8},
		{"heavy", heavy, 2, 0.7},
	}
}

// probeTaus are the overlap constraints the table's signatures are checked at.
var probeTaus = []int{1, 2, 3, 6, 12}

// samePebbles reports the first position at which a probe-table pebble list
// differs from the key path's in anything but the key of a known pebble
// (the table's carry none), or -1.
func samePebbles(got, want []Pebble) int {
	for i := range min(len(got), len(want)) {
		a, b := got[i], want[i]
		if a.ID != b.ID || a.Weight != b.Weight || a.Segment != b.Segment || a.Measure != b.Measure || a.ID == NoID && a.Key != b.Key {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// TestProbeTableSigning holds signing through a probe table to the key path
// — the complete sorted pebble list but for the keys the table leaves out,
// and every method's cut at every τ — on each corpus shape. The dictionary
// holds every record's texts, while the order counts only the first half of
// them, so entries of the second half carry keys the order lacks and must
// sign by key; the probes are variants of the records and records of the
// generator the dictionary has never seen. Every path must be taken: probe
// segments the table signs (their synonym and taxonomy pebbles, an entry
// whose synonym pebbles were deduplicated by lhs, one with both), segments
// whose entry it refuses, and segments without one.
func TestProbeTableSigning(t *testing.T) {
	var held, refused, absent, syn, tax, both, dedup int
	for _, pc := range probeCorpora(400) {
		gen := datagen.New(pc.cfg)
		ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
		ctx.Q = pc.q
		g, calc := NewGenerator(ctx), core.NewCalculator(ctx)
		raws := gen.Collection(pc.cfg.Size)
		d, order := core.NewSegDict(), NewOrder()
		for i, raw := range raws {
			pr := calc.PrepareIn(d, strutil.Tokenize(raw))
			if i < len(raws)/2 {
				order.Add(g.AppendPebbles(nil, pr))
			}
		}
		sel := NewSelector(g, order, pc.theta)
		tab := g.KeyIDs(d, order).ProbeTable()
		for k := range 200 {
			raw := gen.BaseRecord()
			if k%2 == 0 {
				raw, _ = gen.Variant(raws[k*len(raws)/200])
			}
			pr := calc.PrepareProbe(d, strutil.Tokenize(raw))
			for _, sg := range pr.Segs {
				switch {
				case tab.Holds(sg.ID):
					held++
					nsyn := len(sg.Data.LHS) + len(sg.Data.RHS)
					if w := tab.synWeights(sg.ID); nsyn > len(w) && len(w) > 0 {
						dedup++
					}
					syn += min(nsyn, 1)
					if sg.Data.Node != taxonomy.InvalidNode {
						tax++
						both += min(nsyn, 1)
					}
				case sg.ID != core.NoSegID:
					refused++
				default:
					absent++
				}
			}
			name := fmt.Sprintf("%s %q", pc.name, raw)
			got, want := sel.PrepareProbe(pr, tab), sel.PrepareRecord(pr)
			if i := samePebbles(got.Pebbles, want.Pebbles); i >= 0 {
				t.Fatalf("%s: pebble %d differs: table %+v, keys %+v", name, i, got.Pebbles[min(i, len(got.Pebbles)-1)], want.Pebbles[min(i, len(want.Pebbles)-1)])
			}
			for _, m := range []Method{UFilter, AUHeuristic, AUDP} {
				for _, tau := range probeTaus {
					wantIDs := make([]uint32, 0)
					for _, p := range sel.RecordSignature(pr, m, tau).Pebbles {
						wantIDs = append(wantIDs, p.ID)
					}
					if gotIDs := sel.SignProbe(pr, tab, m, tau); !slices.Equal(gotIDs, wantIDs) {
						t.Fatalf("%s %v τ=%d: signed %v from the table, %v by key", name, m, tau, gotIDs, wantIDs)
					}
				}
			}
		}
	}
	t.Logf("probe segments: %d from the table (%d synonym, %d taxonomy, %d both, %d deduplicated), %d refused, %d without an entry",
		held, syn, tax, both, dedup, refused, absent)
	if held == 0 || refused == 0 || absent == 0 || syn == 0 || tax == 0 || both == 0 || dedup == 0 {
		t.Fatal("a signing path was never taken")
	}
}

// TestProbeTableLayout holds the table to its layout: one slot per entry the
// dictionary held, each in AppendPebbles order but for the gram pebbles, which
// come in gram-set order (a gram as often as it occurs), with the synonym
// weights beside it, empty exactly for the entries with a key the order
// lacks.
func TestProbeTableLayout(t *testing.T) {
	pc := probeCorpora(300)[2]
	gen := datagen.New(pc.cfg)
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = pc.q
	g, calc := NewGenerator(ctx), core.NewCalculator(ctx)
	d, order := core.NewSegDict(), NewOrder()
	var prepared []*core.PreparedRecord
	for i, raw := range gen.Collection(pc.cfg.Size) {
		pr := calc.PrepareIn(d, strutil.Tokenize(raw))
		prepared = append(prepared, pr)
		if i%3 != 0 {
			order.Add(g.AppendPebbles(nil, pr))
		}
	}
	order.Finalize()
	tab := g.KeyIDs(d, order).ProbeTable()
	if len(tab.ends) != d.Len() || !slices.IsSorted(tab.synAt) || len(tab.synOff) != len(tab.synAt)+1 {
		t.Fatalf("%d slot ends for %d entries, %d synonym offsets for %d entries (sorted: %v)",
			len(tab.ends), d.Len(), len(tab.synOff), len(tab.synAt), slices.IsSorted(tab.synAt))
	}
	seen := make([]bool, d.Len())
	var filled, refused int
	for _, pr := range prepared {
		for idx, sg := range pr.Segs {
			if seen[sg.ID] {
				continue
			}
			seen[sg.ID] = true
			want := g.appendSegment(nil, sg.Data, idx)
			order.Intern(want)
			grams := want[:len(sg.Data.GramKeys)]
			slices.SortStableFunc(grams, func(a, b Pebble) int { return strings.Compare(a.Key, b.Key) })
			ids, w := tab.slot(sg.ID), tab.synWeights(sg.ID)
			if slices.ContainsFunc(want, func(p Pebble) bool { return p.ID == NoID }) {
				if len(ids) != 0 || len(w) != 0 {
					t.Fatalf("entry %d (%q) has a key the order lacks and a filled slot", sg.ID, sg.Data.Text)
				}
				refused++
				continue
			}
			filled++
			var wantIDs []uint32
			var wantW []float64
			for _, p := range want {
				wantIDs = append(wantIDs, p.ID)
				if p.Measure == sim.Synonym {
					wantW = append(wantW, p.Weight)
				}
			}
			if !slices.Equal(ids, wantIDs) || !slices.Equal(w, wantW) {
				t.Fatalf("entry %d (%q): slot %v %v, want %v %v", sg.ID, sg.Data.Text, ids, w, wantIDs, wantW)
			}
		}
	}
	if filled == 0 || refused == 0 {
		t.Fatalf("%d entries filled, %d refused; want both", filled, refused)
	}
}

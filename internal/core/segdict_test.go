package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/aujoin/aujoin/internal/sim"
)

// checkGramTable holds a dictionary's gram numbering to its definition: the
// numbers are dense, each distinct gram of the interned texts has exactly one,
// no other gram has one, and every entry's numbers name exactly its Grams, in
// order.
func checkGramTable(t *testing.T, d *SegDict) {
	t.Helper()
	gramOf := make([]string, len(d.gramNum))
	named := make([]bool, len(d.gramNum))
	for g, n := range d.gramNum {
		if int(n) >= len(gramOf) || named[n] {
			t.Fatalf("gram %q has number %d: out of %d, or taken", g, n, len(gramOf))
		}
		gramOf[n], named[n] = g, true
	}
	if len(d.gramOff) != len(d.entries)+1 || int(d.gramOff[len(d.entries)]) != len(d.gramSets) {
		t.Fatalf("%d gram offsets, last %d, for %d entries and %d numbers", len(d.gramOff), d.gramOff[len(d.gramOff)-1], len(d.entries), len(d.gramSets))
	}
	distinct := map[string]bool{}
	for id, en := range d.entries {
		e := en.data
		nums := d.gramSets[d.gramOff[id]:d.gramOff[id+1]]
		if len(nums) != len(e.Grams) {
			t.Fatalf("entry %d (%q): %d numbers for %d grams", id, e.Text, len(nums), len(e.Grams))
		}
		for k, n := range nums {
			if gramOf[n] != e.Grams[k] {
				t.Fatalf("entry %d (%q): gram %d is %q, number %d names %q", id, e.Text, k, e.Grams[k], n, gramOf[n])
			}
			distinct[e.Grams[k]] = true
		}
	}
	if len(distinct) != d.NumGrams() {
		t.Fatalf("%d distinct grams in the entries, %d numbered", len(distinct), d.NumGrams())
	}
}

// TestSegDictConcurrentIntern interns one corpus from several goroutines at
// once — a parallel index build, or inserts beside each other — and checks
// the dictionary stayed a bijection: IDs dense, one per distinct text, and
// every record of a text sharing the one derivation table; and that the gram
// numbering interleaved with it did too (checkGramTable).
func TestSegDictConcurrentIntern(t *testing.T) {
	calc := NewCalculator(paperContext())
	corpus := corpusTokens(rand.New(rand.NewSource(23)), 200)
	d := NewSegDict()
	prepared := make([][]*PreparedRecord, 4)
	var wg sync.WaitGroup
	for g := range prepared {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, toks := range corpus {
				prepared[g] = append(prepared[g], calc.PrepareIn(d, toks))
			}
		}()
	}
	wg.Wait()
	byID := map[uint32]string{}
	byText := map[string]uint32{}
	for _, prs := range prepared {
		for _, pr := range prs {
			for _, sg := range pr.Segs {
				if sg.ID == NoSegID || int(sg.ID) >= d.Len() {
					t.Fatalf("segment %q has ID %d, dictionary length %d", sg.Data.Text, sg.ID, d.Len())
				}
				if text, ok := byID[sg.ID]; ok && text != sg.Data.Text {
					t.Fatalf("ID %d names both %q and %q", sg.ID, text, sg.Data.Text)
				}
				if id, ok := byText[sg.Data.Text]; ok && id != sg.ID {
					t.Fatalf("text %q has IDs %d and %d", sg.Data.Text, id, sg.ID)
				}
				byID[sg.ID], byText[sg.Data.Text] = sg.Data.Text, sg.ID
				if sg.Data != d.entries[sg.ID].data {
					t.Fatalf("segment %q does not share the dictionary's table", sg.Data.Text)
				}
			}
		}
	}
	if len(byID) != d.Len() {
		t.Fatalf("%d IDs in use, dictionary length %d", len(byID), d.Len())
	}
	checkGramTable(t, d)
}

// TestSegDictAtCap is the one behaviour at the dictionary's cap: a limit
// lowered so that half the texts fall past it changes where a derivation
// table lives and nothing else. Records prepared into the capped dictionary
// carry the tables an unlimited one gives them — what pebble generation and
// signature selection read — private and under NoSegID for the texts past the
// cap, probes read the capped dictionary to the same tables, every
// VerifyPrepared verdict agrees, and the texts past the cap numbered no gram.
func TestSegDictAtCap(t *testing.T) {
	calc := NewCalculator(paperContext())
	rng := rand.New(rand.NewSource(41))
	corpus, probes := corpusTokens(rng, 120), corpusTokens(rng, 20)
	full, capped := NewSegDict(), NewSegDict()
	for _, toks := range corpus {
		calc.PrepareIn(full, toks)
	}
	capped.limit = full.Len() / 2
	sameTables := func(a, b *PreparedRecord) {
		t.Helper()
		if len(a.Segs) != len(b.Segs) || a.MinPartitionSize() != b.MinPartitionSize() {
			t.Fatalf("%v: %d segments and MP %d unlimited, %d and %d capped", a.Tokens, len(a.Segs), a.MinPartitionSize(), len(b.Segs), b.MinPartitionSize())
		}
		for i := range a.Segs {
			if a.Segs[i].Span != b.Segs[i].Span || !reflect.DeepEqual(a.Segs[i].Data, b.Segs[i].Data) {
				t.Fatalf("%v segment %d: table %+v unlimited, %+v capped", a.Tokens, i, a.Segs[i].Data, b.Segs[i].Data)
			}
		}
	}
	past := 0
	sc := NewScratch()
	for _, toks := range corpus {
		a, b := calc.PrepareIn(full, toks), calc.PrepareIn(capped, toks)
		sameTables(a, b)
		for i := range b.Segs {
			if id := b.Segs[i].ID; id == NoSegID {
				past++
			} else if b.Segs[i].Data != capped.entries[id].data {
				t.Fatalf("%v segment %d has ID %d and a table of its own", toks, i, id)
			}
		}
		for _, probe := range probes {
			pa, pb := calc.PrepareProbe(full, probe), calc.PrepareProbe(capped, probe)
			sameTables(pa, pb)
			for _, theta := range []float64{0.5, 0.8} {
				va, oka := calc.VerifyPrepared(a, pa, theta, sc)
				vb, okb := calc.VerifyPrepared(b, pb, theta, sc)
				if va != vb || oka != okb {
					t.Fatalf("%v / %v at θ=%v: (%v, %v) unlimited, (%v, %v) capped", toks, probe, theta, va, oka, vb, okb)
				}
			}
		}
	}
	if past == 0 || capped.Len() != capped.limit {
		t.Fatalf("%d segments fell past the cap, dictionary length %d at limit %d", past, capped.Len(), capped.limit)
	}
	checkGramTable(t, capped)
	if capped.NumGrams() >= full.NumGrams() {
		t.Fatalf("%d grams numbered under the cap, %d without: the texts past it numbered theirs", capped.NumGrams(), full.NumGrams())
	}
}

// TestSegDictScoreBits holds every entry's score bits to its table, for the
// entries intern writes and for those a restore writes into a fresh
// dictionary from persisted metadata, over records with rule sides, taxonomy
// nodes and empty tokens; each bit must occur.
func TestSegDictScoreBits(t *testing.T) {
	ctx, phrases := phraseContext()
	calc := NewCalculator(ctx)
	corpus := append(phraseCorpus(rand.New(rand.NewSource(5)), phrases, 60), []string{""}, []string{"tok01", "", "tok02"})
	check := func(d *SegDict, what string) {
		t.Helper()
		var seen uint8
		for id, e := range d.entries {
			if want := e.data.Score(); e.score != want {
				t.Fatalf("%s: entry %d (%q) has score bits %03b, its table %03b", what, id, e.data.Text, e.score, want)
			}
			seen |= e.score
		}
		if all := sim.ScoreDegenerate | sim.ScoreRule | sim.ScoreNode; seen != all {
			t.Fatalf("%s: score bits %03b occur, want %03b", what, seen, all)
		}
	}
	built, restored := NewSegDict(), NewSegDict()
	for _, toks := range corpus {
		pr := calc.PrepareIn(built, toks)
		segs, minPart := pr.PersistMeta()
		if _, err := calc.RestorePrepared(toks, segs, minPart, restored); err != nil {
			t.Fatalf("%v: %v", toks, err)
		}
	}
	check(built, "interned")
	check(restored, "restored")
}

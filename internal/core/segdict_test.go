package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// checkGramTable holds a dictionary's gram numbering to its definition: the
// numbers are dense, each distinct gram of the interned texts has exactly one,
// no other gram has one, and every entry's numbers name exactly its Grams, in
// order.
func checkGramTable(t *testing.T, d *SegDict) {
	t.Helper()
	gramOf := make([]string, len(d.gramNum))
	named := make([]bool, len(d.gramNum))
	for g, r := range d.gramNum {
		n := r.num
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

// checkGramChains holds a dictionary's occurrence chains to their
// definition: one link per element of gramSets, and the chain of each
// numbered gram lists, newest first, exactly the entries whose gram sets
// hold it, in descending ID order, each link naming an occurrence of that
// gram inside its entry's gram set.
func checkGramChains(t *testing.T, d *SegDict) {
	t.Helper()
	if len(d.occs) != len(d.gramSets) {
		t.Fatalf("%d links for %d occurrences", len(d.occs), len(d.gramSets))
	}
	want := make([][]uint32, len(d.gramNum)) // gram → entries holding it, ascending
	for id := range d.entries {
		for _, n := range d.gramSets[d.gramOff[id]:d.gramOff[id+1]] {
			want[n] = append(want[n], uint32(id))
		}
	}
	walked := 0
	for _, r := range d.gramNum {
		n := r.num
		var got []uint32
		for k := r.head; k != noOcc; k = d.occs[k].prev {
			id := d.occs[k].id
			if int(k) >= len(d.gramSets) || d.gramSets[k] != n || k < d.gramOff[id] || k >= d.gramOff[id+1] {
				t.Fatalf("gram %d: link %d names entry %d, which does not hold the gram there", n, k, id)
			}
			got = append(got, id)
			walked++
		}
		slices.Reverse(got)
		if !slices.Equal(got, want[n]) {
			t.Fatalf("gram %d: chain lists entries %v newest last, the gram sets %v", n, got, want[n])
		}
	}
	if walked != len(d.gramSets) {
		t.Fatalf("the chains walk %d occurrences of %d", walked, len(d.gramSets))
	}
}

// internConcurrently prepares every record of corpus into d from each of n
// goroutines at once and returns what each prepared.
func internConcurrently(calc *Calculator, d *SegDict, corpus [][]string, n int) [][]*PreparedRecord {
	prepared := make([][]*PreparedRecord, n)
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
	return prepared
}

// TestSegDictGramChains holds the occurrence chains to the gram sets
// (checkGramChains) after sequential interns, after concurrent ones — while
// a reader adopts probes against the growing dictionary and runs the eager
// row pass over the chains it captured, every row of which must equal
// MSimData — and at the dictionary's cap, where a refused text adds no
// occurrence.
func TestSegDictGramChains(t *testing.T) {
	gen := datagen.New(datagen.MEDLike(300, 29))
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = 2
	calc := NewCalculator(ctx)
	var corpus, probes [][]string
	for k, raw := range gen.Collection(308) {
		if k < 300 {
			corpus = append(corpus, strutil.Tokenize(raw))
		} else {
			probes = append(probes, strutil.Tokenize(raw))
		}
	}
	t.Run("sequential", func(t *testing.T) {
		d := NewSegDict()
		for _, toks := range corpus {
			calc.PrepareIn(d, toks)
		}
		checkGramChains(t, d)
	})
	t.Run("concurrent", func(t *testing.T) {
		d := NewSegDict()
		stop := make(chan struct{})
		var reads sync.WaitGroup
		reads.Add(1)
		go func() {
			defer reads.Done()
			sc := NewScratch()
			for k := 0; ; k++ {
				if k > 0 {
					select {
					case <-stop:
						return
					default:
					}
				}
				pt := calc.PrepareProbe(d, probes[k%len(probes)])
				sc.adoptRows(calc.Ctx, d, pt)
				calc.fillRows(sc, pt)
				for id := range sc.rowN {
					for j, got := range cachedRow(sc, id, len(pt.Segs)) {
						if want := calc.Ctx.MSimData(sc.rowEntries[id].data, pt.Segs[j].Data); got != want {
							t.Errorf("row %d (%q) against %q: %v by the eager pass, %v by MSimData", id, sc.rowEntries[id].data.Text, pt.Segs[j].Data.Text, got, want)
							return
						}
					}
				}
			}
		}()
		internConcurrently(calc, d, corpus, 4)
		close(stop)
		reads.Wait()
		checkGramChains(t, d)
	})
	t.Run("at cap", func(t *testing.T) {
		d := NewSegDict()
		d.limit = 200
		refused := 0
		for _, toks := range corpus {
			for _, sg := range calc.Segmenter().Segments(toks) {
				occs := len(d.occs)
				if id, _ := d.intern(ctx, sg.Tokens); id == NoSegID {
					refused++
					if len(d.occs) != occs {
						t.Fatalf("%q: refused at the cap, yet the chains grew from %d to %d occurrences", sg.Tokens, occs, len(d.occs))
					}
				}
			}
		}
		if refused == 0 || d.Len() != d.limit {
			t.Fatalf("%d texts refused, dictionary length %d at limit %d", refused, d.Len(), d.limit)
		}
		checkGramChains(t, d)
	})
}

// TestSegDictConcurrentIntern interns one corpus from several goroutines at
// once — a parallel index build, or inserts beside each other — and checks
// the dictionary stayed a bijection: IDs dense, one per distinct text, and
// every record of a text sharing the one derivation table; and that the gram
// numbering and the occurrence chains interleaved with it did too
// (checkGramTable, checkGramChains).
func TestSegDictConcurrentIntern(t *testing.T) {
	calc := NewCalculator(paperContext())
	corpus := corpusTokens(rand.New(rand.NewSource(23)), 200)
	d := NewSegDict()
	prepared := internConcurrently(calc, d, corpus, 4)
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
	checkGramChains(t, d)
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
// entries intern writes, over records with rule sides, taxonomy nodes and
// empty tokens; each bit must occur.
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
	d := NewSegDict()
	for _, toks := range corpus {
		calc.PrepareIn(d, toks)
	}
	check(d, "interned")
}

// TestSegDictChainTableHeap pins the live heap the occurrence chains add to
// the dictionary of a 10 000-title index (the titles workloads' shape, q =
// 5) to 8 B an occurrence and 4 B a numbered gram: what dropping the links
// frees, plus what the gram map holds beyond a map of the same grams to
// their numbers alone — the chain heads live in it.
func TestSegDictChainTableHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("heap readings are only meaningful without -race; skipped with -short")
	}
	gen := datagen.New(titlesShape(10000))
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = 5
	calc, d := NewCalculator(ctx), NewSegDict()
	for _, raw := range gen.Collection(10000) {
		calc.PrepareIn(d, strutil.Tokenize(raw))
	}
	occs, grams := len(d.occs), len(d.gramNum)
	freed := func(drop func()) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		drop()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return int64(before.HeapAlloc) - int64(after.HeapAlloc)
	}
	numbers := make(map[string]uint32) // the gram map without the heads
	for g, r := range d.gramNum {
		numbers[g] = r.num
	}
	links := freed(func() { d.occs = nil })
	heads := freed(func() { d.gramNum = nil }) - freed(func() { numbers = nil })
	need := int64(8*occs + 4*grams)
	t.Logf("%d entries, %d occurrences of %d grams: the links keep %d B alive, the heads %d B; 8 B an occurrence and 4 B a gram is %d B", d.Len(), occs, grams, links, heads, need)
	if links+heads > need {
		t.Errorf("the occurrence chains keep %d B alive: more than 8 B an occurrence and 4 B a gram (%d B)", links+heads, need)
	}
	runtime.KeepAlive(d)
}

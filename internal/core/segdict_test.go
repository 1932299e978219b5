package core

import (
	"math/rand"
	"sync"
	"testing"
)

// TestSegDictConcurrentIntern interns one corpus from several goroutines at
// once — a parallel index build, or inserts beside each other — and checks
// the dictionary stayed a bijection: IDs dense, one per distinct text, and
// every record of a text sharing the one derivation table.
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
				if sg.Data != d.entries[sg.ID] {
					t.Fatalf("segment %q does not share the dictionary's table", sg.Data.Text)
				}
			}
		}
	}
	if len(byID) != d.Len() {
		t.Fatalf("%d IDs in use, dictionary length %d", len(byID), d.Len())
	}
}

package core_test

import (
	"slices"
	"testing"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// TestProbeTableAtCap signs probes through the probe table of a dictionary
// whose cap was lowered to half the texts of its records: the texts past the
// cap have no entry, so their probe segments — whose keys the order knows,
// from the records that hold them privately — sign by key beside those the
// table signs. Every method's signature at every τ must be the key path's.
func TestProbeTableAtCap(t *testing.T) {
	gen := datagen.New(datagen.MEDLike(400, 7))
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = 2
	calc, g := core.NewCalculator(ctx), pebble.NewGenerator(ctx)
	raws := gen.Collection(400)
	full := core.NewSegDict()
	for _, raw := range raws {
		calc.PrepareIn(full, strutil.Tokenize(raw))
	}
	indexed := map[string]bool{}
	for v, id := full.View(), 0; id < v.Len(); id++ {
		data, _, _ := v.Entry(uint32(id))
		indexed[data.Text] = true
	}
	d, order := core.NewSegDict(), pebble.NewOrder()
	core.SetSegDictLimit(d, full.Len()/2)
	for _, raw := range raws {
		order.Add(g.AppendPebbles(nil, calc.PrepareIn(d, strutil.Tokenize(raw))))
	}
	sel := pebble.NewSelector(g, order, 0.8)
	tab := g.KeyIDs(d, order).ProbeTable()
	var signer pebble.Signer
	signer.Bind(sel, tab)
	var held, past int
	for k, raw := range raws {
		if k%2 == 1 {
			raw, _ = gen.Variant(raw)
		}
		pr := calc.PrepareProbe(d, strutil.Tokenize(raw))
		for i, sg := range pr.Segs {
			if tab.Holds(sg.ID()) {
				held++
			} else if sg.ID() == core.NoSegID && indexed[pr.Table(i).Text] {
				past++
			}
		}
		for _, m := range []pebble.Method{pebble.UFilter, pebble.AUHeuristic, pebble.AUDP} {
			for _, tau := range []int{1, 2, 3, 6, 12} {
				var want []uint32
				for _, p := range sel.RecordSignature(pr, m, tau).Pebbles {
					want = append(want, p.ID)
				}
				if got := signer.Sign(pr, m, tau); !slices.Equal(got, want) {
					t.Fatalf("%q %v τ=%d: signed %v from the table, %v by key", raw, m, tau, got, want)
				}
			}
		}
	}
	if held == 0 || past == 0 {
		t.Fatalf("%d probe segments signed from the table, %d past the cap; want both", held, past)
	}
}

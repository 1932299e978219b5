package planner

import (
	"reflect"
	"strings"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// TestNewClampsTau pins the whole shim: Plan returns the build configuration,
// clamped as the build clamps it, and the signature sel.Select picks under it.
func TestNewClampsTau(t *testing.T) {
	gen := pebble.NewGenerator(sim.NewContext(synonym.NewRuleSet(), taxonomy.NewTree("T")))
	order := pebble.NewOrder()
	for _, s := range []string{"alpha beta gamma", "beta gamma delta", "gamma delta epsilon"} {
		pb, _ := gen.Pebbles(strings.Fields(s))
		order.Add(pb)
	}
	sel := pebble.NewSelector(gen, order, 0.8)
	pre := sel.Prepare(strings.Fields("alpha beta gamma delta"))
	for _, tc := range []struct {
		method  pebble.Method
		tau     int
		wantTau int
	}{
		{pebble.AUDP, 3, 3},
		{pebble.AUHeuristic, 2, 2},
		{pebble.AUDP, 0, 1},
		{pebble.UFilter, 5, 1}, // the U-Filter ignores τ at build time
	} {
		d := New(tc.method, tc.tau).Plan(sel, pre, nil, 0)
		if d.Method != tc.method || d.Tau != tc.wantTau {
			t.Errorf("New(%v, %d).Plan = (%v, τ=%d), want (%v, τ=%d)", tc.method, tc.tau, d.Method, d.Tau, tc.method, tc.wantTau)
		}
		if want := sel.Select(pre, tc.method, tc.wantTau); !reflect.DeepEqual(d.Sig, want) {
			t.Errorf("New(%v, %d).Plan signature = %v, want %v", tc.method, tc.tau, d.Sig, want)
		}
	}
}

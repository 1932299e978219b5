// Package planner is what is left of the per-query planner: the two names
// benchmark/layers.go compiles against (New at line 136, Plan at lines 137
// and 233). The engine does not import it — every request runs the one
// configuration the index was built with (ARCHITECTURE.md, "Probe-side
// configuration") — and the package goes when the benchmark drops its
// planner.plan_us metric.
package planner

import "github.com/aujoin/aujoin/internal/pebble"

// Planner is the build configuration of an index, nothing more.
type Planner struct {
	method pebble.Method
	tau    int
}

// Decision is Plan's result; benchmark/layers.go:236 reads Method and Tau.
type Decision struct {
	Method pebble.Method
	Tau    int
	Sig    pebble.Signature
}

// New returns the planner of an index built with the given method and τ,
// clamped as the build clamps it: τ ≥ 1, and the U-Filter fixes τ at 1.
// Kept for benchmark/layers.go:136.
func New(method pebble.Method, tau int) *Planner {
	if tau < 1 || method == pebble.UFilter {
		tau = 1
	}
	return &Planner{method: method, tau: tau}
}

// Plan returns the build configuration and the probe signature selected
// under it. The posting-length reader and the record count are the former
// cost model's inputs; they stay in the signature for benchmark/layers.go:137
// and :233 and are not read.
func (p *Planner) Plan(sel *pebble.Selector, pre pebble.Presig, _ func(uint32) int, _ int) Decision {
	return Decision{Method: p.method, Tau: p.tau, Sig: sel.Select(pre, p.method, p.tau)}
}

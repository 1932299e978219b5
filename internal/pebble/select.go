package pebble

import (
	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/sim"
)

// Method identifies a signature-selection algorithm.
type Method int

const (
	// UFilter is Algorithm 2: prefix signatures with a ≥ 1 overlap
	// guarantee (equivalent to AUHeuristic with τ = 1).
	UFilter Method = iota
	// AUHeuristic is Algorithm 4: the top-(τ−1)-heaviest slack bound.
	AUHeuristic
	// AUDP is Algorithm 5: the dynamic-programming slack bound.
	AUDP
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case UFilter:
		return "U-Filter"
	case AUHeuristic:
		return "AU-Filter (heuristics)"
	case AUDP:
		return "AU-Filter (DP)"
	default:
		return "unknown"
	}
}

// Signature is the selected pebble prefix of one string: a prefix of the
// Presig's globally ordered pebble list (the complete list, the segment count
// and MP(S) stay on the Presig — nothing downstream of selection reads them).
type Signature struct {
	Pebbles []Pebble
}

// Len returns the signature length in pebbles.
func (s Signature) Len() int { return len(s.Pebbles) }

// Selector generates signatures for strings given a generator, a global
// order, and a join threshold θ. It is safe for concurrent use.
type Selector struct {
	Gen   *Generator
	Order *Order
	Theta float64
}

// NewSelector creates a Selector. The order is finalized (interned) so that
// concurrent Signature calls only ever read it.
func NewSelector(gen *Generator, order *Order, theta float64) *Selector {
	order.Finalize()
	return &Selector{Gen: gen, Order: order, Theta: theta}
}

// Presig is the τ-independent part of signature computation: the interned,
// globally sorted pebble list of one string plus its accumulated-similarity
// table. Preparing once and selecting for several τ values is how the
// parameter estimator re-derives signatures without regenerating or
// re-sorting pebbles.
type Presig struct {
	// Pebbles is the complete pebble list, interned and sorted by the
	// global order.
	Pebbles []Pebble
	// NumSegments is the number of well-defined segments the pebbles were
	// generated from (their Segment fields index below it).
	NumSegments int
	// MinPartition is MP(S), the lower bound on the partition size.
	MinPartition int

	acc *AccTable
}

// Prepare is PrepareRecord for a bare token sequence: the record is prepared
// here, without a dictionary.
func (sel *Selector) Prepare(tokens []string) Presig {
	return sel.PrepareRecord(sel.Gen.calc.Prepare(tokens))
}

// PrepareRecord generates the pebbles of a prepared record, interns and sorts
// them under the order, and computes the accumulated-similarity table; MP(S)
// is the record's own.
func (sel *Selector) PrepareRecord(pr *core.PreparedRecord) Presig {
	return sel.PrepareGenerated(sel.Gen.AppendPebbles(nil, pr), pr)
}

// PrepareGenerated is PrepareRecord over pr's already generated pebbles — an
// insert batch generates every record's before the one InternDynamic call
// that must precede the first sort. The pebbles are interned and sorted in
// place.
func (sel *Selector) PrepareGenerated(pebbles []Pebble, pr *core.PreparedRecord) Presig {
	sel.Order.Sort(pebbles)
	pre := Presig{Pebbles: pebbles, NumSegments: pr.NumSegments(), MinPartition: pr.MinPartitionSize()}
	if len(pebbles) > 0 {
		pre.acc = NewAccTable(pebbles)
	}
	return pre
}

// Select computes the signature prefix of a prepared pebble list for one
// method and overlap constraint τ (τ is ignored by UFilter, which always
// uses τ = 1).
func (sel *Selector) Select(pre Presig, method Method, tau int) Signature {
	if tau < 1 {
		tau = 1
	}
	if len(pre.Pebbles) == 0 {
		return Signature{}
	}
	target := sel.Theta * float64(pre.MinPartition)

	var cut int
	switch method {
	case UFilter:
		cut = selectPrefixHeuristic(pre.acc, target, 1)
	case AUHeuristic:
		cut = selectPrefixHeuristic(pre.acc, target, tau)
	case AUDP:
		cut = selectPrefixDP(pre.acc, pre.NumSegments, target, tau)
	default:
		cut = selectPrefixHeuristic(pre.acc, target, tau)
	}
	return Signature{Pebbles: pre.Pebbles[:cut]}
}

// Signature is RecordSignature for a bare token sequence.
func (sel *Selector) Signature(tokens []string, method Method, tau int) Signature {
	return sel.Select(sel.Prepare(tokens), method, tau)
}

// RecordSignature computes the pebble signature of a prepared record with the
// given method and overlap constraint τ.
func (sel *Selector) RecordSignature(pr *core.PreparedRecord, method Method, tau int) Signature {
	return sel.Select(sel.PrepareRecord(pr), method, tau)
}

// selectPrefixHeuristic implements Algorithms 2 and 4: find the largest
// 1-based index i such that AS(i) + TW_{τ-1}(B[1, i-1]) ≥ target and return
// i (the signature length). Returns 0 when even the whole pebble list
// cannot reach the target.
func selectPrefixHeuristic(acc *AccTable, target float64, tau int) int {
	for i := acc.Len(); i >= 1; i-- {
		bound := acc.AS(i) + acc.TopWeights(i-1, tau-1)
		if bound >= target-1e-12 {
			return i
		}
	}
	return 0
}

// selectPrefixDP implements Algorithm 5: the slack for inserting τ−1
// pebbles from the prefix is bounded per segment by the dynamic program of
// Equations (12)–(14), which is never larger than the heuristic's
// TW_{τ-1} bound, so the resulting signatures are never longer.
// t is the number of segments.
func selectPrefixDP(acc *AccTable, t int, target float64, tau int) int {
	// W[p][d] (flat, row p at w[p*tau:]) and the accessory row V are
	// allocated once and reused across prefix positions; per-iteration
	// allocations here used to dominate the whole signature phase.
	w := make([]float64, (t+1)*tau)
	v := make([]float64, tau)

	for i := acc.Len(); i >= 1; i-- {
		if acc.AS(i) >= target-1e-12 {
			return i
		}
		// W[p][d]: maximal similarity increment achievable by inserting d
		// pebbles of the first p segments from B[1, i-1].
		for k := range w {
			w[k] = 0
		}
		reached := false
		for p := 1; p <= t && !reached; p++ {
			segIdx := p - 1
			prev, row := w[(p-1)*tau:p*tau], w[p*tau:(p+1)*tau]
			// Accessory table row V[p][c] per Eq. (13)-(14); V[p][0] = 0.
			// The suffix weight of each measure's group is the same for
			// every c, so it is computed once per (i, P) rather than once
			// per R(P, i, c) evaluation.
			var sfx [numMeasures]float64
			for mi, f := range dpMeasures {
				sfx[mi] = acc.SuffixWeightGroup(i, segIdx, f)
			}
			r0 := 0.0
			for _, s := range sfx {
				if s > r0 {
					r0 = s
				}
			}
			for c := 1; c < tau; c++ {
				best := 0.0
				for mi, f := range dpMeasures {
					val := sfx[mi] + acc.TopWeightsGroup(i-1, c, segIdx, f)
					if val > best {
						best = val
					}
				}
				v[c] = best - r0
			}
			for d := 1; d < tau; d++ {
				best := 0.0
				for c := 0; c <= d; c++ {
					cand := prev[d-c] + v[c]
					if cand > best {
						best = cand
					}
				}
				row[d] = best
				if acc.AS(i)+row[d] >= target-1e-12 {
					reached = true
					break
				}
			}
			// Carry forward d = 0 (always 0) implicitly; also make sure
			// W[p][d] is monotone in p by taking the previous row when the
			// current segment adds nothing.
			for d := 1; d < tau; d++ {
				if prev[d] > row[d] {
					row[d] = prev[d]
				}
			}
		}
		if reached {
			return i
		}
		// Check the completed table too (covers tau == 1, where the inner
		// loops never run).
		if acc.AS(i)+w[t*tau+tau-1] >= target-1e-12 {
			return i
		}
	}
	return 0
}

// dpMeasures enumerates the measures R(P, i, c) of Eq. (14) maximizes over.
var dpMeasures = [numMeasures]sim.Measure{sim.Jaccard, sim.Synonym, sim.Taxonomy}

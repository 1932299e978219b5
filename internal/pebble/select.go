package pebble

import "github.com/aujoin/aujoin/internal/core"

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

// IDs returns the signature's IDs — one interned ID per signature pebble,
// duplicates retained, matching the posting-list semantics the overlap count
// relies on — as an exact-size copy, which holds nothing of the complete
// pebble list the signature is a prefix of.
func (s Signature) IDs() []uint32 {
	ids := make([]uint32, len(s.Pebbles))
	for i := range s.Pebbles {
		ids[i] = s.Pebbles[i].ID
	}
	return ids
}

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
// is the record's own. Every pebble is generated and interned by key: the
// reference the probe-table path (PrepareProbe) is held to.
func (sel *Selector) PrepareRecord(pr *core.PreparedRecord) Presig {
	pebbles := sel.Gen.AppendPebbles(nil, pr)
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
		cut = selectPrefixHeuristic(pre.acc, target-1e-12, 1)
	case AUHeuristic:
		cut = selectPrefixHeuristic(pre.acc, target-1e-12, tau)
	case AUDP:
		cut = selectPrefixDP(pre.acc, pre.NumSegments, target, tau)
	default:
		cut = selectPrefixHeuristic(pre.acc, target-1e-12, tau)
	}
	return Signature{Pebbles: pre.Pebbles[:cut]}
}

// Signature is RecordSignature for a bare token sequence.
func (sel *Selector) Signature(tokens []string, method Method, tau int) Signature {
	return sel.Select(sel.Prepare(tokens), method, tau)
}

// RecordSignature computes the pebble signature of a prepared record with the
// given method and overlap constraint τ, every pebble by key: the reference
// a record signed through a ProbeTable (Signer) is held to.
func (sel *Selector) RecordSignature(pr *core.PreparedRecord, method Method, tau int) Signature {
	return sel.Select(sel.PrepareRecord(pr), method, tau)
}

// selectPrefixHeuristic implements Algorithms 2 and 4: find the largest
// 1-based index i such that AS(i) + TW_{τ-1}(B[1, i-1]) ≥ floor and return
// i (the signature length). Select's floor is target − 1e-12. Returns 0 when
// even the whole pebble list cannot reach the floor.
func selectPrefixHeuristic(acc *AccTable, floor float64, tau int) int {
	for i := acc.Len(); i >= 1; i-- {
		if acc.AS(i)+acc.TopWeights(i-1, tau-1) >= floor {
			return i
		}
	}
	return 0
}

// selectPrefixDP implements Algorithm 5: the slack for inserting τ−1
// pebbles from the prefix is bounded per segment by the dynamic program of
// Equations (12)–(14), which is never larger than the heuristic's
// TW_{τ-1} bound, so the resulting signatures are never longer (in exact
// arithmetic: as computed, see dpFloor).
// t is the number of segments. Every group term of Eq. (14) is read from the
// record's group tables (groupTable), at the group's running count of
// pebbles inside the prefix. The tables are readied (AccTable.beginDP)
// unless the walk's first position already reaches the target with its AS
// alone, or there is no such position; such a list never fills them.
//
// The walk starts at the heuristic's cut under dpFloor, below which the DP's
// own test fails at every position, so the cut is the one a walk from Len
// finds.
func selectPrefixDP(acc *AccTable, t int, target float64, tau int) int {
	start := selectPrefixHeuristic(acc, dpFloor(target, tau), tau)
	if start == 0 || acc.AS(start) >= target-1e-12 {
		return start
	}
	// Only rows W[p−1] and W[p] of W[p][d] are live at a time; they and the
	// accessory row V take 3τ floats, on the stack for the τ anyone uses.
	var buf [3 * 16]float64
	rows := buf[:]
	if 3*tau > len(rows) {
		rows = make([]float64, 3*tau)
	}
	prev, row, v := rows[:tau], rows[tau:2*tau], rows[2*tau:3*tau]
	acc.beginDP()
	// The positions past start leave the prefix unvisited.
	for _, p := range acc.pebbles[start:] {
		acc.groups[groupOf(p)].q--
	}
	for i := start; i >= 1; i-- {
		as := acc.AS(i)
		if as >= target-1e-12 {
			return i
		}
		// Position i leaves the prefix B[1, i−1].
		acc.groups[groupOf(acc.pebbles[i-1])].q--
		// W[p][d]: maximal similarity increment achievable by inserting d
		// pebbles of the first p segments from B[1, i-1]. W[0] is all zero,
		// and so is column 0 of every row (never written).
		clear(prev)
		reached := false
		for segIdx := 0; segIdx < t && !reached; segIdx++ {
			// Accessory table row V[p][c] per Eq. (13)-(14); V[p][0] = 0.
			// The suffix weight of each measure's group is the same for
			// every c, so it is read once per (i, P).
			var groups [numMeasures]*groupTable
			var sfx [numMeasures]float64
			if g := segIdx * numMeasures; g < len(acc.groups) {
				for mi := range groups {
					groups[mi] = &acc.groups[g+mi]
					sfx[mi] = acc.suffix(groups[mi])
				}
			}
			r0 := 0.0
			for _, s := range sfx {
				if s > r0 {
					r0 = s
				}
			}
			for c := 1; c < tau; c++ {
				best := 0.0
				for mi, g := range groups {
					val := sfx[mi]
					if g != nil {
						val += acc.topWeights(g, int32(c))
					}
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
				if as+row[d] >= target-1e-12 {
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
			prev, row = row, prev
		}
		if reached {
			return i
		}
		// Check the completed table too (covers tau == 1, where the inner
		// loops never run).
		if as+prev[tau-1] >= target-1e-12 {
			return i
		}
	}
	return 0
}

// dpFloor is the heuristic's floor target − 1e-12 lowered by 8τu·target
// (u = 2⁻⁵³, the unit roundoff): at a position whose heuristic bound misses
// it, the DP's bound misses target − 1e-12, so selectPrefixDP may skip it.
// At position i let A be the stored AS(i), H = A ⊕ TW_{τ−1}(B[1, i−1]) the
// heuristic's computed bound and D = A ⊕ W[p][d] any bound the DP tests
// (d ≤ τ−1).
//   - Exactly, W[p][d] ≤ TW_{τ−1}(B[1, i−1]): segment P adds
//     max_f(sfx_f + TW_c(f)) − max_f sfx_f ≤ TW_c of one of its groups, the
//     groups are disjoint, and the c add up to at most τ−1.
//   - Computed, a sum of k ≤ τ−1 non-negative terms is off by a factor in
//     (1±u)^(k−1), and each V[c] gains at most u(1+u)·max_f sfx_f more;
//     over the segments those suffix maxima sum to at most 1.01·A on a list
//     of n pebbles with 3n·u < 0.01, since the suffix tables and AS's
//     accumulation each round at most n + 1 times. With A ≤ H,
//     D ≤ (1+u)^(2τ−1)/(1−u)^(τ−1)·H + 1.02u·A ≤ (1 + 4τu)·H.
//   - The floor is f = fl(fl(target − 1e-12) − 8τu·target), and
//     (1 + 4τu)·f ≤ fl(target − 1e-12) whenever f > 0: half of 8τu·target
//     covers 4τu·f ≤ 4τu·target, and the rest the rounding of f itself.
//
// So a position whose H misses f (then f > H ≥ 0) has
// D < fl(target − 1e-12): the DP's test fails there, and skipping it leaves
// every cut bit-identical.
func dpFloor(target float64, tau int) float64 {
	return target - 1e-12 - float64(tau)*0x1p-50*target
}

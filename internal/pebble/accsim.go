package pebble

import (
	"sort"

	"github.com/aujoin/aujoin/internal/sim"
)

// numMeasures is the number of similarity measures pebbles can carry
// (sim.Jaccard, sim.Synonym, sim.Taxonomy); group IDs are
// segment*numMeasures + measure.
const numMeasures = 3

// AccTable holds the accumulated-similarity suffix sums of a sorted pebble
// list: AS(i) for every 1-based position i, where
//
//	AS(i, S) = Σ_P max_f W(B_{P,f}[i, n])          (Definition 4)
//
// i.e. the maximal similarity the pebbles from position i to the end could
// still contribute, assuming every one of them also occurs in the partner
// string.
//
// An AccTable is not safe for concurrent use: the top-weight queries share
// one scratch buffer so that the signature-selection loops allocate nothing
// per iteration.
type AccTable struct {
	pebbles []Pebble
	// as[i] = AS(i+1) in the 1-based notation of the paper, for i in [0, n);
	// as[n] = 0.
	as []float64
	// scratch backs the weight lists of TopWeightsGroup.
	scratch []float64
	// groupPos[g] lists the positions (ascending) of group g's pebbles,
	// g = segment*numMeasures + measure. The selection DP queries one group
	// at a time for every (position, segment) cell; indexing by group keeps
	// those queries proportional to the group's size instead of rescanning
	// the whole pebble list per cell.
	groupPos [][]int32
	// topPrefix[c] caches TW_c(B[1, p]) for every prefix length p, built
	// lazily on the first TopWeights call with that c (selection runs with
	// one τ at a time; the estimator asks for a handful).
	topPrefix map[int][]float64
}

// NewAccTable computes the accumulated-similarity table of a pebble list
// already sorted by the global order.
func NewAccTable(sorted []Pebble) *AccTable {
	n := len(sorted)
	t := &AccTable{pebbles: sorted, as: make([]float64, n+1)}

	maxSeg := -1
	for i := range sorted {
		if sorted[i].Segment > maxSeg {
			maxSeg = sorted[i].Segment
		}
	}
	nGroups := (maxSeg + 1) * numMeasures

	// Suffix accumulation of Definition 4, right to left: whenever a group's
	// running sum overtakes its segment's best measure, AS grows by the
	// difference.
	sums := make([]float64, nGroups+maxSeg+1) // one allocation for both
	groupSum, segMax := sums[:nGroups], sums[nGroups:]
	counts := make([]int32, nGroups)
	total := 0.0
	for i := n - 1; i >= 0; i-- {
		p := sorted[i]
		g := p.Segment*numMeasures + int(p.Measure)
		groupSum[g] += p.Weight
		if groupSum[g] > segMax[p.Segment] {
			total += groupSum[g] - segMax[p.Segment]
			segMax[p.Segment] = groupSum[g]
		}
		t.as[i] = total
		counts[g]++
	}

	// Bucket the positions of each group, ascending, into one shared arena.
	arena := make([]int32, n)
	t.groupPos = make([][]int32, nGroups)
	off := int32(0)
	for g, c := range counts {
		t.groupPos[g] = arena[off : off : off+c]
		off += c
	}
	for i := range sorted {
		g := sorted[i].Segment*numMeasures + int(sorted[i].Measure)
		t.groupPos[g] = append(t.groupPos[g], int32(i))
	}
	return t
}

// Len returns the number of pebbles.
func (t *AccTable) Len() int { return len(t.pebbles) }

// AS returns AS(i, S) for a 1-based position i in [1, n+1]; AS(n+1) = 0
// (an empty suffix contributes nothing).
func (t *AccTable) AS(i int) float64 {
	if i < 1 {
		i = 1
	}
	if i > len(t.pebbles) {
		return 0
	}
	return t.as[i-1]
}

// Total returns AS(1): the maximal similarity contribution of all pebbles.
func (t *AccTable) Total() float64 { return t.AS(1) }

// TopWeights returns the sum of the c heaviest pebble weights among the
// first `prefix` pebbles (1-based count), i.e. TW_c(B[1, prefix]) of Eq. (8).
// The per-prefix sums are precomputed per c, so the heuristic's scan over
// candidate cut positions pays O(1) per position instead of re-selecting
// the top weights of each prefix.
func (t *AccTable) TopWeights(prefix, c int) float64 {
	if c <= 0 || prefix <= 0 {
		return 0
	}
	if prefix > len(t.pebbles) {
		prefix = len(t.pebbles)
	}
	row, ok := t.topPrefix[c]
	if !ok {
		row = t.buildTopPrefix(c)
		if t.topPrefix == nil {
			t.topPrefix = make(map[int][]float64, 2)
		}
		t.topPrefix[c] = row
	}
	return row[prefix]
}

// buildTopPrefix computes TW_c(B[1, p]) for every p in [0, n], maintaining
// a descending top-c window over one left-to-right sweep. Each prefix sum
// adds the window's values largest-first — the same addition order as a
// per-prefix selection sort, so the cached sums are bit-identical to the
// scan they replace.
func (t *AccTable) buildTopPrefix(c int) []float64 {
	n := len(t.pebbles)
	row := make([]float64, n+1)
	top := make([]float64, 0, c)
	for p := 1; p <= n; p++ {
		w := t.pebbles[p-1].Weight
		if len(top) < c {
			top = append(top, w)
			for j := len(top) - 1; j > 0 && top[j] > top[j-1]; j-- {
				top[j], top[j-1] = top[j-1], top[j]
			}
		} else if w > top[c-1] {
			top[c-1] = w
			for j := c - 1; j > 0 && top[j] > top[j-1]; j-- {
				top[j], top[j-1] = top[j-1], top[j]
			}
		}
		s := 0.0
		for _, v := range top {
			s += v
		}
		row[p] = s
	}
	return row
}

// TopWeightsGroup returns TW_c over the first `prefix` pebbles restricted to
// one (segment, measure) group — the quantity the DP's accessory table
// needs (Eq. 14, second term).
func (t *AccTable) TopWeightsGroup(prefix, c, segment int, measure sim.Measure) float64 {
	if c <= 0 || prefix <= 0 {
		return 0
	}
	if prefix > len(t.pebbles) {
		prefix = len(t.pebbles)
	}
	g := segment*numMeasures + int(measure)
	if g < 0 || g >= len(t.groupPos) {
		return 0
	}
	weights := t.scratch[:0]
	for _, idx := range t.groupPos[g] {
		if int(idx) >= prefix {
			break
		}
		weights = append(weights, t.pebbles[idx].Weight)
	}
	t.scratch = weights
	return sumTopK(weights, c)
}

// SuffixWeightGroup returns W(B_{P,f}[i, n]) for a 1-based position i: the
// total weight of the group's pebbles from position i to the end (Eq. 14,
// first term).
func (t *AccTable) SuffixWeightGroup(i, segment int, measure sim.Measure) float64 {
	if i < 1 {
		i = 1
	}
	g := segment*numMeasures + int(measure)
	if g < 0 || g >= len(t.groupPos) {
		return 0
	}
	pos := t.groupPos[g]
	start := int32(i - 1)
	lo := sort.Search(len(pos), func(k int) bool { return pos[k] >= start })
	total := 0.0
	for _, idx := range pos[lo:] {
		total += t.pebbles[idx].Weight
	}
	return total
}

// sumTopK returns the sum of the k largest values (all values if k ≥ len),
// reordering values in the process.
func sumTopK(values []float64, k int) float64 {
	if k >= len(values) {
		total := 0.0
		for _, v := range values {
			total += v
		}
		return total
	}
	// In-place partial selection sort: k is tiny (τ−1), values are few
	// dozen, and the caller's buffer is scratch anyway.
	total := 0.0
	for picked := 0; picked < k; picked++ {
		bestIdx := picked
		for i := picked + 1; i < len(values); i++ {
			if values[i] > values[bestIdx] {
				bestIdx = i
			}
		}
		values[picked], values[bestIdx] = values[bestIdx], values[picked]
		total += values[picked]
	}
	return total
}

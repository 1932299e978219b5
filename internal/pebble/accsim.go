package pebble

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
// string — and, per (segment, measure) group, the tables the selection DP
// reads its cells from (groupTable). All of its numbers live in one float
// arena, allocated once by NewAccTable.
//
// An AccTable is not safe for concurrent use: the heuristic's top-weight row
// is rebuilt in place for the c it is asked for, and the DP keeps its running
// in-prefix counts in the group tables, so that the signature-selection loops
// allocate nothing.
type AccTable struct {
	pebbles []Pebble
	// as[i] = AS(i+1) in the 1-based notation of the paper, for i in [0, n);
	// as[n] = 0.
	as []float64
	// top[p] is TW_topC(B[1, p]) for every prefix length p in [0, n], for
	// the c = topC last asked for (0: none yet).
	top  []float64
	topC int
	// groups[g] locates group g's DP table in tab.
	groups []groupTable
	tab    []float64
}

// groupTable is one (segment, measure) group's part of the selection DP: its
// m pebbles sit at ascending positions of the list, with weights w_0 … w_{m−1}
// in that order, and q of them lie inside the prefix the DP is at (the
// running count, reset to m when a selection starts). The DP asks for the
// group's suffix weight W(B_{P,f}[i, n]) — the pebbles from position i on,
// which are w_q … w_{m−1} — and for TW_c of the q inside, in every (position,
// segment) cell. Both are read from tables built once a record, each entry
// summed in the order a direct sum over the group's pebbles takes, so every
// value is bit-identical to that sum:
//
//   - prefix[q], at tab[off+q] for q in [0, m], is w_0 + … + w_{q−1} added
//     left to right: TW_c for q ≤ c (every pebble counts, in position order).
//   - suffix[q], at tab[off+m+1+q], is w_q + … + w_{m−1} added left to right.
//   - tri(q, c), at tab[off+2(m+1)+(q−1)(q−2)/2+c−1] for 1 ≤ c < q, is the c
//     largest of w_0 … w_{q−1} added largest first: TW_c for q > c.
//
// A uniform group — all weights equal, as in every gram and every taxonomy
// group — keeps prefix only: adding k copies of one weight left to right is
// prefix[k] whichever k copies they are, so suffix[q] = prefix[m−q] and
// tri(q, c) = prefix[c]. Only synonym groups of rules with different
// closeness pay for suffix and tri.
type groupTable struct {
	off, m, q int32
	uniform   bool
}

// NewAccTable computes the accumulated-similarity table of a pebble list
// already sorted by the global order.
func NewAccTable(sorted []Pebble) *AccTable {
	n := len(sorted)
	maxSeg := -1
	for i := range sorted {
		maxSeg = max(maxSeg, sorted[i].Segment)
	}
	nGroups := (maxSeg + 1) * numMeasures
	t := &AccTable{pebbles: sorted, groups: make([]groupTable, nGroups)}

	// Count each group and see whether its weights are uniform, parking the
	// position of the group's first pebble in off meanwhile.
	for i := range sorted {
		g := &t.groups[groupOf(sorted[i])]
		if g.m == 0 {
			g.off, g.uniform = int32(i), true
		} else if sorted[g.off].Weight != sorted[i].Weight {
			g.uniform = false
		}
		g.m++
	}
	size := 2*(n+1) + nGroups + maxSeg + 1
	for gi := range t.groups {
		g := &t.groups[gi]
		g.off = int32(size)
		if g.m == 0 {
			g.uniform = true
		}
		m := int(g.m)
		size += m + 1
		if !g.uniform {
			size += m + 1 + m*(m-1)/2
		}
	}
	arena := make([]float64, size)
	t.as, t.top = arena[:n+1], arena[n+1:2*(n+1)]
	t.tab = arena

	// Suffix accumulation of Definition 4, right to left: whenever a group's
	// running sum overtakes its segment's best measure, AS grows by the
	// difference.
	sums := arena[2*(n+1) : 2*(n+1)+nGroups+maxSeg+1]
	groupSum, segMax := sums[:nGroups], sums[nGroups:]
	total := 0.0
	for i := n - 1; i >= 0; i-- {
		p := sorted[i]
		g := groupOf(p)
		groupSum[g] += p.Weight
		if groupSum[g] > segMax[p.Segment] {
			total += groupSum[g] - segMax[p.Segment]
			segMax[p.Segment] = groupSum[g]
		}
		t.as[i] = total
	}

	// The prefix tables, left to right; a non-uniform group's weights are
	// parked in its suffix table until the pass is done. q counts each
	// group's pebbles so far and ends at m, where a selection starts.
	for i := range sorted {
		g := &t.groups[groupOf(sorted[i])]
		w := sorted[i].Weight
		t.tab[g.off+g.q+1] = t.tab[g.off+g.q] + w
		if !g.uniform {
			t.tab[g.off+g.m+1+g.q] = w
		}
		g.q++
	}
	for gi := range t.groups {
		if g := &t.groups[gi]; !g.uniform {
			t.fillSuffixAndTop(g)
		}
	}
	return t
}

// groupOf returns the group ID of a pebble.
func groupOf(p Pebble) int { return p.Segment*numMeasures + int(p.Measure) }

// fillSuffixAndTop builds a non-uniform group's tri and suffix tables from
// the weights parked in its suffix table.
func (t *AccTable) fillSuffixAndTop(g *groupTable) {
	m := int(g.m)
	w := t.tab[int(g.off)+m+1 : int(g.off)+2*(m+1)]
	tri := t.tab[int(g.off)+2*(m+1):]
	// tri row q (q ≥ 2) is the running sums of the q weights so far, largest
	// first, kept sorted by insertion.
	var buf [16]float64
	desc := buf[:0]
	for q := 1; q <= m; q++ {
		v := w[q-1]
		at := len(desc)
		desc = append(desc, v)
		for ; at > 0 && desc[at-1] < v; at-- {
			desc[at] = desc[at-1]
		}
		desc[at] = v
		row := tri[(q-1)*(q-2)/2:]
		s := 0.0
		for c := 1; c < q; c++ {
			s += desc[c-1]
			row[c-1] = s
		}
	}
	// suffix[q] needs w_q … w_{m−1}, which the writes to suffix[0 … q−1]
	// have not touched; suffix[m] stays 0.
	for q := 0; q < m; q++ {
		s := 0.0
		for _, v := range w[q:m] {
			s += v
		}
		w[q] = s
	}
	w[m] = 0
}

// suffix returns the group's W(B_{P,f}[i, n]) with g.q of its pebbles inside
// the prefix B[1, i−1].
func (t *AccTable) suffix(g *groupTable) float64 {
	if g.uniform {
		return t.tab[g.off+g.m-g.q]
	}
	return t.tab[g.off+g.m+1+g.q]
}

// topWeights returns TW_c of the group's g.q pebbles inside the prefix.
func (t *AccTable) topWeights(g *groupTable, c int32) float64 {
	switch {
	case g.q <= c:
		return t.tab[g.off+g.q]
	case g.uniform:
		return t.tab[g.off+c]
	}
	return t.tab[g.off+2*(g.m+1)+(g.q-1)*(g.q-2)/2+c-1]
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
// The per-prefix sums are precomputed for the c last asked for, so the
// heuristic's scan over candidate cut positions pays O(1) per position
// instead of re-selecting the top weights of each prefix.
func (t *AccTable) TopWeights(prefix, c int) float64 {
	if c <= 0 || prefix <= 0 {
		return 0
	}
	if prefix > len(t.pebbles) {
		prefix = len(t.pebbles)
	}
	if t.topC != c {
		t.buildTopPrefix(c)
		t.topC = c
	}
	return t.top[prefix]
}

// buildTopPrefix computes TW_c(B[1, p]) for every p in [1, n] into top,
// maintaining a descending top-c window over one left-to-right sweep. Each
// prefix sum adds the window's values largest-first — the same addition
// order as a per-prefix selection sort, so the cached sums are bit-identical
// to the scan they replace.
func (t *AccTable) buildTopPrefix(c int) {
	var buf [16]float64
	top := buf[:0]
	for p := 1; p <= len(t.pebbles); p++ {
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
		t.top[p] = s
	}
}

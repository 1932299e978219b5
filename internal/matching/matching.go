// Package matching implements maximum-weight bipartite matching, the
// building block of Eq. (6) in the paper: the numerator of SIM(P_S, P_T) is
// the maximum-weight matching of the segment bipartite graph, which the
// paper computes with the Hungarian algorithm.
//
// The solver works on dense weight matrices (rows = segments of S, columns
// = segments of T). Weights must be non-negative; missing edges are encoded
// as weight 0 and never decrease the optimum because leaving a vertex
// unmatched contributes exactly 0.
package matching

import (
	"math"

	"github.com/aujoin/aujoin/internal/strutil"
)

// epsilon guards floating-point comparisons inside the Hungarian algorithm.
const epsilon = 1e-12

// Assignment describes one matched pair of the optimal matching.
type Assignment struct {
	Row, Col int
	Weight   float64
}

// Result is the outcome of a maximum-weight matching computation.
type Result struct {
	// Total is the sum of matched edge weights.
	Total float64
	// Pairs lists the matched (row, col) pairs with non-zero weight.
	Pairs []Assignment
	// RowMatch[i] is the column matched to row i, or -1.
	RowMatch []int
	// ColMatch[j] is the row matched to column j, or -1.
	ColMatch []int
}

// MaxWeight computes a maximum-weight bipartite matching of the given
// weight matrix using the Jonker–Volgenant style O(n^3) Hungarian algorithm
// (the same asymptotics as [38] in the paper). weights[i][j] is the weight
// of matching row i with column j; all rows must have equal length.
//
// Negative weights are treated as 0 (an unmatched pair is always at least
// as good), so the returned Total is always ≥ 0.
func MaxWeight(weights [][]float64) Result {
	n := len(weights)
	m := 0
	if n > 0 {
		m = len(weights[0])
	}
	res := Result{
		RowMatch: make([]int, n),
		ColMatch: make([]int, m),
	}
	for i := range res.RowMatch {
		res.RowMatch[i] = -1
	}
	for j := range res.ColMatch {
		res.ColMatch[j] = -1
	}
	if n == 0 || m == 0 {
		return res
	}

	flat := make([]float64, n*m)
	for i := 0; i < n; i++ {
		copy(flat[i*m:(i+1)*m], weights[i])
	}
	var sc Scratch
	rowSol := sc.solve(flat, n, m)

	for i := 0; i < n; i++ {
		j := rowSol[i]
		if j < 0 || j >= m {
			continue
		}
		w := weights[i][j]
		if w <= epsilon {
			continue // matched to a padding / zero edge: treat as unmatched
		}
		res.RowMatch[i] = j
		res.ColMatch[j] = i
		res.Total += w
		res.Pairs = append(res.Pairs, Assignment{Row: i, Col: j, Weight: w})
	}
	return res
}

// Scratch holds the reusable buffers of the allocation-free matching solver
// used by the join verification hot path. A Scratch may be reused across any
// number of Total calls but must not be shared between goroutines. MaxWeight
// runs on a throwaway Scratch, so both entry points share one solver and
// return bit-identical totals for the same weights.
type Scratch struct {
	cost   []float64
	u, v   []float64
	p, way []int
	minv   []float64
	used   []bool
	rowSol []int
}

// Total computes the total weight of a maximum-weight bipartite matching of
// the n×m weight matrix given in row-major order, reusing the scratch
// buffers.
func (sc *Scratch) Total(weights []float64, n, m int) float64 {
	if n == 0 || m == 0 {
		return 0
	}
	rowSol := sc.solve(weights, n, m)
	total := 0.0
	for i := 0; i < n; i++ {
		j := rowSol[i]
		if j < 0 || j >= m {
			continue
		}
		w := weights[i*m+j]
		if w <= epsilon {
			continue // matched to a padding / zero edge: treat as unmatched
		}
		total += w
	}
	return total
}

// solve converts the max-weight problem to a square min-cost assignment —
// negating against the maximum weight and padding to square with
// zero-benefit cells — and returns the assigned column for every row.
func (sc *Scratch) solve(weights []float64, n, m int) []int {
	size := n
	if m > size {
		size = m
	}
	maxW := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if w := weights[i*m+j]; w > maxW {
				maxW = w
			}
		}
	}
	sc.cost = strutil.Resize(sc.cost, size*size)
	for i := 0; i < size; i++ {
		for j := 0; j < size; j++ {
			w := 0.0
			if i < n && j < m && weights[i*m+j] > 0 {
				w = weights[i*m+j]
			}
			sc.cost[i*size+j] = maxW - w
		}
	}
	return sc.hungarianMinFlat(size)
}

// hungarianMinFlat solves the square min-cost assignment problem over the
// flat cost matrix held in the scratch using the classic shortest
// augmenting path formulation with potentials (u, v), reusing the scratch
// buffers.
func (sc *Scratch) hungarianMinFlat(n int) []int {
	const inf = math.MaxFloat64
	sc.u = strutil.Resize(sc.u, n+1)
	sc.v = strutil.Resize(sc.v, n+1)
	sc.p = strutil.Resize(sc.p, n+1)
	sc.way = strutil.Resize(sc.way, n+1)
	sc.minv = strutil.Resize(sc.minv, n+1)
	sc.used = strutil.Resize(sc.used, n+1)
	u, v, p, way := sc.u, sc.v, sc.p, sc.way
	for j := 0; j <= n; j++ {
		u[j], v[j], p[j], way[j] = 0, 0, 0, 0
	}
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv, used := sc.minv, sc.used
		for j := 0; j <= n; j++ {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := -1
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := sc.cost[(i0-1)*n+(j-1)] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	sc.rowSol = strutil.Resize(sc.rowSol, n)
	for i := range sc.rowSol {
		sc.rowSol[i] = -1
	}
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			sc.rowSol[p[j]-1] = j - 1
		}
	}
	return sc.rowSol
}

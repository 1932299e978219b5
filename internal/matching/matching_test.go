package matching

import (
	"math"
	"math/rand"
	"testing"
)

// bruteForce enumerates all injective row→column assignments and returns the
// maximum total weight; exponential, only for tiny instances.
func bruteForce(weights [][]float64) float64 {
	n := len(weights)
	if n == 0 {
		return 0
	}
	m := len(weights[0])
	usedCol := make([]bool, m)
	var rec func(row int) float64
	rec = func(row int) float64 {
		if row == n {
			return 0
		}
		// Option: leave this row unmatched.
		best := rec(row + 1)
		for j := 0; j < m; j++ {
			if usedCol[j] || weights[row][j] <= 0 {
				continue
			}
			usedCol[j] = true
			v := weights[row][j] + rec(row+1)
			usedCol[j] = false
			if v > best {
				best = v
			}
		}
		return best
	}
	return rec(0)
}

func TestMaxWeightSimpleCases(t *testing.T) {
	tests := []struct {
		name    string
		weights [][]float64
		want    float64
	}{
		{"empty", nil, 0},
		{"one cell", [][]float64{{0.5}}, 0.5},
		{"zero cell", [][]float64{{0}}, 0},
		{"diagonal best", [][]float64{{1, 0}, {0, 1}}, 2},
		{"anti diagonal", [][]float64{{0, 1}, {1, 0}}, 2},
		{"conflict", [][]float64{{1, 0.9}, {0.95, 0}}, 1.85},
		{"rect rows>cols", [][]float64{{0.3}, {0.7}, {0.5}}, 0.7},
		{"rect cols>rows", [][]float64{{0.3, 0.7, 0.5}}, 0.7},
		{"paper figure1", [][]float64{
			// segments of S: coffee shop, latte, helsingki
			// segments of T: espresso, cafe, helsinki
			{0, 1, 0},     // coffee shop: synonym with cafe
			{0.8, 0, 0},   // latte: taxonomy with espresso
			{0, 0, 0.875}, // helsingki: jaccard with helsinki
		}, 2.675},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := MaxWeight(tt.weights)
			if math.Abs(got.Total-tt.want) > 1e-9 {
				t.Errorf("Total = %v, want %v", got.Total, tt.want)
			}
		})
	}
}

func TestMaxWeightMatchingIsValid(t *testing.T) {
	w := [][]float64{
		{0.9, 0.2, 0.0, 0.4},
		{0.8, 0.9, 0.1, 0.0},
		{0.0, 0.7, 0.6, 0.3},
	}
	res := MaxWeight(w)
	// Every row/col matched at most once, pairs consistent.
	seenCol := map[int]bool{}
	sum := 0.0
	for _, p := range res.Pairs {
		if seenCol[p.Col] {
			t.Fatalf("column %d matched twice", p.Col)
		}
		seenCol[p.Col] = true
		if res.RowMatch[p.Row] != p.Col || res.ColMatch[p.Col] != p.Row {
			t.Fatalf("inconsistent match arrays for pair %+v", p)
		}
		if math.Abs(w[p.Row][p.Col]-p.Weight) > 1e-12 {
			t.Fatalf("pair weight mismatch: %+v", p)
		}
		sum += p.Weight
	}
	if math.Abs(sum-res.Total) > 1e-9 {
		t.Errorf("sum of pairs %v != Total %v", sum, res.Total)
	}
}

func TestMaxWeightAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, m)
			for j := range w[i] {
				if rng.Float64() < 0.3 {
					continue // sparse zero entries
				}
				w[i][j] = math.Round(rng.Float64()*1000) / 1000
			}
		}
		got := MaxWeight(w).Total
		want := bruteForce(w)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("trial %d: MaxWeight = %v, brute force = %v, weights %v", trial, got, want, w)
		}
	}
}

func TestMaxWeightNegativeTreatedAsZero(t *testing.T) {
	w := [][]float64{{-1, 0.5}, {0.3, -2}}
	res := MaxWeight(w)
	if math.Abs(res.Total-0.8) > 1e-9 {
		t.Errorf("Total = %v, want 0.8", res.Total)
	}
	for _, p := range res.Pairs {
		if p.Weight <= 0 {
			t.Errorf("negative edge selected: %+v", p)
		}
	}
}

func TestEmptyDimensions(t *testing.T) {
	res := MaxWeight([][]float64{})
	if res.Total != 0 || len(res.Pairs) != 0 {
		t.Errorf("empty matrix result = %+v", res)
	}
	res = MaxWeight([][]float64{{}, {}})
	if res.Total != 0 {
		t.Errorf("zero-column result = %+v", res)
	}
}

// TestScratchTotalMatchesMaxWeight pins the bit-identity contract between
// the allocation-free flat solver and MaxWeight on random rectangular
// matrices of every small shape, reusing one scratch throughout.
func TestScratchTotalMatchesMaxWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var sc Scratch
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(7)
		m := 1 + rng.Intn(7)
		w := make([][]float64, n)
		flat := make([]float64, n*m)
		for i := range w {
			w[i] = make([]float64, m)
			for j := range w[i] {
				v := rng.Float64()
				switch rng.Intn(4) {
				case 0:
					v = 0 // sparse edges
				case 1:
					v = -v // negative weights are treated as 0
				}
				w[i][j] = v
				flat[i*m+j] = v
			}
		}
		want := MaxWeight(w).Total
		if got := sc.Total(flat, n, m); got != want {
			t.Fatalf("trial %d (%dx%d): Scratch.Total = %v, MaxWeight.Total = %v", trial, n, m, got, want)
		}
	}
	if sc.Total(nil, 0, 3) != 0 || sc.Total(nil, 3, 0) != 0 {
		t.Error("empty dimensions should yield 0")
	}
}

func BenchmarkMaxWeight10x10(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	w := make([][]float64, 10)
	for i := range w {
		w[i] = make([]float64, 10)
		for j := range w[i] {
			w[i][j] = rng.Float64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxWeight(w)
	}
}

package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// metric is one reported value with its unit, in the shape of the result
// line's "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// put records a metric under a declared name; the unit comes from the
// declaration so the printed unit cannot drift from BENCHMARK.json.
func (m metricSet) put(decls []metricDecl, name string, v float64) {
	for _, d := range decls {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			m[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// minTailSamples is how many samples must lie beyond a percentile for it to
// be reported (choosing-metrics guide, section 1).
const minTailSamples = 10

// tailPercentile is the tail a latency distribution of n samples supports:
// the 95th percentile when at least minTailSamples lie beyond it (n ≥ 200),
// else the median again (join_med's five ops; the 150 requests of
// lookup_med's open-loop phase).
func tailPercentile(n int) float64 {
	if float64(n)*0.05 >= minTailSamples {
		return 95
	}
	return 50
}

// minAcross folds per-pass latencies into the per-op minimum: a burst of
// outside load slows some ops of some passes, and the minimum keeps, for each
// op, the pass that was not disturbed.
func minAcross(passes [][]float64) []float64 {
	out := append([]float64(nil), passes[0]...)
	for _, p := range passes[1:] {
		for i, v := range p {
			out[i] = min(out[i], v)
		}
	}
	return out
}

// passStretches is how many stretches fastestPass cuts the op list into.
const passStretches = 20

// fastestPass is the time of the fastest pass, taken a stretch of the op
// list at a time: for each twentieth of the list, the pass that got through
// it fastest. One pass takes longer than the machine's slow spells are apart,
// so a whole pass is rarely undisturbed; a stretch of a pass is short enough
// to be, and still long enough (tens of ops) to keep what the engine itself
// does every so many ops: collections, planner exploration.
func fastestPass(passes [][]float64) float64 {
	n := len(passes[0])
	stretches := min(n, passStretches)
	total := 0.0
	for k := 0; k < stretches; k++ {
		best := math.Inf(1)
		for _, p := range passes {
			sum := 0.0
			for _, v := range p[k*n/stretches : (k+1)*n/stretches] {
				sum += v
			}
			best = min(best, sum)
		}
		total += best
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// reading is one timing of the reference kernel: its three parts, in ms.
type reading [3]float64

func (r reading) total() float64 { return r[0] + r[1] + r[2] }

// The reference kernel is fixed work of the three kinds a neighbour on the
// shared host slows: arithmetic (a splitmix64 chain), hashing into a table
// that fits the caches (a map of 20 000 keys) and dependent loads across
// 8 MiB. Measured beside lookups on a disturbed sandbox, the arithmetic part
// alone follows their slowdown at a correlation of 0.5-0.8 over 2.5 s
// windows, the geometric mean of the three at 0.91-0.95 (README, "The noise
// protocol").
var kernel struct {
	keys  []int
	table map[int]int
	next  []int32
	sink  uint64
	// heapMiB is what the kernel's own tables hold of the heap;
	// index_heap_mb leaves it out.
	heapMiB float64
}

func init() {
	before := heapMiB()
	defer func() { kernel.heapMiB = heapMiB() - before }()
	rng := rand.New(rand.NewSource(20190811))
	kernel.keys = make([]int, 20000)
	kernel.table = make(map[int]int, len(kernel.keys))
	for i := range kernel.keys {
		kernel.keys[i] = rng.Intn(1 << 30)
		kernel.table[kernel.keys[i]] = i
	}
	kernel.next = make([]int32, 1<<21)
	perm := rng.Perm(len(kernel.next))
	for i, at := range perm {
		kernel.next[at] = int32(perm[(i+1)%len(perm)])
	}
}

// calibrate times the reference kernel once, about 5 ms.
func calibrate() reading {
	var r reading
	start := time.Now()
	x, acc := uint64(0x9E3779B97F4A7C15), uint64(0)
	for i := 0; i < 2_000_000; i++ {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		acc ^= z ^ (z >> 31)
	}
	r[0] = ms(time.Since(start))
	start = time.Now()
	for round := 0; round < 4; round++ {
		for _, k := range kernel.keys {
			acc += uint64(kernel.table[k])
		}
	}
	r[1] = ms(time.Since(start))
	start = time.Now()
	at := int32(0)
	for i := 0; i < 12000; i++ {
		at = kernel.next[at]
	}
	r[2] = ms(time.Since(start))
	kernel.sink = acc + uint64(at)
	return r
}

// nominal is the kernel's median reading inside a run on the sandbox the
// benchmark was sized on, in a quiet hour. It only fixes the scale: on
// another processor every timing is off by one constant factor, the same for
// a change and its parent.
var nominal = reading{2.2, 1.0, 2.4}

// slowdown is how much slower than nominal the machine ran while the
// readings were taken: the geometric mean, over the kernel's three parts, of
// the part's median reading over its nominal one. The median, because one
// reading in twenty lands on an interrupt or a collection and reads double.
func slowdown(rs []reading) float64 {
	logSum := 0.0
	part := make([]float64, len(rs))
	for k := range nominal {
		for i, r := range rs {
			part[i] = r[k]
		}
		sort.Float64s(part)
		median := (part[(len(part)-1)/2] + part[len(part)/2]) / 2
		logSum += math.Log(median / nominal[k])
	}
	return math.Exp(logSum / float64(len(nominal)))
}

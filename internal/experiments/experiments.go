// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section 5). Every runner works on synthetic MED-like
// and WIKI-like datasets produced by internal/datagen (whose package comment
// gives the dataset substitution rationale; cmd/benchrun lists the
// experiment identifiers), returns a structured result, and renders a
// plain-text table whose rows mirror the paper's artefact.
//
// The runners are shared by cmd/benchrun (full-size runs) and by the
// repository-level benchmarks in bench_test.go (scaled-down runs).
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// Config controls the scale of every experiment.
type Config struct {
	// MEDSize and WIKISize are the record counts of the two synthetic
	// datasets (the paper uses 293K and 3.5M; the defaults here are sized
	// for a laptop).
	MEDSize  int
	WIKISize int
	// Seed drives all dataset generation and sampling.
	Seed int64
	// Thetas is the join-threshold grid used by the time experiments.
	Thetas []float64
	// Taus is the overlap-constraint grid.
	Taus []int
	// Workers bounds verification parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultConfig returns the scale used by cmd/benchrun.
func DefaultConfig() Config {
	return Config{
		MEDSize:  2000,
		WIKISize: 4000,
		Seed:     1,
		Thetas:   []float64{0.75, 0.80, 0.85, 0.90, 0.95},
		Taus:     []int{1, 2, 3, 4, 5},
	}
}

// QuickConfig returns a small configuration suitable for unit tests and
// the testing.B benchmarks.
func QuickConfig() Config {
	return Config{
		MEDSize:  220,
		WIKISize: 300,
		Seed:     1,
		Thetas:   []float64{0.75, 0.85, 0.95},
		Taus:     []int{1, 2, 3},
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MEDSize <= 0 {
		c.MEDSize = d.MEDSize
	}
	if c.WIKISize <= 0 {
		c.WIKISize = d.WIKISize
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if len(c.Thetas) == 0 {
		c.Thetas = d.Thetas
	}
	if len(c.Taus) == 0 {
		c.Taus = d.Taus
	}
	return c
}

// Workload bundles a generated dataset with the joiner and labels the
// effectiveness experiments need.
type Workload struct {
	Dataset *datagen.Dataset
	Joiner  *join.Joiner
	// Labels holds the ground-truth labels: the generated variant pairs as
	// positives plus an equal number of sampled negatives.
	Labels map[[2]int]bool
}

// Context returns the workload's similarity context.
func (w *Workload) Context() *sim.Context { return w.Dataset.Context() }

// BuildWorkloads generates the MED-like and WIKI-like workloads.
func BuildWorkloads(cfg Config) []*Workload {
	cfg = cfg.withDefaults()
	med := datagen.New(datagen.MEDLike(cfg.MEDSize, cfg.Seed)).Generate()
	wiki := datagen.New(datagen.WIKILike(cfg.WIKISize, cfg.Seed+1)).Generate()
	return []*Workload{newWorkload(med), newWorkload(wiki)}
}

func newWorkload(ds *datagen.Dataset) *Workload {
	w := &Workload{Dataset: ds, Joiner: join.NewJoiner(ds.Context()), Labels: map[[2]int]bool{}}
	for pair := range ds.Truth {
		w.Labels[pair] = true
	}
	// Sample deterministic negatives: shifted pairings that are not in the
	// ground truth.
	n := len(ds.T)
	added := 0
	for pair := range ds.Truth {
		if added >= len(ds.Truth) {
			break
		}
		neg := [2]int{pair[0], (pair[1] + n/2 + 1) % n}
		if _, ok := ds.Truth[neg]; ok {
			continue
		}
		if _, ok := w.Labels[neg]; ok {
			continue
		}
		w.Labels[neg] = false
		added++
	}
	return w
}

// measureCombos is the measure grid of Tables 8 and Figure 6 in the
// paper's order (T, J, S, TJ, JS, TS, TJS reads differently per table; we
// use the Table 8 row order).
var measureCombos = []sim.MeasureSet{
	sim.SetJaccard,
	sim.SetTaxonomy,
	sim.SetSynonym,
	sim.SetTaxonomy | sim.SetJaccard,
	sim.SetTaxonomy | sim.SetSynonym,
	sim.SetJaccard | sim.SetSynonym,
	sim.SetAll,
}

// pairsToSlice converts join results into metric-friendly index pairs.
func pairsToSlice(pairs []join.Pair) [][2]int {
	out := make([][2]int, len(pairs))
	for i, p := range pairs {
		out[i] = [2]int{p.S, p.T}
	}
	return out
}

// table is a tiny plain-text table builder shared by the runners.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func fi(v int) string     { return fmt.Sprintf("%d", v) }

// subset returns the first n records of a collection (or all of them).
func subset(recs []strutil.Record, n int) []strutil.Record {
	if n >= len(recs) {
		return recs
	}
	return recs[:n]
}

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys[K int | float64, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// defaultOptions returns the join options the experiments use unless a
// specific method/τ is under study.
func defaultOptions(theta float64, tau int, method pebble.Method, workers int) join.Options {
	return join.Options{Theta: theta, Tau: tau, Method: method, Workers: workers}
}

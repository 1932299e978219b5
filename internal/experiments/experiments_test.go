package experiments

import (
	"strings"
	"testing"

	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// tinyConfig keeps unit-test runtime low; the full-size runs live in
// cmd/benchrun and bench_test.go. Under -short the datasets shrink further
// so the whole package finishes in seconds (every shape assertion below is
// size-independent; only statistical trends need the larger corpora).
func tinyConfig() Config {
	cfg := Config{
		MEDSize:  60,
		WIKISize: 70,
		Seed:     3,
		Thetas:   []float64{0.85, 0.9},
		Taus:     []int{1, 2, 3},
	}
	if testing.Short() {
		cfg.MEDSize = 30
		cfg.WIKISize = 36
	}
	return cfg
}

func TestBuildWorkloads(t *testing.T) {
	ws := BuildWorkloads(tinyConfig())
	if len(ws) != 2 {
		t.Fatalf("workloads = %d, want 2", len(ws))
	}
	for _, w := range ws {
		if len(w.Dataset.S) == 0 || len(w.Dataset.T) == 0 {
			t.Fatal("empty collections")
		}
		if len(w.Labels) <= len(w.Dataset.Truth) {
			t.Error("labels should include negatives beyond the positive truth pairs")
		}
		positives, negatives := 0, 0
		for _, v := range w.Labels {
			if v {
				positives++
			} else {
				negatives++
			}
		}
		if positives == 0 || negatives == 0 {
			t.Errorf("labels unbalanced: %d positive, %d negative", positives, negatives)
		}
		if w.Context() == nil || w.Joiner == nil {
			t.Error("workload not wired")
		}
	}
}

func TestRunTable8ShapeAndWinner(t *testing.T) {
	res := RunTable8(tinyConfig(), []float64{0.8})
	// 2 datasets × 1 θ × 7 measure combos.
	if len(res.Cells) != 14 {
		t.Fatalf("cells = %d, want 14", len(res.Cells))
	}
	out := res.String()
	if !strings.Contains(out, "TJS") || !strings.Contains(out, "MED-like") {
		t.Errorf("rendered table missing expected labels:\n%s", out)
	}
	// The unified TJS measure should achieve the best (or tied-best)
	// F-measure on every dataset — the paper's headline effectiveness claim.
	tjs := map[string]float64{}
	best := map[string]float64{}
	for _, c := range res.Cells {
		key := c.Dataset
		if c.Scores.F1 > best[key] {
			best[key] = c.Scores.F1
		}
		if c.Label == "TJS" {
			tjs[key] = c.Scores.F1
		}
	}
	for ds, b := range best {
		if tjs[ds] < b-1e-9 {
			t.Errorf("%s: TJS F1 %.3f below best %.3f", ds, tjs[ds], b)
		}
	}
	if len(res.BestByF()) == 0 {
		t.Error("BestByF empty")
	}
}

func TestRunTable13Shape(t *testing.T) {
	res := RunTable13(tinyConfig(), []float64{0.8})
	// 2 datasets × 1 θ × (4 baselines + ours).
	if len(res.Cells) != 10 {
		t.Fatalf("cells = %d, want 10", len(res.Cells))
	}
	for key, ok := range res.OursBeatsCombination() {
		if !ok {
			t.Errorf("%s: unified join F1 below the Combination baseline", key)
		}
	}
	if !strings.Contains(res.String(), "Combination") {
		t.Error("rendered table missing Combination row")
	}
}

func TestRunTable9Shape(t *testing.T) {
	cfg := tinyConfig()
	res := RunTable9(cfg, []int{3, 4}, 20)
	if len(res.Rows) != 4 { // 2 datasets × 2 k values
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Pairs == 0 {
			t.Errorf("row %+v evaluated no pairs", row)
		}
		if len(row.Percentiles) != 5 {
			t.Fatalf("row has %d percentiles", len(row.Percentiles))
		}
		for i, p := range row.Percentiles {
			if p < 0 || p > 1+1e-9 {
				t.Errorf("percentile out of range: %v", p)
			}
			if i > 0 && p < row.Percentiles[i-1]-1e-9 {
				t.Errorf("percentiles not monotone: %v", row.Percentiles)
			}
		}
		// The median accuracy should be clearly better than the worst-case
		// bound — the paper's observation that Algorithm 1 is near-optimal
		// in practice.
		if row.Percentiles[2] < 0.5 {
			t.Errorf("median accuracy %.2f unexpectedly low for k=%d", row.Percentiles[2], row.K)
		}
	}
	if len(res.MedianByK()) != 4 {
		t.Error("MedianByK size mismatch")
	}
	if !strings.Contains(res.String(), "Table 9") {
		t.Error("missing title")
	}
}

func TestRunFig3AndFig5Trends(t *testing.T) {
	cfg := tinyConfig()
	fig3 := RunFig3(cfg)
	if len(fig3.Points) != len(cfg.Thetas)*len(cfg.Taus) {
		t.Fatalf("fig3 points = %d", len(fig3.Points))
	}
	// Signature length must not shrink as τ grows, results must be
	// identical across τ, and candidates must not keep growing once τ ≥ 2
	// (the Figure 3 trade-off; between τ=1 and τ=2 the longer signatures
	// can transiently add a few candidates under per-occurrence overlap
	// counting, see pebble.Signature.IDs).
	for _, theta := range cfg.Thetas {
		var prev *TauSweepPoint
		for i := range fig3.Points {
			p := fig3.Points[i]
			if p.Theta != theta {
				continue
			}
			if prev != nil {
				if p.AvgSignature < prev.AvgSignature-1e-9 {
					t.Errorf("θ=%v: signature length decreased from %.2f to %.2f as τ grew",
						theta, prev.AvgSignature, p.AvgSignature)
				}
				if prev.Tau >= 2 && float64(p.Candidates) > float64(prev.Candidates)*1.1+5 {
					t.Errorf("θ=%v: candidates grew from %d (τ=%d) to %d (τ=%d)",
						theta, prev.Candidates, prev.Tau, p.Candidates, p.Tau)
				}
				if p.Results != prev.Results {
					t.Errorf("θ=%v: result count changed with τ (%d vs %d) — filters must not change results",
						theta, prev.Results, p.Results)
				}
			}
			prev = &fig3.Points[i]
		}
	}
	if !strings.Contains(fig3.String(), "Figure 3") {
		t.Error("fig3 title missing")
	}

	fig5 := RunFig5(cfg, 0.85)
	if len(fig5.Points) == 0 {
		t.Fatal("fig5 empty")
	}
	if !strings.Contains(fig5.String(), "Figure 5") {
		t.Error("fig5 title missing")
	}
}

func TestRunFig4Fig6Fig7Shapes(t *testing.T) {
	cfg := tinyConfig()
	cfg.Thetas = []float64{0.85}
	fig4 := RunFig4(cfg, 2)
	if len(fig4.Points) != 2*1*3 {
		t.Fatalf("fig4 points = %d", len(fig4.Points))
	}
	// All three methods return the same number of results for the same
	// dataset and θ (they only differ in filtering).
	results := map[string]map[string]int{}
	for _, p := range fig4.Points {
		if results[p.Dataset] == nil {
			results[p.Dataset] = map[string]int{}
		}
		results[p.Dataset][p.Label] = p.Results
	}
	for ds, byMethod := range results {
		var vals []int
		for _, v := range byMethod {
			vals = append(vals, v)
		}
		for _, v := range vals {
			if v != vals[0] {
				t.Errorf("%s: methods disagree on result counts: %v", ds, byMethod)
				break
			}
		}
	}
	if len(fig4.MeanTimeByLabel()) != 3 {
		t.Error("MeanTimeByLabel size")
	}

	fig6 := RunFig6(cfg, 2)
	if len(fig6.Points) != 2*7 {
		t.Fatalf("fig6 points = %d", len(fig6.Points))
	}

	fig7 := RunFig7(cfg, []int{cfg.MEDSize / 2, cfg.MEDSize}, 0.85, 2)
	if len(fig7.Points) == 0 {
		t.Fatal("fig7 empty")
	}
	// Larger inputs must never produce fewer candidates for the same method.
	byMethod := map[string][]JoinTimePoint{}
	for _, p := range fig7.Points {
		key := p.Dataset + "/" + p.Label
		byMethod[key] = append(byMethod[key], p)
	}
	for key, pts := range byMethod {
		for i := 1; i < len(pts); i++ {
			if pts[i].Size > pts[i-1].Size && pts[i].Results < pts[i-1].Results {
				t.Errorf("%s: results shrank when size grew (%d→%d)", key, pts[i-1].Results, pts[i].Results)
			}
		}
	}
	if !strings.Contains(fig7.String(), "Table 10") {
		t.Error("fig7 title missing")
	}
}

func TestRunParameterExperiments(t *testing.T) {
	cfg := tinyConfig()
	cfg.Thetas = []float64{0.85}
	cfg.Taus = []int{1, 2, 3}

	t11 := RunTable11(cfg)
	if len(t11.Rows) != 2 {
		t.Fatalf("table 11 rows = %d", len(t11.Rows))
	}
	for _, row := range t11.Rows {
		if row.SuggestedTau < 1 {
			t.Errorf("bad suggested τ: %+v", row)
		}
		if row.WorstTime < row.SuggestedTime/4 {
			t.Errorf("worst τ time %v implausibly below suggested %v", row.WorstTime, row.SuggestedTime)
		}
	}
	if !strings.Contains(t11.String(), "Table 11") {
		t.Error("table 11 title")
	}

	t12 := RunTable12(cfg, 3)
	if len(t12.Rows) != 2 {
		t.Fatalf("table 12 rows = %d", len(t12.Rows))
	}
	for _, row := range t12.Rows {
		if row.Accuracy < 0 || row.Accuracy > 1 {
			t.Errorf("accuracy out of range: %+v", row)
		}
		if row.TimeFraction < 0 || row.TimeFraction > 1 {
			t.Errorf("time fraction out of range: %+v", row)
		}
	}

	fig8 := RunFig8(cfg, []float64{0.1, 0.3})
	if len(fig8.Points) != 4 {
		t.Fatalf("fig8 points = %d", len(fig8.Points))
	}
	for _, p := range fig8.Points {
		if p.Iterations < 1 {
			t.Errorf("iterations = %d", p.Iterations)
		}
	}
	if !strings.Contains(fig8.String(), "Figure 8") {
		t.Error("fig8 title")
	}
}

func TestRunTable14Shape(t *testing.T) {
	cfg := tinyConfig()
	cfg.Thetas = []float64{0.85}
	res := RunTable14(cfg, 2)
	// 2 datasets × 1 θ × 4 groups × 2 rows (baseline + ours).
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(res.Rows))
	}
	if !strings.Contains(res.String(), "Table 14") {
		t.Error("title missing")
	}
}

func TestConfigDefaultsAndTableRendering(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MEDSize == 0 || len(cfg.Thetas) == 0 || len(cfg.Taus) == 0 {
		t.Error("defaults not applied")
	}
	if QuickConfig().MEDSize <= 0 {
		t.Error("quick config broken")
	}
	tb := newTable("a", "bb")
	tb.addRow("1", "2")
	out := tb.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "--") {
		t.Errorf("table rendering broken:\n%s", out)
	}
	if fi(3) != "3" || f2(1.5) != "1.50" || f3(0.1234) != "0.123" {
		t.Error("format helpers broken")
	}
	if got := subset(strutil.NewCollection([]string{"a b", "c d"}), 1); len(got) != 1 {
		t.Errorf("subset = %v", got)
	}
	keys := sortedKeys(map[int]string{3: "c", 1: "a"})
	if len(keys) != 2 || keys[0] != 1 {
		t.Errorf("sortedKeys = %v", keys)
	}
	_ = pebble.UFilter
}

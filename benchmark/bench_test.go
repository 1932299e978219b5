package main

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/aujoin/aujoin/internal/join"
)

// smokeOptions shrinks every workload to 1/20 with one timed pass.
func smokeOptions(t *testing.T, trace int) options {
	return options{seed: 3, seconds: 1, passes: 1, scale: 0.05, trace: trace, outDir: t.TempDir()}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmoke runs all four workloads, untraced and traced, at 1/20 scale and
// checks that what is printed is what BENCHMARK.json declares: same names,
// same units, both ways, every op correct.
func TestSmoke(t *testing.T) {
	decl, err := readDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := [2]map[string]string{{}, {}}
	for _, e := range decl.EndToEnd {
		declared[0][e.Name] = e.Unit
	}
	for _, e := range decl.PerLayer {
		declared[1][e.Name] = e.Unit
	}
	var names []string
	for _, wl := range decl.Workloads {
		names = append(names, wl.Name)
	}
	var specNames []string
	for _, s := range specs {
		specNames = append(specNames, s.name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, specNames)
	}
	if decl.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %v, benchmark has %v", decl.RunSeconds, runSeconds)
	}
	start := time.Now()
	for _, s := range specs {
		for trace := 0; trace <= 1; trace++ {
			var buf bytes.Buffer
			line, err := runOne(smokeOptions(t, trace), s, &buf)
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", s.name, trace, err, buf.String())
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d\n%s", s.name, trace, line.Correct, line.Failed, line.Attempted, buf.String())
			}
			printed := map[string]string{}
			for name, m := range line.Metrics {
				printed[name] = m.Unit
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q", s.name, name)
				}
				if !strings.Contains(buf.String(), name) {
					t.Errorf("%s: metric %s is in the result line but not printed by name", s.name, name)
				}
			}
			if !reflect.DeepEqual(printed, declared[trace]) {
				t.Errorf("%s trace=%d: printed metrics differ from BENCHMARK.json\nprinted  %v\ndeclared %v", s.name, trace, printed, declared[trace])
			}
			if _, err := json.Marshal(line); err != nil {
				t.Errorf("%s: result line: %v", s.name, err)
			}
		}
	}
	t.Logf("eight smoke runs took %v", time.Since(start).Round(time.Millisecond))
}

// exactCounts are the per-layer metrics that are counts made by the program
// and must repeat exactly for a seed. join.memo_hits_per_probe is not among
// them: every verify worker keeps its own msim memo, so its hits depend on
// which pairs the scheduler hands to which worker.
var exactCounts = []string{
	"join.postings_per_probe", "join.candidates_per_probe", "join.verified_per_probe",
	"join.pruned_per_probe", "join.results_per_probe", "store.wal_bytes_per_user_byte",
	"pebble.pebbles_per_record", "pebble.sig_len",
}

// TestDeterminism: the same seed gives byte-identical op lists and identical
// counts; another seed gives other ones.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"lookup_med", "churn_titles"} {
		s, _ := findSpec(name)
		s = s.scaled(0.05)
		run := func(seed int64) ([]byte, map[string]float64) {
			c, err := generate(s, seed)
			if err != nil {
				t.Fatal(err)
			}
			ops := buildOps(s, c)
			var script bytes.Buffer
			var queries []string
			for _, o := range ops {
				script.WriteString(o.kind.String() + " " + o.path + string(o.body) + "\n")
				if o.kind == opQuery {
					queries = append(queries, o.text)
				}
			}
			m := metricSet{}
			cfg := runConfig{spec: s, seed: seed, outDir: t.TempDir(), out: io.Discard}
			if _, err := layers(cfg, c, queries, nil, m); err != nil {
				t.Fatal(err)
			}
			counts := map[string]float64{}
			for _, k := range exactCounts {
				counts[k] = m[k].Value
			}
			return script.Bytes(), counts
		}
		ops1, counts1 := run(5)
		ops2, counts2 := run(5)
		ops3, counts3 := run(6)
		if !bytes.Equal(ops1, ops2) {
			t.Errorf("%s: same seed, different op lists", name)
		}
		if !reflect.DeepEqual(counts1, counts2) {
			t.Errorf("%s: same seed, different counts\n%v\n%v", name, counts1, counts2)
		}
		if bytes.Equal(ops1, ops3) || reflect.DeepEqual(counts1, counts3) {
			t.Errorf("%s: different seeds gave the same op list or counts", name)
		}
	}
}

// TestSeedsShareTheLengthMix: generate stratifies by token count, so two
// seeds draw different catalogs with the same number of records of every
// length, and a full pool each.
func TestSeedsShareTheLengthMix(t *testing.T) {
	s, _ := findSpec("lookup_med")
	s = s.scaled(0.2)
	lengths := func(records []string) map[int]int {
		h := map[int]int{}
		for _, r := range records {
			h[len(strings.Fields(r))]++
		}
		return h
	}
	var catalogs [2][]string
	for i := range catalogs {
		c, err := generate(s, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if len(c.catalog) != s.records || len(c.pool) != s.records {
			t.Fatalf("seed %d: %d catalog and %d pool records, want %d each", i+1, len(c.catalog), len(c.pool), s.records)
		}
		catalogs[i] = c.catalog
	}
	if a, b := lengths(catalogs[0]), lengths(catalogs[1]); !reflect.DeepEqual(a, b) {
		t.Errorf("length mixes differ: %v, %v", a, b)
	}
	if reflect.DeepEqual(catalogs[0], catalogs[1]) {
		t.Error("two seeds drew the same catalog")
	}
}

// TestChurnScriptRestoresLiveSet: every insert of a pass is removed in the
// same pass, after it, exactly once.
func TestChurnScriptRestoresLiveSet(t *testing.T) {
	s, _ := findSpec("churn_titles")
	s = s.scaled(0.05)
	c, err := generate(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	ops := buildOps(s, c)
	if got, want := len(ops), s.queries+2*s.inserts; got != want {
		t.Fatalf("script has %d ops, want %d", got, want)
	}
	removed := map[int]bool{}
	inserts := 0
	for i, o := range ops {
		switch o.kind {
		case opInsert:
			inserts++
		case opRemove:
			if o.ref >= i || ops[o.ref].kind != opInsert || removed[o.ref] {
				t.Fatalf("op %d removes op %d", i, o.ref)
			}
			removed[o.ref] = true
		}
	}
	if inserts != s.inserts || len(removed) != inserts {
		t.Fatalf("%d inserts, %d removed", inserts, len(removed))
	}
}

// TestSelfTime pins the span arithmetic: a span's self time is its duration
// minus the union of its children's intervals, clipped to the span.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Request: 7, Name: "request", StartNs: 100, EndNs: 200},
		{ID: 2, Parent: 1, Request: 7, Name: "a", StartNs: 110, EndNs: 150},
		{ID: 3, Parent: 1, Request: 7, Name: "b", StartNs: 140, EndNs: 170}, // overlaps a by 10
		{ID: 4, Parent: 1, Request: 7, Name: "c", StartNs: 190, EndNs: 230}, // runs past the parent
		{ID: 5, Parent: 2, Request: 7, Name: "d", StartNs: 120, EndNs: 130},
		{ID: 6, Parent: 0, Request: 8, Name: "other", StartNs: 0, EndNs: 1000},
	}
	want := map[int]int64{1: 100 - (60 + 10), 2: 40 - 10, 3: 30, 4: 40, 5: 10, 6: 1000}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	rows := rankSelf(spans, "request")
	if len(rows) != 5 || rows[0].name != "c" || rows[0].share != 0.4 {
		t.Fatalf("rankSelf rows %+v", rows)
	}
	var share float64
	for _, r := range rows {
		if r.name == "other" {
			t.Errorf("span of another root group ranked: %+v", r)
		}
		if r.name != "c" && r.name != "d" { // c overruns the parent, d is a grandchild: both are shares of the same root time
			share += r.share
		}
	}
	// request + a + b self times: 30 + 30 + 30 of a 100 ns root.
	if share < 0.899 || share > 0.901 {
		t.Errorf("shares of request, a and b sum to %v, want 0.9", share)
	}
}

// TestPassCount: the number of timed passes follows from -seconds alone.
func TestPassCount(t *testing.T) {
	for _, s := range specs {
		if got := (runConfig{spec: s, seconds: runSeconds}).timedPasses(); got != s.passes || got < minPasses {
			t.Errorf("%s: %d timed passes at the declared run length, spec says %d", s.name, got, s.passes)
		}
		if got := (runConfig{spec: s, seconds: 2.5 * runSeconds}).timedPasses(); got != int(2.5*float64(s.passes)+0.5) {
			t.Errorf("%s: %d timed passes at 2.5 times the run length", s.name, got)
		}
		if got := (runConfig{spec: s, seconds: 1}).timedPasses(); got != minPasses {
			t.Errorf("%s: %d timed passes at one second, want %d", s.name, got, minPasses)
		}
	}
}

// TestOracleArithmetic pins the pieces the churn oracle is made of: which of
// the script's inserts are live at an op, and the top-k of two answers.
func TestOracleArithmetic(t *testing.T) {
	ops := []op{{kind: opInsert}, {kind: opQuery}, {kind: opInsert}, {kind: opRemove, ref: 0}, {kind: opQuery}, {kind: opRemove, ref: 2}, {kind: opQuery}}
	for i, want := range map[int][]int{0: {}, 1: {0}, 3: {0, 2}, 4: {2}, 6: {}} {
		if got := insertsLiveAt(ops, i); !reflect.DeepEqual(got, want) {
			t.Errorf("insertsLiveAt(%d) = %v, want %v", i, got, want)
		}
	}
	base := make([]join.QueryMatch, topK)
	for i := range base {
		base[i] = join.QueryMatch{Record: i, Similarity: 1 - 0.01*float64(i)}
	}
	extra := []join.QueryMatch{{Record: 900, Similarity: 0.5}, {Record: 901, Similarity: 0.955}, {Record: 902, Similarity: 1}}
	got := mergeTopK(base, extra)
	if len(got) != topK || got[0].Record != 0 || got[1].Record != 902 || got[6].Record != 901 || got[topK-1].Record != 7 {
		t.Errorf("mergeTopK = %v", got)
	}
	if !sameMatches(mergeTopK(base, nil), base) {
		t.Error("mergeTopK with nothing to merge changed the answer")
	}
}

// TestPercentileRule pins the sample-count rule, the per-op minimum and the
// agreement arithmetic (internal/metrics pins the percentile itself).
func TestPercentileRule(t *testing.T) {
	for n, want := range map[int]float64{1: 50, 199: 50, 200: 95, 2000: 95} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	lat := [][]float64{{5, 1}, {2, 3}}
	if got := minAcross(lat); !reflect.DeepEqual(got, []float64{2, 1}) {
		t.Errorf("minAcross = %v", got)
	}
	// 40 ops in 20 stretches of two: each stretch counts at the faster pass.
	a, b := make([]float64, 40), make([]float64, 40)
	for i := range a {
		a[i], b[i] = 1, 2
	}
	b[6], b[7] = 0.25, 0.25
	if got := fastestPass([][]float64{a, b}); got != 38.5 {
		t.Errorf("fastestPass = %v, want 38.5", got)
	}
	// A machine at twice the kernel's nominal readings is twice as slow.
	twice := reading{2 * nominal[0], 2 * nominal[1], 2 * nominal[2]}
	if got := slowdown([]reading{twice, twice}); got < 1.999 || got > 2.001 {
		t.Errorf("slowdown = %v, want 2", got)
	}
	if got := worseBy(10, 11, "lower"); got < 0.099 || got > 0.101 {
		t.Errorf("worseBy lower = %v", got)
	}
	if got := worseBy(10, 9, "higher"); got < 0.099 || got > 0.101 {
		t.Errorf("worseBy higher = %v", got)
	}
}

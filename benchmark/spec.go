package main

import (
	"fmt"
	"math"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/pebble"
)

// kind selects how a workload drives the engine.
type kind int

const (
	kindNode    kind = iota // top-k lookups against one in-memory cluster.Node
	kindCluster             // top-k lookups through a coordinator + 3 workers, R=2
	kindJoin                // one pass = one whole join, one aujoin.Joiner.Join per probe-side batch
	kindChurn               // lookups, inserts and removes against a durable node
)

// spec is one workload: the corpus, the engine parameters the daemons would
// be started with, and the size of one pass. The catalogs are the sizes
// ISSUE 14 asked for; README.md has the sizing numbers and says which op
// lists and pass counts the driver's time cap shortened.
type spec struct {
	name    string
	kind    kind
	titles  bool // "titles" corpus (wide flat vocabulary, q=5) instead of MED-like
	records int  // catalog size |S| (and |T| of the generated dataset)
	q       int
	theta   float64
	tau     int
	filter  string // cmdutil.ParseFilter spelling
	shards  int
	// fixedPlan sends every lookup with plan=fixed, the request parameter
	// that pins the build-time filter and τ instead of letting the planner
	// choose per query.
	fixedPlan bool
	// queries is the number of /query ops per pass; inserts the number of
	// /insert ops (each followed later in the pass by the /remove-batch of
	// the ids it returned). A join workload has one op per probe-side batch.
	queries, inserts int
	// batches is how many equal probe-side batches a join pass hands to
	// Joiner.Join, one op each.
	batches int
	// passes is the number of timed passes at the declared run length
	// (-seconds = runSeconds); another -seconds scales it in proportion, to no
	// fewer than minPasses. It follows from the command line alone, never from
	// how fast the run happens to go.
	passes int
	// loadRPS is the fixed offered rate of the traced run's open-loop phase,
	// about a third of the closed-loop capacity measured while sizing.
	loadRPS float64
}

// runSeconds is BENCHMARK.json's run_seconds and the default of -seconds:
// about what the timed passes of one run take.
const runSeconds = 18

// procs is the GOMAXPROCS every run pins. The sandbox's vCPUs do not always
// have a processor each behind them (README, "The noise protocol"): what two
// threads get done in a second changes by up to 2x from hour to hour, what
// one thread gets done does not.
const procs = 1

const (
	topK        = 10
	insertBatch = 4 // records per /insert
	// removeLag is how many inserts later an insert's ids are removed, so a
	// pass always has a few benchmark-inserted records live.
	removeLag = 8
)

var specs = []spec{
	{name: "lookup_med", kind: kindNode, records: 4000, q: 2, theta: 0.8, tau: 2, filter: "dp", shards: 1, fixedPlan: true, queries: 200, passes: 4, loadRPS: 15},
	{name: "lookup_cluster", kind: kindCluster, titles: true, records: 10000, q: 5, theta: 0.9, tau: 12, filter: "heuristic", shards: 1, queries: 1500, passes: 5, loadRPS: 150},
	{name: "join_med", kind: kindJoin, records: 1000, q: 2, theta: 0.8, tau: 2, filter: "dp", shards: 1, batches: 5, passes: 5, loadRPS: 50},
	// A shard rebuilds when its 65th delta segment arrives, so with 2 × 65
	// inserts every pass (the warm-up included) crosses the threshold twice,
	// ends on a rebuild, and the next starts with an empty segment chain.
	{name: "churn_titles", kind: kindChurn, titles: true, records: 10000, q: 5, theta: 0.9, tau: 12, filter: "heuristic", shards: 2, queries: 1300, inserts: 130, passes: 6, loadRPS: 400},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks a workload for the smoke tests; scale 1 is the benchmark.
func (s spec) scaled(scale float64) spec {
	if scale == 1 {
		return s
	}
	shrink := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		return max(int(math.Round(float64(n)*scale)), floor)
	}
	s.records = shrink(s.records, 60)
	s.queries = shrink(s.queries, 10)
	s.inserts = shrink(s.inserts, removeLag+2)
	return s
}

// probes is how many pool records one pass of the op list consumes.
func (s spec) probes() int {
	if s.kind == kindJoin {
		return s.records
	}
	return s.queries + s.inserts*insertBatch
}

func (s spec) method() pebble.Method {
	if s.filter == "heuristic" {
		return pebble.AUHeuristic
	}
	return pebble.AUDP
}

// corpusConfig is the datagen configuration of the workload's corpus. The
// titles corpus is the one cmd/benchrun's filterscale experiment documents:
// a wide flat vocabulary and long records, which with 5-grams lets the count
// filter prune, so a query is cheap and everything around the verifier shows.
func (s spec) corpusConfig(seed int64) datagen.Config {
	c := datagen.MEDLike(universeFactor*s.records, seed)
	if s.titles {
		c.VocabSize = 10000
		c.MinTokens, c.MaxTokens = 10, 14
		c.DistinctTokens = true
		c.EntityRate, c.SynonymTermRate = 0.05, 0.05
		c.TaxonomyNodes, c.SynonymRules = 1000, 200
	}
	return c
}

// metricDecl names one reported metric and its unit; BENCHMARK.json repeats
// these declarations and a test keeps the two in step.
type metricDecl struct{ name, unit string }

var endToEndMetrics = []metricDecl{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"index_heap_mb", "MiB"},
	{"allocs_per_op", "count"},
}

var perLayerMetrics = []metricDecl{
	{"datagen.generate_s", "s"},
	{"strutil.tokenize_us", "us"},
	{"pebble.generate_us", "us"},
	{"pebble.prepare_us", "us"},
	{"pebble.select_us", "us"},
	{"pebble.order_build_s", "s"},
	{"pebble.pebbles_per_record", "count"},
	{"pebble.sig_len", "count"},
	{"planner.plan_us", "us"},
	{"planner.fallback_ratio", "1"},
	{"invindex.build_s", "s"},
	{"invindex.accumulate_us", "us"},
	{"invindex.dense_key_ratio", "1"},
	{"core.prepare_us", "us"},
	{"core.verify_us", "us"},
	{"core.similarity_us", "us"},
	{"core.bound_prune_ratio", "1"},
	{"core.cache_hit_ratio", "1"},
	{"sim.msim_us", "us"},
	{"matching.solve_us", "us"},
	{"wmis.solve_us", "us"},
	{"join.build_s", "s"},
	{"join.query_us", "us"},
	{"join.sig_us", "us"},
	{"join.filter_us", "us"},
	{"join.verify_us", "us"},
	{"join.postings_per_probe", "count"},
	{"join.candidates_per_probe", "count"},
	{"join.verified_per_probe", "count"},
	{"join.pruned_per_probe", "count"},
	{"join.memo_hits_per_probe", "count"},
	{"join.results_per_probe", "count"},
	{"join.verify_useful_ratio", "1"},
	{"join.unreachable_ratio", "1"},
	{"join.insert_us", "us"},
	{"join.remove_us", "us"},
	{"join.rebuilds", "count"},
	{"join.rebuild_pause_ms_max", "ms"},
	{"join.rebuild_pause_ms_sum", "ms"},
	{"estimator.suggest_s", "s"},
	{"estimator.suggested_tau", "count"},
	{"store.wal_append_us", "us"},
	{"store.wal_bytes_per_user_byte", "1"},
	{"store.snapshot_encode_s", "s"},
	{"store.snapshot_mb", "MiB"},
	{"store.restore_s", "s"},
	{"cmdutil.ndjson_encode_us", "us"},
	{"cmdutil.ndjson_decode_us", "us"},
	{"cluster.node_query_us", "us"},
	{"cluster.http_overhead_us", "us"},
	{"cluster.worker_query_us", "us"},
	{"cluster.coord_query_us", "us"},
	{"cluster.scatter_overhead_us", "us"},
	{"cluster.merge_ms_p50", "ms"},
	{"cluster.merge_ms_p95", "ms"},
	{"cluster.insert_us", "us"},
	{"cluster.epoch_bump_ms", "ms"},
	{"bench.calib_ms", "ms"},
	{"bench.machine_slowdown", "1"},
	{"bench.op_p95_ms", "ms"},
	{"bench.trace_overhead_ratio", "1"},
	{"bench.load_offered_rps", "1/s"},
	{"bench.load_p50_ms", "ms"},
	{"bench.load_p95_ms", "ms"},
	{"bench.load_late_ms_max", "ms"},
}

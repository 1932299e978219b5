package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/aujoin/aujoin"
	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// reference is the benchmark's own index over a catalog, built through
// internal/join, that served answers are compared against.
type reference struct {
	spec    spec
	joiner  *join.Joiner
	records []strutil.Record
	index   *join.ShardedIndex
	answers map[string][]join.QueryMatch // built, memoized per query
	sel     *pebble.Selector             // see selector
}

// oracleReport is what the answer oracle found.
type oracleReport struct {
	checked, bad int
	// matches is how many true matches (pairs the exhaustive join finds) the
	// oracle looked for in the engine's answers, and unreachable how many of
	// them the count filter cannot find by its own definition: the two
	// records' signatures share fewer than τ pebbles. The AU signatures are not
	// complete at τ > 1 (a pair that matches through one synonym rule shares
	// one pebble); that is the engine's limit as it stands, so such a pair is
	// counted and reported (join.unreachable_ratio), not failed. A true match
	// within the filter's reach that the engine does not return is a failed op.
	matches, unreachable int
}

func (a *oracleReport) add(b oracleReport) {
	a.checked += b.checked
	a.bad += b.bad
	a.matches += b.matches
	a.unreachable += b.unreachable
}

func buildReference(s spec, c *corpus, records []strutil.Record) (*reference, error) {
	jn, err := c.internalJoiner(s)
	if err != nil {
		return nil, err
	}
	return &reference{
		spec: s, joiner: jn, records: records, answers: map[string][]join.QueryMatch{},
		index: jn.BuildShardedIndex(records, s.shards, s.internalOptions(), join.DynamicOptions{}),
	}, nil
}

// selector selects signatures the way the reference index does: over the
// frequency order of its records.
func (r *reference) selector() *pebble.Selector {
	if r.sel == nil {
		r.sel = pebble.NewSelector(r.joiner.Generator(), r.joiner.BuildOrder(r.records), r.spec.theta)
	}
	return r.sel
}

// bruteSamples is how many checked lookups are also compared with the
// exhaustive join.
const bruteSamples = 20

// topKOf answers q with the probe-side configuration pinned.
func (r *reference) topKOf(q string, method pebble.Method, tau int) []join.QueryMatch {
	hits, _ := r.index.Snapshot().QueryTopKCtx(context.Background(), strutil.Tokenize(q), topK,
		join.QueryOpts{ProbeMethod: method, ProbeTau: tau})
	return hits
}

// built is the reference answer under the configuration the index was built
// with: what plan=fixed serves.
func (r *reference) built(q string) []join.QueryMatch {
	hits, ok := r.answers[q]
	if !ok {
		hits = r.topKOf(q, r.spec.method(), r.spec.tau)
		r.answers[q] = hits
	}
	return hits
}

// accepts reports whether got is an answer the engine may serve for q. With
// plan=fixed that is the built configuration's answer and nothing else. With
// the planner on, the engine answers under whichever of {U-Filter,
// AU-heuristic, AU-DP} × τ′ ≤ τ it priced cheapest, and the filters are not
// equally complete on every query, so any of those configurations' answers is
// accepted; replanned reports that the served answer was not the built
// configuration's. extra are the matches among records the reference does not
// hold (the churn script's own inserts, live when the op ran).
func (r *reference) accepts(q string, got []aujoin.QueryMatch, extra []join.QueryMatch) (ok, replanned bool) {
	if sameMatches(got, mergeTopK(r.built(q), extra)) {
		return true, false
	}
	if r.spec.fixedPlan {
		return false, false
	}
	for _, m := range []pebble.Method{pebble.UFilter, pebble.AUHeuristic, pebble.AUDP} {
		for tau := 1; tau <= r.spec.tau; tau++ {
			if sameMatches(got, mergeTopK(r.topKOf(q, m, tau), extra)) {
				return true, true
			}
		}
	}
	return false, false
}

// byRank is the engine's answer order: similarity descending, id ascending.
func byRank(m []join.QueryMatch) {
	sort.Slice(m, func(a, b int) bool {
		if m[a].Similarity != m[b].Similarity {
			return m[a].Similarity > m[b].Similarity
		}
		return m[a].Record < m[b].Record
	})
}

// mergeTopK is the top-k of two disjoint answers.
func mergeTopK(a, b []join.QueryMatch) []join.QueryMatch {
	if len(b) == 0 {
		return a
	}
	out := append(append([]join.QueryMatch{}, a...), b...)
	byRank(out)
	return out[:min(len(out), topK)]
}

func sameMatches[M join.QueryMatch | aujoin.QueryMatch](got []M, want []join.QueryMatch) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if join.QueryMatch(got[i]) != want[i] {
			return false
		}
	}
	return true
}

// bruteMatches computes every true match of each query among the reference's
// records, in the engine's answer order.
func (r *reference) bruteMatches(queries []string) [][]join.QueryMatch {
	pairs := r.joiner.BruteForce(r.records, strutil.NewCollection(queries), r.spec.theta, nil)
	out := make([][]join.QueryMatch, len(queries))
	for _, p := range pairs {
		out[p.T] = append(out[p.T], join.QueryMatch{Record: p.S, Similarity: p.Similarity})
	}
	for i := range out {
		byRank(out[i])
	}
	return out
}

// reachable keeps the matches of q whose record shares at least τ signature
// pebbles with q under the built configuration.
func (r *reference) reachable(q string, matches []join.QueryMatch) []join.QueryMatch {
	byID := map[int]strutil.Record{}
	for _, rec := range r.records {
		byID[rec.ID] = rec
	}
	var out []join.QueryMatch
	for _, m := range matches {
		if signatureOverlap(r.selector(), byID[m.Record], strutil.NewRecord(0, q), r.spec) >= r.spec.tau {
			out = append(out, m)
		}
	}
	return out
}

// verify runs the workload's answer oracle after the timed passes.
func verify(cfg runConfig, c *corpus, t *target, ops []op, passes []passResult, log []mutation) (oracleReport, error) {
	switch cfg.spec.kind {
	case kindJoin:
		return verifyJoin(cfg, c, ops, passes)
	case kindChurn:
		return verifyChurn(cfg, c, t, ops, passes, log)
	default:
		ref, err := buildReference(cfg.spec, c, strutil.NewCollection(c.catalog))
		if err != nil {
			return oracleReport{}, err
		}
		return verifyLookups(cfg.out, ref, ops, passes, nil), nil
	}
}

// verifyLookups checks every oracleEvery-th lookup's served answer, in every
// pass, against the reference index (for the cluster workload that is the
// cluster ≡ single-node property), and checks the reference itself against
// the exhaustive join on the first bruteSamples of those queries: its answer
// must be the top-k of the true matches within the filter's reach. extra,
// when not nil, returns the matches among the records a pass had inserted
// itself when the op ran.
func verifyLookups(w io.Writer, ref *reference, ops []op, passes []passResult, extra func(pass, op int) []join.QueryMatch) oracleReport {
	var rep oracleReport
	var replanned int
	var bruteQ []string
	for i := 0; i < len(ops); i += oracleEvery {
		if ops[i].kind != opQuery {
			continue
		}
		q := ops[i].text
		if len(bruteQ) < bruteSamples {
			bruteQ = append(bruteQ, q)
		}
		for p := range passes {
			got, ok := passes[p].answers[i]
			if !ok {
				continue // the op already failed in this pass
			}
			var more []join.QueryMatch
			if extra != nil {
				more = extra(p, i)
			}
			rep.checked++
			ok, re := ref.accepts(q, got, more)
			if re {
				replanned++
			}
			if !ok {
				rep.bad++
				fmt.Fprintf(w, "FAILED pass %d op %d %q: served %v, reference %v (+ %v inserted by the pass)\n", p, i, q, got, ref.built(q), more)
			}
		}
	}
	served := rep.checked
	for k, all := range ref.bruteMatches(bruteQ) {
		q := bruteQ[k]
		rep.checked++
		rep.matches += len(all)
		if sameMatches(all[:min(len(all), topK)], ref.built(q)) {
			continue
		}
		within := ref.reachable(q, all)
		rep.unreachable += len(all) - len(within)
		if !sameMatches(within[:min(len(within), topK)], ref.built(q)) {
			rep.bad++
			fmt.Fprintf(w, "FAILED brute force %q: true matches %v, within the filter's reach %v, reference %v\n", q, all, within, ref.built(q))
		}
	}
	fmt.Fprintf(w, "oracle: %d served answers compared with the reference index (%d served under another plan than the built one), %d reference answers with brute force (%d true matches, %d beyond the filter's reach at τ=%d), %d rejected\n",
		served, replanned, rep.checked-served, rep.matches, rep.unreachable, ref.spec.tau, rep.bad)
	return rep
}

// joinDigest is an order-independent checksum of a join result.
func joinDigest(matches []aujoin.Match) (n int, sum uint64) {
	for _, m := range matches {
		x := uint64(m.S)*0x9E3779B97F4A7C15 ^ uint64(m.T)*0xC2B2AE3D27D4EB4F ^ math.Float64bits(m.Similarity)
		x ^= x >> 29
		sum += x * 0xBF58476D1CE4E5B9
	}
	return len(matches), sum
}

// joinBruteRows is how many rows of S the join is checked against the
// exhaustive join on.
const joinBruteRows = 100

func verifyJoin(cfg runConfig, c *corpus, ops []op, passes []passResult) (oracleReport, error) {
	w, s := cfg.out, cfg.spec
	var rep oracleReport
	n0, sum0 := joinDigest(passes[0].matches)
	for p := range passes[1:] {
		rep.checked++
		if n, sum := joinDigest(passes[p+1].matches); n != n0 || sum != sum0 {
			rep.bad++
			fmt.Fprintf(w, "FAILED pass %d: %d pairs (checksum %x), pass 0 had %d (%x)\n", p+1, n, sum, n0, sum0)
		}
	}
	jn, err := c.internalJoiner(s)
	if err != nil {
		return rep, err
	}
	S, T := strutil.NewCollection(c.catalog), strutil.NewCollection(c.pool)
	rows := min(joinBruteRows, len(S))
	type st struct{ s, t int }
	got := map[st]float64{}
	for _, m := range passes[0].matches {
		if m.S < rows {
			got[st{m.S, m.T}] = m.Similarity
		}
	}
	// On the first rows of S every pair of the exhaustive join must be in the
	// join's answer with the same similarity, unless it is beyond the filter's
	// reach (see oracleReport), and the join must have no other pair. Each
	// batch was joined under the frequency order of S and that batch, so that
	// is the order its reach is judged by.
	want := jn.BruteForce(S[:rows], T, s.theta, nil)
	rep.matches = len(want)
	for _, o := range ops {
		sel := pebble.NewSelector(jn.Generator(), jn.BuildOrder(S, T[o.lo:o.hi]), s.theta)
		for _, p := range want {
			if p.T < o.lo || p.T >= o.hi {
				continue
			}
			rep.checked++
			v, ok := got[st{p.S, p.T}]
			delete(got, st{p.S, p.T})
			switch {
			case ok && v == p.Similarity:
			case !ok && signatureOverlap(sel, S[p.S], T[p.T], s) < s.tau:
				rep.unreachable++
			default:
				rep.bad++
				fmt.Fprintf(w, "FAILED pair (%d,%d): join %v (present %v), exhaustive join %v\n", p.S, p.T, v, ok, p.Similarity)
			}
		}
	}
	for k, v := range got {
		rep.checked++
		rep.bad++
		fmt.Fprintf(w, "FAILED pair (%d,%d) similarity %v is not in the exhaustive join\n", k.s, k.t, v)
	}
	fmt.Fprintf(w, "oracle: %d pairs per pass, identical across %d passes; first %d rows of S compared with brute force (%d true matches, %d beyond the filter's reach at τ=%d); %d rejected\n",
		n0, len(passes), rows, rep.matches, rep.unreachable, s.tau, rep.bad)
	return rep, nil
}

// signatureOverlap counts the pebbles (with multiplicity) the two records'
// signatures share under the workload's filter.
func signatureOverlap(sel *pebble.Selector, a, b strutil.Record, s spec) int {
	count := map[uint32]int{}
	for _, p := range sel.Signature(a.Tokens, s.method(), s.tau).Pebbles {
		count[p.ID]++
	}
	overlap := 0
	for _, p := range sel.Signature(b.Tokens, s.method(), s.tau).Pebbles {
		if p.ID != pebble.NoID && count[p.ID] > 0 {
			count[p.ID]--
			overlap++
		}
	}
	return overlap
}

// churnCheckQueries is how many lookups are compared after the last pass,
// and again after the data directory is reopened.
const churnCheckQueries = 100

// insertsLiveAt lists the insert ops of the script whose records are live
// when op i runs.
func insertsLiveAt(ops []op, i int) []int {
	live := map[int]bool{}
	for k := 0; k < i; k++ {
		switch ops[k].kind {
		case opInsert:
			live[k] = true
		case opRemove:
			delete(live, ops[k].ref)
		}
	}
	out := make([]int, 0, len(live))
	for k := range live {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// verifyChurn folds the acknowledged mutation log into the set of records
// that must be live and builds a reference index over exactly that set. Every
// pass leaves the live set as it found it, so every oracleEvery-th lookup's
// answer, in every pass, must be the reference's answer merged with the
// matches among the records that pass had inserted and not yet removed. Then
// lookups are compared against the served index, the index is closed, the
// data directory opened again and the lookups compared once more, so every
// acknowledged write has to be readable from the bytes that were flushed.
func verifyChurn(cfg runConfig, c *corpus, t *target, ops []op, passes []passResult, log []mutation) (oracleReport, error) {
	w := cfg.out
	live := make(map[int]string, len(c.catalog))
	for id, raw := range c.catalog {
		live[id] = raw
	}
	for _, m := range log {
		for k, id := range m.ids {
			if m.recs != nil {
				live[id] = m.recs[k]
			} else {
				delete(live, id)
			}
		}
	}
	records := make([]strutil.Record, 0, len(live))
	for id, raw := range live {
		records = append(records, strutil.NewRecord(id, raw))
	}
	sort.Slice(records, func(a, b int) bool { return records[a].ID < records[b].ID })
	ref, err := buildReference(cfg.spec, c, records)
	if err != nil {
		return oracleReport{}, err
	}
	rep := verifyLookups(w, ref, ops, passes, func(pass, i int) []join.QueryMatch {
		var inserted []strutil.Record
		for _, k := range insertsLiveAt(ops, i) {
			for n, id := range passes[pass].inserted[k] {
				inserted = append(inserted, strutil.NewRecord(id, ops[k].recs[n]))
			}
		}
		var out []join.QueryMatch
		for _, p := range ref.joiner.BruteForce(inserted, strutil.NewCollection([]string{ops[i].text}), cfg.spec.theta, nil) {
			out = append(out, join.QueryMatch{Record: p.S, Similarity: p.Similarity})
		}
		return out
	})
	var queries []string
	for i := range ops {
		if ops[i].kind == opQuery && len(queries) < churnCheckQueries {
			queries = append(queries, ops[i].text)
		}
	}
	compare := func(stage string) {
		for _, q := range queries {
			rep.checked++
			got, err := t.query(t.url, q, "", -1)
			if err == nil {
				if ok, _ := ref.accepts(q, got, nil); ok {
					continue
				}
			}
			rep.bad++
			fmt.Fprintf(w, "FAILED %s %q: served %v (%v), reference %v\n", stage, q, got, err, ref.built(q))
		}
	}
	compare("after the last pass")
	t.stop()
	if err := t.openDurable(cfg.spec, nil); err != nil {
		return rep, fmt.Errorf("reopen: %w", err)
	}
	compare("after reopening the data directory")
	fmt.Fprintf(w, "oracle: %d acknowledged mutations folded into %d live records; %d lookups compared before and %d after reopening the data directory; %d rejected in all\n",
		len(log), len(records), len(queries), len(queries), rep.bad)
	return rep, nil
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a boundary the benchmark can see. Spans of
// one request share its request number; parent 0 marks a root.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Request int              `json:"request"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced passes run the same code without the bookkeeping.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(parent, request int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name,
		StartNs: time.Since(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = time.Since(t.epoch).Nanoseconds()
}

// add records a span whose interval is already known (stage times a call
// reports about itself), laid out from startNs.
func (t *tracer) add(parent, request int, name string, startNs int64, d time.Duration, counts map[string]int64) int64 {
	if t == nil {
		return startNs
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name,
		StartNs: startNs, EndNs: startNs + d.Nanoseconds(), Counts: counts,
	})
	return startNs + d.Nanoseconds()
}

func (t *tracer) startOf(id int) int64 { return t.spans[id-1].StartNs }

func (t *tracer) setCounts(id int, counts map[string]int64) {
	if t != nil && id != 0 {
		t.spans[id-1].Counts = counts
	}
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval covered by its children (children clipped to the parent and
// overlapping children counted once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		covered, cursor := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, cursor), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = s.EndNs - s.StartNs - covered
	}
	return out
}

// selfRow is one line of the "where an op's time goes" table.
type selfRow struct {
	name   string
	spans  int
	meanUs float64 // mean self time per span
	share  float64 // total self time ÷ total root time of the same group
}

// rankSelf aggregates self time by span name and ranks the names by their
// share of the summed duration of the root spans named root.
func rankSelf(spans []span, root string) []selfRow {
	self := selfTimes(spans)
	inGroup := map[int]bool{} // request numbers that have a root of this name
	var rootTotal int64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			inGroup[s.Request] = true
			rootTotal += s.EndNs - s.StartNs
		}
	}
	type agg struct {
		n   int
		sum int64
	}
	byName := map[string]*agg{}
	for _, s := range spans {
		if !inGroup[s.Request] {
			continue
		}
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.n++
		a.sum += self[s.ID]
	}
	rows := make([]selfRow, 0, len(byName))
	for name, a := range byName {
		r := selfRow{name: name, spans: a.n, meanUs: float64(a.sum) / float64(a.n) / 1e3}
		if rootTotal > 0 {
			r.share = float64(a.sum) / float64(rootTotal)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].share != rows[b].share {
			return rows[a].share > rows[b].share
		}
		return rows[a].name < rows[b].name
	})
	return rows
}

func printSelfTable(w io.Writer, title string, rows []selfRow) {
	fmt.Fprintf(w, "%s\n  %-22s %8s %14s %8s\n", title, "span", "spans", "mean self us", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %8d %14.1f %7.1f%%\n", r.name, r.spans, r.meanUs, 100*r.share)
	}
}

// writeTrace writes the spans as JSON lines.
func (t *tracer) writeTrace(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Package pebble implements the unified signature structure of Section 3 of
// the paper and the three signature-selection algorithms built on it:
//
//   - U-Filter (Algorithm 2): prefix signatures guaranteeing ≥ 1 common
//     pebble between any pair of strings whose unified similarity reaches θ.
//   - AU-Filter with heuristics (Algorithm 4): signatures guaranteeing ≥ τ
//     common pebbles, using the top-(τ−1) heaviest remaining pebbles as the
//     slack bound (Inequality 10).
//   - AU-Filter with dynamic programming (Algorithm 5): the same guarantee
//     with a tighter per-segment slack bound, yielding shorter signatures.
//
// A pebble is the unified signature unit: a q-gram (Jaccard), the left-hand
// side of a synonym rule (synonym), or a taxonomy node or one of its
// ancestors (taxonomy); see Table 2 of the paper. Pebble keys are
// namespaced by measure ("g:" — sim.GramKeyPrefix, the gram keys come ready
// made with a segment's derivation table — "s:", "t:") so that a gram can
// never collide with a rule side or an entity name in the inverted index.
package pebble

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// NoID marks a pebble whose key was never registered with the Order the
// pebble was interned against (possible only for probe strings unseen at
// index-build time). Unknown keys have document frequency zero, so they sort
// before every known key in the global rare-first order.
const NoID = ^uint32(0)

// Pebble is a single signature unit generated from one segment of a string
// by one similarity measure.
type Pebble struct {
	// Key is the namespaced identity of the pebble ("g:fe",
	// "s:coffee shop", "t:coffee drinks").
	Key string
	// ID is the dense interned identifier of Key in the global frequency
	// order, assigned by Order.Intern (NoID when the key is unknown to the
	// order). The inverted index and the candidate counters are keyed by ID,
	// never by the string key.
	ID uint32
	// Weight is the pebble's contribution to the similarity of its segment
	// (Table 2: 1/|G(P,q)| for grams, C(R) for rules, 1/|n| for taxonomy
	// nodes).
	Weight float64
	// Segment is the index, in the record's segment enumeration, of the
	// segment this pebble was generated from.
	Segment int
	// Measure is the similarity measure that generated the pebble.
	Measure sim.Measure
}

// Generator produces pebbles for records under a fixed similarity context.
// It is safe for concurrent use.
type Generator struct {
	Ctx *sim.Context
	// calc prepares the records of the tokens-taking forms (Pebbles,
	// Selector.Prepare); the engine hands in records it has prepared itself.
	calc *core.Calculator
}

// NewGenerator returns a Generator over the given context.
func NewGenerator(ctx *sim.Context) *Generator {
	return &Generator{Ctx: ctx, calc: core.NewCalculator(ctx)}
}

// Pebbles is AppendPebbles for a bare token sequence: the record is prepared
// here, without a dictionary. The returned segment slice indexes the pebbles'
// Segment field.
func (g *Generator) Pebbles(tokens []string) ([]Pebble, []core.Segment) {
	pr := g.calc.Prepare(tokens)
	segments := make([]core.Segment, len(pr.Segs))
	for i, s := range pr.Segs {
		segments[i] = core.Segment{Span: s.Span, Tokens: s.Span.Slice(tokens), Rule: s.Rule, Entity: s.Entity}
	}
	return g.AppendPebbles(nil, pr), segments
}

// AppendPebbles appends all pebbles of a prepared record, one group per
// well-defined segment (Line 1 of Algorithms 2, 4 and 5 — "all pebbles of
// S"), each group per Table 2 from the segment's derivation table: the gram
// keys, the rules either side of which the segment matches, and the taxonomy
// node. A pebble's Segment field indexes pr.Segs. The pebbles are in
// generation order; callers sort them with an Order before selecting
// signatures.
//
// Generating pebbles for every well-defined segment (rather than one fixed
// partition) is what keeps the accumulated-similarity bound valid no matter
// which partition the verification step ends up using: the bound is a sum
// over a superset of any partition's segments. On the paper's Example 6
// string "espresso cafe Helsinki" this yields exactly the 23 pebbles the
// paper reports.
func (g *Generator) AppendPebbles(out []Pebble, pr *core.PreparedRecord) []Pebble {
	n := 0
	for idx := range pr.Segs {
		d := pr.Segs[idx].Data
		n += len(d.GramKeys) + len(d.LHS) + len(d.RHS)
		if d.Node != taxonomy.InvalidNode {
			n += g.Ctx.Tax.Depth(d.Node)
		}
	}
	out = slices.Grow(out, n)
	for idx := range pr.Segs {
		d := pr.Segs[idx].Data

		w := 1 / float64(len(d.GramKeys))
		for _, k := range d.GramKeys {
			out = append(out, Pebble{Key: k, Weight: w, Segment: idx, Measure: sim.Jaccard})
		}

		// The synonym pebble is always the *lhs* of the rule, no matter which
		// side the segment matches, so the two sides of a rule produce the
		// same pebble key (Table 2): one pebble per distinct lhs, in key
		// order, weighted by the closest of its rules.
		first := len(out)
		for _, ids := range [2][]int{d.LHS, d.RHS} {
			for _, id := range ids {
				r := g.Ctx.Rules.Rule(id)
				out = append(out, Pebble{Key: r.LHSText(), Weight: r.C, Segment: idx, Measure: sim.Synonym})
			}
		}
		if syn := out[first:]; len(syn) > 0 {
			slices.SortFunc(syn, func(a, b Pebble) int {
				return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(b.Weight, a.Weight))
			})
			syn = slices.CompactFunc(syn, func(a, b Pebble) bool { return a.Key == b.Key })
			for i := range syn {
				syn[i].Key = "s:" + syn[i].Key
			}
			out = out[:first+len(syn)]
		}

		if d.Node != taxonomy.InvalidNode {
			w := 1 / float64(g.Ctx.Tax.Depth(d.Node))
			for _, anc := range g.Ctx.Tax.Ancestors(d.Node) {
				out = append(out, Pebble{Key: "t:" + g.Ctx.Tax.Name(anc), Weight: w, Segment: idx, Measure: sim.Taxonomy})
			}
		}
	}
	return out
}

// Order is the global pebble order required by prefix filtering: pebbles
// are sorted by ascending document frequency (rare pebbles first), with the
// key as tie-breaker so the order is total and identical across both join
// collections.
//
// After all Add calls, Finalize interns every key into a dense uint32 ID
// whose numeric order IS the global order: comparing IDs is equivalent to
// Less on known keys. The hot paths (signature sorting, inverted indexing,
// candidate counting) work exclusively on these IDs.
//
// # Dynamic region
//
// A finalized Order can still grow through InternDynamic: keys unseen at
// Finalize time are appended after the built prefix, in first-seen order.
// Dynamic IDs therefore sort after every frozen key — they are treated as
// maximally frequent — while the frequency order of the built prefix is
// untouched. Because the assignment is append-only, the relative order of
// any two keys never changes once both are interned, so every signature
// ever selected remains a valid prefix under every later state of the
// order; this is the invariant the dynamic join index relies on. Frequency
// order degrades as the dynamic region grows, which only costs filtering
// selectivity, never correctness — the dynamic index re-finalizes (full
// rebuild) once DynamicCount exceeds a fraction of the frozen prefix.
//
// InternDynamic serializes its callers behind the order's own small mutex,
// so any number of writers — the shards of a sharded index intern
// concurrently — may call it without external locking; all read-side
// methods (ID, Intern, Sort, KeyOf, NumKeys, Frequency) may run
// concurrently with them, as the dynamic table is swapped atomically and
// never mutated in place.
type Order struct {
	freq map[string]int

	once    sync.Once
	ids     map[string]uint32 // key -> dense ID, in (freq asc, key asc) order
	keys    []string          // dense ID -> key
	maxFreq int               // highest document frequency, cached at Finalize

	dmu sync.Mutex               // serializes InternDynamic writers
	dyn atomic.Pointer[dynTable] // append-only dynamic region, nil until first InternDynamic
}

// dynTable is one immutable state of the dynamic intern region. Writers
// clone-and-swap it; readers load it once per operation. Document
// frequencies are deliberately not tracked here: nothing consumes them (a
// rebuild re-derives true frequencies from the live records), and their
// absence lets an insert whose keys are all already interned skip the
// clone entirely.
type dynTable struct {
	ids  map[string]uint32 // key -> ID (all IDs ≥ len(Order.keys))
	keys []string          // ID - len(Order.keys) -> key
}

// NewOrder creates an empty frequency order.
func NewOrder() *Order { return &Order{freq: make(map[string]int)} }

// Add registers one string's pebbles: every distinct key counts once
// (document frequency). Add must not be called after Finalize.
func (o *Order) Add(pebbles []Pebble) {
	if o.ids != nil {
		panic("pebble: Order.Add after Finalize")
	}
	seen := map[string]struct{}{}
	for _, p := range pebbles {
		if _, ok := seen[p.Key]; ok {
			continue
		}
		seen[p.Key] = struct{}{}
		o.freq[p.Key]++
	}
}

// Finalize builds the intern table: every registered key gets a dense ID in
// (frequency asc, key asc) order. Finalize is idempotent and safe to call
// concurrently; the Order becomes read-only (and thus safe for concurrent
// use) afterwards. NewSelector finalizes its order, so explicit calls are
// only needed when using the intern table directly.
func (o *Order) Finalize() {
	o.once.Do(func() {
		keys := make([]string, 0, len(o.freq))
		for k := range o.freq {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			fi, fj := o.freq[keys[i]], o.freq[keys[j]]
			if fi != fj {
				return fi < fj
			}
			return keys[i] < keys[j]
		})
		ids := make(map[string]uint32, len(keys))
		for i, k := range keys {
			ids[k] = uint32(i)
		}
		// Frequencies are sorted ascending, so the last key carries the
		// maximum — cached here because MaxFrequency sits on the index-build
		// path (the hybrid posting cutoff consults it).
		if len(keys) > 0 {
			o.maxFreq = o.freq[keys[len(keys)-1]]
		}
		o.keys = keys
		o.ids = ids
	})
}

// MaxFrequency returns the highest document frequency recorded at Finalize
// time (0 for an empty order). Dynamically interned keys are not counted —
// their frequencies are unknown until a rebuild re-freezes the order — so
// on an order with a non-empty dynamic region the value is a lower bound.
func (o *Order) MaxFrequency() int {
	o.Finalize()
	return o.maxFreq
}

// NumKeys returns the number of interned keys, frozen prefix plus dynamic
// region; valid after Finalize.
func (o *Order) NumKeys() int { return len(o.keys) + o.DynamicCount() }

// FrozenKeys returns the number of keys interned at Finalize time.
func (o *Order) FrozenKeys() int { return len(o.keys) }

// DynamicCount returns the number of keys appended by InternDynamic since
// Finalize.
func (o *Order) DynamicCount() int {
	if d := o.dyn.Load(); d != nil {
		return len(d.keys)
	}
	return 0
}

// ID returns the interned ID of a key; ok is false when the key was never
// registered. Valid after Finalize.
func (o *Order) ID(key string) (id uint32, ok bool) {
	if id, ok = o.ids[key]; ok {
		return id, true
	}
	if d := o.dyn.Load(); d != nil {
		id, ok = d.ids[key]
	}
	return id, ok
}

// KeyOf returns the key of an interned ID; valid after Finalize.
func (o *Order) KeyOf(id uint32) string {
	if int(id) < len(o.keys) {
		return o.keys[id]
	}
	return o.dyn.Load().keys[int(id)-len(o.keys)]
}

// Intern stamps each pebble with the interned ID of its key (NoID for keys
// unknown to the order). Valid after Finalize.
func (o *Order) Intern(pebbles []Pebble) {
	dyn := o.dyn.Load()
	for i := range pebbles {
		if id, ok := o.ids[pebbles[i].Key]; ok {
			pebbles[i].ID = id
		} else if id, ok := dyn.lookup(pebbles[i].Key); ok {
			pebbles[i].ID = id
		} else {
			pebbles[i].ID = NoID
		}
	}
}

// InternDynamic registers every key of the given pebbles that is unknown to
// the order as a new dynamic ID appended after the built prefix (first-seen
// order). It returns the number of newly appended keys. The dynamic table is
// cloned at most once per call — pass a whole insert batch's pebbles in one
// call rather than looping — and not at all when every key is already
// interned. InternDynamic callers are serialized on an internal mutex (shards
// of a sharded index intern into one shared order concurrently, each under
// its own writer lock); concurrent readers are safe because the dynamic table
// is replaced wholesale, never mutated.
func (o *Order) InternDynamic(pebbles []Pebble) int {
	o.Finalize()
	o.dmu.Lock()
	defer o.dmu.Unlock()
	old := o.dyn.Load()
	var next *dynTable
	added := 0
	for i := range pebbles {
		key := pebbles[i].Key
		if _, ok := o.ids[key]; ok {
			continue
		}
		if next == nil {
			if _, ok := old.lookup(key); ok {
				continue
			}
			next = old.clone()
		}
		if _, ok := next.ids[key]; !ok {
			next.ids[key] = uint32(len(o.keys) + len(next.keys))
			next.keys = append(next.keys, key)
			added++
		}
	}
	if next != nil {
		o.dyn.Store(next)
	}
	return added
}

// lookup is a nil-safe dynamic-table probe.
func (d *dynTable) lookup(key string) (uint32, bool) {
	if d == nil {
		return 0, false
	}
	id, ok := d.ids[key]
	return id, ok
}

// clone deep-copies a dynamic table (nil yields an empty table).
func (d *dynTable) clone() *dynTable {
	c := &dynTable{ids: map[string]uint32{}}
	if d == nil {
		return c
	}
	c.keys = append([]string(nil), d.keys...)
	c.ids = make(map[string]uint32, len(d.ids))
	for k, v := range d.ids {
		c.ids[k] = v
	}
	return c
}

// Frequency returns the document frequency recorded at Finalize time (0 for
// keys unseen then, including dynamically interned ones — a rebuild
// re-derives true frequencies from the live records).
func (o *Order) Frequency(key string) int { return o.freq[key] }

// Sort interns the pebbles and sorts them in place by the global order.
func (o *Order) Sort(pebbles []Pebble) {
	o.Finalize()
	o.Intern(pebbles)
	slices.SortFunc(pebbles, byGlobalOrder)
}

// byGlobalOrder is the total order of interned pebbles. Known keys compare by
// their dense IDs (one integer comparison instead of two map lookups and a
// string comparison); unknown keys have frequency zero, so they sort before
// every known key, ordered among themselves by key. Dynamically interned keys
// compare by ID too and therefore sort after every frozen key (see the Order
// doc for why that stays sound). Pebbles of one key are ordered by segment.
func byGlobalOrder(a, b Pebble) int {
	if ua, ub := a.ID == NoID, b.ID == NoID; ua || ub {
		if ua != ub {
			if ua {
				return -1 // unknown (frequency 0) precedes known
			}
			return 1
		}
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Segment, b.Segment))
	}
	return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Segment, b.Segment))
}

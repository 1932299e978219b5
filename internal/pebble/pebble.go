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
	"strings"
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

// Generator produces pebbles for records under a fixed similarity context,
// keys first: every pebble carries its string key, which an Order interns. A
// probe or a collection signed through a probe table takes this path only
// for the segments the table does not hold (ProbeTable, SignProbe, Signer);
// the rest sign from pebble IDs, and a collection's order is counted by key
// number (KeyCount). It is safe for concurrent use.
type Generator struct {
	Ctx *sim.Context
	// calc prepares the records of the tokens-taking forms (Pebbles,
	// Selector.Prepare); the engine hands in records it has prepared itself.
	calc *core.Calculator
	// synKeys[id] is the pebble key of rule id ("s:" and its lhs) and
	// taxKeys[n] that of taxonomy node n ("t:" and its name), made once here
	// so that generation builds no strings. Rules and nodes added to the
	// context after NewGenerator get theirs built on use. synClass[id] is the
	// first rule with rule id's lhs, which numbers its key (keyNumbers).
	synKeys  []string
	taxKeys  []string
	synClass []uint32
}

// NewGenerator returns a Generator over the given context.
func NewGenerator(ctx *sim.Context) *Generator {
	g := &Generator{Ctx: ctx, calc: core.NewCalculator(ctx)}
	if ctx != nil && ctx.Rules != nil {
		g.synKeys = make([]string, ctx.Rules.Len())
		for id := range g.synKeys {
			g.synKeys[id] = "s:" + ctx.Rules.Rule(id).LHSText()
		}
		g.synClass = synClasses(ctx.Rules)
	}
	if ctx != nil && ctx.Tax != nil {
		g.taxKeys = make([]string, ctx.Tax.Len())
		for n := range g.taxKeys {
			g.taxKeys[n] = "t:" + ctx.Tax.Name(taxonomy.NodeID(n))
		}
	}
	return g
}

// synKey returns the pebble key of rule id.
func (g *Generator) synKey(id int) string {
	if id < len(g.synKeys) {
		return g.synKeys[id]
	}
	return "s:" + g.Ctx.Rules.Rule(id).LHSText()
}

// taxKey returns the pebble key of taxonomy node n.
func (g *Generator) taxKey(n taxonomy.NodeID) string {
	if int(n) < len(g.taxKeys) {
		return g.taxKeys[n]
	}
	return "t:" + g.Ctx.Tax.Name(n)
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

// Count returns an upper bound on the number of pebbles AppendPebbles
// appends for pr — exact but for the synonym pebbles of rules sharing an lhs,
// which count once — so a caller can size one buffer for many records, or
// one for a probe signed partly from a probe table.
func (g *Generator) Count(pr *core.PreparedRecord) int {
	n := 0
	for idx := range pr.Segs {
		d := pr.Segs[idx].Data
		n += len(d.GramKeys) + len(d.LHS) + len(d.RHS)
		if d.Node != taxonomy.InvalidNode {
			n += g.Ctx.Tax.Depth(d.Node)
		}
	}
	return n
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
	out = slices.Grow(out, g.Count(pr))
	for idx := range pr.Segs {
		out = g.appendSegment(out, pr.Segs[idx].Data, idx)
	}
	return out
}

// appendSegment appends the pebbles of one segment, the idx-th of its
// record, from its derivation table d: AppendPebbles' group for it.
func (g *Generator) appendSegment(out []Pebble, d *sim.SegmentData, idx int) []Pebble {
	w := 1 / float64(len(d.GramKeys))
	for _, k := range d.GramKeys {
		out = append(out, Pebble{Key: k, Weight: w, Segment: idx, Measure: sim.Jaccard})
	}

	// The synonym pebble is always the *lhs* of the rule, no matter which
	// side the segment matches, so the two sides of a rule produce the same
	// pebble key (Table 2).
	first := len(out)
	for _, ids := range [2][]int{d.LHS, d.RHS} {
		for _, id := range ids {
			out = append(out, Pebble{Key: g.synKey(id), Weight: g.Ctx.Rules.Rule(id).C, Segment: idx, Measure: sim.Synonym})
		}
	}
	out = out[:first+len(distinctSynonyms(out[first:]))]

	if d.Node != taxonomy.InvalidNode {
		w := 1 / float64(g.Ctx.Tax.Depth(d.Node))
		for n := d.Node; n != taxonomy.InvalidNode; n = g.Ctx.Tax.Node(n).Parent {
			out = append(out, Pebble{Key: g.taxKey(n), Weight: w, Segment: idx, Measure: sim.Taxonomy})
		}
	}
	return out
}

// distinctSynonyms sorts the synonym pebbles of one segment into key order
// and keeps one pebble a key, weighted by the closest of its rules, in place,
// and returns them.
func distinctSynonyms(syn []Pebble) []Pebble {
	if len(syn) < 2 {
		return syn
	}
	slices.SortFunc(syn, func(a, b Pebble) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(b.Weight, a.Weight))
	})
	return slices.CompactFunc(syn, func(a, b Pebble) bool { return a.Key == b.Key })
}

// Order is the global pebble order required by prefix filtering: pebbles
// are sorted by ascending document frequency (rare pebbles first), with the
// key as tie-breaker so the order is total and identical across both join
// collections.
//
// Add counts document frequencies key by key. Finalize then interns every
// key into a dense uint32 ID whose numeric order IS the global order, so
// comparing the IDs of two known keys compares their (frequency, key) pairs.
// The engine counts a collection prepared against a dictionary by key number
// instead (KeyCount), and KeyCount.Freeze builds the same order. The hot paths
// (signature sorting, inverted indexing, candidate counting) work
// exclusively on these IDs.
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
	// count holds the document frequencies Add has counted, until Finalize
	// interns them and drops it.
	count *KeyCount

	once    sync.Once
	ids     map[string]uint32 // key -> dense ID, in (freq asc, key asc) order
	keys    []string          // dense ID -> key
	freqs   []int             // dense ID -> document frequency at Finalize
	maxFreq int               // highest document frequency, cached at Finalize

	dmu sync.Mutex               // serializes InternDynamic writers
	dyn atomic.Pointer[dynTable] // append-only dynamic region, nil until first InternDynamic
}

// keyCount is one key's document frequency and its number in the count it
// was counted in (KeyCount).
type keyCount struct {
	key  string
	freq int32
	num  uint32
}

// sortByFrequency sorts keys into the global order: frequency ascending, key
// ascending on ties. It is the one frequency sort: Finalize and
// KeyCount.Freeze number the frozen IDs by it, FrequencyTable reads its
// result, and MergeFrequencyTables sorts the sum of several tables by it.
func sortByFrequency(counts []keyCount) {
	slices.SortFunc(counts, func(a, b keyCount) int {
		return cmp.Or(cmp.Compare(a.freq, b.freq), strings.Compare(a.key, b.key))
	})
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
func NewOrder() *Order { return &Order{count: &KeyCount{}} }

// Add registers one string's pebbles: every distinct key counts once
// (document frequency), each looked up by key. Add must not be called after
// Finalize.
func (o *Order) Add(pebbles []Pebble) {
	if o.count == nil {
		panic("pebble: Order.Add after Finalize")
	}
	o.count.addPebbles(pebbles)
}

// Finalize builds the intern table: every registered key gets a dense ID in
// (frequency asc, key asc) order. Finalize is idempotent and safe to call
// concurrently; the Order becomes read-only (and thus safe for concurrent
// use) afterwards. NewSelector finalizes its order, so explicit calls are
// only needed when using the intern table directly.
func (o *Order) Finalize() {
	o.once.Do(func() {
		if o.count != nil {
			o.freeze(o.count)
			o.count = nil
		}
	})
}

// freeze interns every key c counted: each gets a dense ID in (frequency asc,
// key asc) order. It returns the IDs by key number, NoID for the numbers c
// did not count.
func (o *Order) freeze(c *KeyCount) []uint32 {
	counts := make([]keyCount, len(c.seen))
	for i, n := range c.seen {
		counts[i] = keyCount{key: c.key[n], freq: c.freq[n], num: n}
	}
	sortByFrequency(counts)
	ids := make(map[string]uint32, len(counts))
	keys := make([]string, len(counts))
	freqs := make([]int, len(counts))
	byNum := make([]uint32, len(c.freq))
	for n := range byNum {
		byNum[n] = NoID
	}
	for i, kc := range counts {
		ids[kc.key] = uint32(i)
		keys[i] = kc.key
		freqs[i] = int(kc.freq)
		byNum[kc.num] = uint32(i)
	}
	// Frequencies are sorted ascending, so the last key carries the maximum —
	// cached here because MaxFrequency sits on the index-build path (the
	// hybrid posting cutoff consults it).
	if len(freqs) > 0 {
		o.maxFreq = freqs[len(freqs)-1]
	}
	o.ids, o.keys, o.freqs = ids, keys, freqs
	return byNum
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
// re-derives true frequencies from the live records). It finalizes the
// order.
func (o *Order) Frequency(key string) int {
	o.Finalize()
	if id, ok := o.ids[key]; ok {
		return o.freqs[id]
	}
	return 0
}

// Sort interns the pebbles and sorts them in place by the global order.
func (o *Order) Sort(pebbles []Pebble) {
	o.Finalize()
	o.Intern(pebbles)
	sortInterned(pebbles)
}

// maxPacked bounds the lists and segment indexes sortInterned packs: a
// position and a segment take 16 bits each of a sort key.
const maxPacked = 1 << 16

// sortInterned sorts interned pebbles by byGlobalOrder. Pebbles of unknown
// keys — only a probe carries them, and few — go first and are sorted by the
// comparator. The known rest sorts as integers: each pebble becomes one
// packed (ID, segment, position) key, the keys are sorted, and the pebbles
// follow them in one in-place permutation. Pebbles equal under
// byGlobalOrder share a key and a segment and are therefore identical, so
// the result is the comparator sort's, bit for bit.
func sortInterned(pebbles []Pebble) {
	unknown := 0
	for i := range pebbles {
		if pebbles[i].ID == NoID {
			pebbles[unknown], pebbles[i] = pebbles[i], pebbles[unknown]
			unknown++
		}
	}
	slices.SortFunc(pebbles[:unknown], byGlobalOrder)
	known := pebbles[unknown:]
	if len(known) < 2 {
		return
	}
	var buf [512]uint64
	keys := buf[:0]
	if len(known) > len(buf) {
		keys = make([]uint64, 0, len(known))
	}
	for i := range known {
		seg := uint64(known[i].Segment)
		if len(known) > maxPacked || seg >= maxPacked {
			slices.SortFunc(known, byGlobalOrder)
			return
		}
		keys = append(keys, uint64(known[i].ID)<<32|seg<<16|uint64(i))
	}
	slices.Sort(keys)
	// Position i takes the pebble at keys[i]'s position field; each cycle of
	// the permutation is walked once, and a done position's key is pointed
	// at itself so the walk never re-enters it.
	const posMask = maxPacked - 1
	for i := range known {
		from := int(keys[i] & posMask)
		if from == i {
			continue
		}
		held, at := known[i], i
		for from != i {
			known[at] = known[from]
			keys[at] = keys[at]&^posMask | uint64(at)
			at, from = from, int(keys[from]&posMask)
		}
		known[at] = held
		keys[at] = keys[at]&^posMask | uint64(at)
	}
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

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
// namespaced by measure ("g:" — sim.GramKeyPrefix — "s:", "t:") so that a
// gram can never collide with a rule side or an entity name in the inverted
// index. A gram key is built only where a segment is signed by key; a
// segment signed through a probe table, or counted by key number, builds
// none.
package pebble

import (
	"cmp"
	"slices"
	"strings"

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
// for the segments the table does not hold (ProbeTable, Signer);
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
		segments[i] = core.Segment{Span: s.Span(), Tokens: s.Span().Slice(tokens), Rule: s.Rule(), Entity: s.Entity()}
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
		d := pr.Table(idx)
		lhs, rhs := g.Ctx.Rules.SideRules(d.Side)
		n += int(d.Occ) + len(lhs) + len(rhs)
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
		out = g.appendSegment(out, pr.Table(idx), idx)
	}
	return out
}

// appendSegment appends the pebbles of one segment, the idx-th of its
// record, from its derivation table d: AppendPebbles' group for it. The gram
// pebbles come one an occurrence, in the order of occurrence.
func (g *Generator) appendSegment(out []Pebble, d *sim.SegmentData, idx int) []Pebble {
	first := len(out)
	for range d.Occ {
		out = append(out, Pebble{Weight: 1 / float64(d.Occ), Segment: idx, Measure: sim.Jaccard})
	}
	g.gramKeys(out[first:], d, false)
	return g.appendRulesAndNodes(out, d, idx)
}

// appendInterned is appendSegment for a segment signed under order o: every
// pebble carries its ID (NoID for a key o lacks), and of the gram pebbles
// only those whose key o lacks carry a key. A gram's key is built in b, which
// it returns for reuse, and looked up there, so a segment whose keys o holds
// makes no string.
func (g *Generator) appendInterned(out []Pebble, b []byte, d *sim.SegmentData, idx int, o *Order) ([]Pebble, []byte) {
	first, q := len(out), g.Ctx.GramQ()
	for occ := range int(d.Occ) {
		b = append(append(b[:0], sim.GramKeyPrefix...), sim.OccurrenceGram(d.Text, q, occ)...)
		id, ok := o.idOf(b)
		if !ok {
			id = NoID
		}
		out = append(out, Pebble{ID: id, Weight: 1 / float64(d.Occ), Segment: idx, Measure: sim.Jaccard})
	}
	g.gramKeys(out[first:], d, true)
	from := len(out)
	out = g.appendRulesAndNodes(out, d, idx)
	o.Intern(out[from:])
	return out, b
}

// gramKeys sets the keys of the gram pebbles of segment table d —
// pebbles[o] is occurrence o's — every one's, or with unknown only those of
// the pebbles with NoID, all cut from one string.
func (g *Generator) gramKeys(pebbles []Pebble, d *sim.SegmentData, unknown bool) {
	q, n := g.Ctx.GramQ(), 0
	for o := range pebbles {
		if !unknown || pebbles[o].ID == NoID {
			n++
		}
	}
	if n == 0 {
		return
	}
	size := len(sim.GramKeyPrefix) + min(len(d.Text), q) // every gram of a text is as long
	var b strings.Builder
	b.Grow(n * size)
	for o := range pebbles {
		if !unknown || pebbles[o].ID == NoID {
			b.WriteString(sim.GramKeyPrefix)
			b.WriteString(sim.OccurrenceGram(d.Text, q, o))
		}
	}
	keys := b.String()
	for o := range pebbles {
		if !unknown || pebbles[o].ID == NoID {
			pebbles[o].Key, keys = keys[:size], keys[size:]
		}
	}
}

// appendRulesAndNodes appends the synonym and taxonomy pebbles of segment
// idx from its table d.
func (g *Generator) appendRulesAndNodes(out []Pebble, d *sim.SegmentData, idx int) []Pebble {
	// The synonym pebble is always the *lhs* of the rule, no matter which
	// side the segment matches, so the two sides of a rule produce the same
	// pebble key (Table 2).
	first := len(out)
	lhs, rhs := g.Ctx.Rules.SideRules(d.Side)
	for _, ids := range [2][]int{lhs, rhs} {
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

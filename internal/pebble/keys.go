package pebble

import (
	"strings"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
	"github.com/aujoin/aujoin/internal/synonym"
	"github.com/aujoin/aujoin/internal/taxonomy"
)

// keyNumbers numbers the pebble keys of records prepared against one
// dictionary with numbers the engine already holds, so that counting and
// signing a collection never build or hash a key string for a segment the
// dictionary holds: a gram key is its gram's number in the dictionary
// (below syn), a synonym key the ID of the first rule with its lhs, offset
// by syn, and a taxonomy key its node, offset by tax. Keys without such a
// number — grams the dictionary never numbered, which only a segment
// without an entry carries — are numbered from size on, by key (KeyCount).
// The numbering covers the entries of the dictionary captured when it was
// made (view).
type keyNumbers struct {
	gen  *Generator
	dict *core.SegDict
	view core.DictView
	// class[id] is the first rule with rule id's lhs: the rules of one lhs
	// share its pebble key (Table 2).
	class []uint32
	// syn and tax are the first synonym and taxonomy key numbers, size the
	// first number past them.
	syn, tax, size uint32
}

// numbers returns the key numbering of the dictionary d holds now (none for
// a nil d: every gram key then numbers by key).
func (g *Generator) numbers(d *core.SegDict) keyNumbers {
	k := keyNumbers{gen: g, dict: d, view: d.View(), class: g.synClass}
	if g.Ctx != nil && g.Ctx.Rules != nil && g.Ctx.Rules.Len() != len(k.class) {
		k.class = synClasses(g.Ctx.Rules) // rules were added after NewGenerator
	}
	nodes := 0
	if g.Ctx != nil && g.Ctx.Tax != nil {
		nodes = g.Ctx.Tax.Len()
	}
	k.syn = uint32(k.view.NumGrams())
	k.tax = k.syn + uint32(len(k.class))
	k.size = k.tax + uint32(nodes)
	return k
}

// synClasses returns, for every rule, the first rule with its lhs.
func synClasses(rules *synonym.RuleSet) []uint32 {
	class := make([]uint32, rules.Len())
	for id := range class {
		class[id] = uint32(rules.ByLHSText(rules.Rule(id).LHSText())[0])
	}
	return class
}

// KeyCount counts the document frequencies of the pebble keys of prepared
// records by key number (keyNumbers), without generating a pebble: a segment
// the dictionary holds reads its gram numbers from it, and every segment's
// synonym and taxonomy keys are numbered by rule and node. Only a segment
// without an entry looks its grams up by string, first in the dictionary's
// gram numbers and then, by key, among the keys counted by string. An
// Order's Add counts through a KeyCount without a dictionary, every key by
// string. A KeyCount is not safe for concurrent use.
type KeyCount struct {
	keyNumbers
	// freq[n] is key number n's document frequency so far, last[n] the stamp
	// of the last record that counted it — records, the number of records
	// counted — so a record carrying a key several times counts it once, and
	// key[n] its key, set when first counted: for a gram the dictionary
	// numbers (n < syn), the gram alone, which keys prefixes.
	freq, last []int32
	key        []string
	records    int32
	// seen lists the key numbers counted, first seen first; byKey numbers the
	// keys counted by string, over their text in key, and buf builds a gram's
	// key to look it up.
	seen  []uint32
	byKey strutil.KeyTable
	buf   []byte
}

// keyColumn is a KeyCount's keys by number: the KeySource of its byKey.
type keyColumn []string

func (k *keyColumn) Key(n uint32) string { return (*k)[n] }

// NewKeyCount returns an empty count of the records prepared against d (nil
// for records prepared without a dictionary).
func (g *Generator) NewKeyCount(d *core.SegDict) *KeyCount {
	c := &KeyCount{keyNumbers: g.numbers(d)}
	c.freq = make([]int32, c.size)
	c.last = make([]int32, c.size)
	c.key = make([]string, c.size)
	return c
}

// count counts key number n for the record being counted and reports
// whether n was never counted before, when the caller sets key[n].
func (c *KeyCount) count(n uint32) bool {
	if c.last[n] == c.records {
		return false
	}
	c.last[n] = c.records
	c.freq[n]++
	if c.freq[n] > 1 {
		return false
	}
	c.seen = append(c.seen, n)
	return true
}

// countKey counts a key without a number of the engine's, numbering it on
// first sight.
func (c *KeyCount) countKey(key string) {
	c.count(c.number(key))
}

// countGram is countKey for the key of a gram, built in c.buf: only a key
// seen for the first time is copied out.
func (c *KeyCount) countGram(gram string) {
	c.buf = append(append(c.buf[:0], sim.GramKeyPrefix...), gram...)
	n, ok := c.byKey.FindBytes(c.buf, (*keyColumn)(&c.key))
	if !ok {
		n = c.number(string(c.buf))
	}
	c.count(n)
}

// number returns the number of a key counted by string, giving a key seen
// for the first time the next one.
func (c *KeyCount) number(key string) uint32 {
	n, added := c.byKey.Insert(key, uint32(len(c.freq)), (*keyColumn)(&c.key))
	if added {
		c.freq, c.last, c.key = append(c.freq, 0), append(c.last, 0), append(c.key, key)
	}
	return n
}

// Add counts the keys of one record's pebbles — every segment's, as
// AppendPebbles would generate them — each distinct key once.
func (c *KeyCount) Add(pr *core.PreparedRecord) {
	c.records++
	for i, sg := range pr.Segs {
		d := pr.Table(i)
		if _, grams, ok := c.view.Entry(sg.ID()); ok {
			for k, n := range grams {
				if c.count(n) {
					c.key[n] = d.Grams[k]
				}
			}
		} else {
			q := c.gen.Ctx.GramQ()
			for o := range int(d.Occ) {
				g := sim.OccurrenceGram(d.Text, q, o)
				if n, ok := c.dict.GramNumber(g); ok && n < c.syn {
					if c.count(n) {
						c.key[n] = g
					}
				} else {
					c.countGram(g)
				}
			}
		}
		lhs, rhs := c.gen.Ctx.Rules.SideRules(d.Side)
		for _, ids := range [2][]int{lhs, rhs} {
			for _, id := range ids {
				if class := c.class[id]; c.count(c.syn + class) {
					c.key[c.syn+class] = c.gen.synKey(int(class))
				}
			}
		}
		for n := d.Node; n != taxonomy.InvalidNode; n = c.gen.Ctx.Tax.Node(n).Parent {
			if c.count(c.tax + uint32(n)) {
				c.key[c.tax+uint32(n)] = c.gen.taxKey(n)
			}
		}
	}
}

// addPebbles counts the keys of one string's pebbles, every one by string.
func (c *KeyCount) addPebbles(pebbles []Pebble) {
	c.records++
	for i := range pebbles {
		c.countKey(pebbles[i].Key)
	}
}

// Keys returns every key counted, first seen first. The keys of the grams
// the dictionary numbers are cut from one string built here.
func (c *KeyCount) Keys() []string {
	size := 0
	for _, n := range c.seen {
		if n < c.syn {
			size += len(sim.GramKeyPrefix) + len(c.key[n])
		}
	}
	var b strings.Builder
	b.Grow(size)
	for _, n := range c.seen {
		if n < c.syn {
			b.WriteString(sim.GramKeyPrefix)
			b.WriteString(c.key[n])
		}
	}
	all := b.String()
	keys := make([]string, len(c.seen))
	for i, n := range c.seen {
		if n >= c.syn {
			keys[i] = c.key[n]
			continue
		}
		size := len(sim.GramKeyPrefix) + len(c.key[n])
		keys[i], all = all[:size], all[size:]
	}
	return keys
}

// byFrequency returns every key counted with its frequency and number, in
// the global order (sortByFrequency).
func (c *KeyCount) byFrequency() []keyCount {
	counts := make([]keyCount, len(c.seen))
	for i, key := range c.Keys() {
		n := c.seen[i]
		counts[i] = keyCount{key: key, freq: c.freq[n], num: n}
	}
	sortByFrequency(counts)
	return counts
}

// Table returns every key counted with its document frequency: sorted, in
// finalize order — the FrequencyTable of the order Freeze would build,
// without building it — and otherwise first counted first, a table for
// MergeFrequencyTables, which sums tables in any order.
func (c *KeyCount) Table(sorted bool) ([]string, []int) {
	if !sorted {
		freqs := make([]int, len(c.seen))
		for i, n := range c.seen {
			freqs[i] = int(c.freq[n])
		}
		return c.Keys(), freqs
	}
	keys, freqs := make([]string, len(c.seen)), make([]int, len(c.seen))
	for i, kc := range c.byFrequency() {
		keys[i], freqs[i] = kc.key, int(kc.freq)
	}
	return keys, freqs
}

// Freeze interns every key counted into a new finalized Order, as Finalize
// interns the keys Add registered, and returns the order's IDs by key number.
func (c *KeyCount) Freeze() *KeyIDs {
	o := &Order{}
	var ids []uint32
	o.once.Do(func() { ids = o.freeze(c) })
	return &KeyIDs{keyNumbers: c.keyNumbers, order: o, ids: ids}
}

// KeyIDs is one order's IDs by key number: what an order generation's probe
// table is built from (ProbeTable), and dropped once it is.
type KeyIDs struct {
	keyNumbers
	order *Order
	// ids[n] is key number n's ID; NoID when the order lacks the key, and
	// unresolved until it is looked up by key, built in buf.
	ids []uint32
	buf []byte
}

// unresolved marks a key number whose ID has not been looked up yet.
const unresolved = NoID - 1

// KeyIDs returns o's IDs for the keys of every entry d holds now, each looked
// up by key the first time the probe table needs it — one lookup a distinct
// key, for an order counted elsewhere (restored or adopted from an image).
func (g *Generator) KeyIDs(d *core.SegDict, o *Order) *KeyIDs {
	o.Finalize()
	k := &KeyIDs{keyNumbers: g.numbers(d), order: o}
	k.ids = make([]uint32, k.size)
	for n := range k.ids {
		k.ids[n] = unresolved
	}
	return k
}

// Order returns the order the IDs are of.
func (k *KeyIDs) Order() *Order { return k.order }

// id returns key number n's ID, looking it up on first use by the key that
// key appends to a buffer.
func (k *KeyIDs) id(n uint32, key func([]byte) []byte) uint32 {
	id := k.ids[n]
	if id == unresolved {
		k.buf = key(k.buf[:0])
		var ok bool
		if id, ok = k.order.idOf(k.buf); !ok {
			id = NoID
		}
		k.ids[n] = id
	}
	return id
}

// ProbeTable builds the probe table of every entry of the numbering's
// dictionary capture under the order, from the IDs by key number: an
// entry's gram IDs by its gram numbers, its synonym IDs by rule and its
// taxonomy IDs by node.
func (k *KeyIDs) ProbeTable() *ProbeTable {
	t := &ProbeTable{synOff: []uint32{0}}
	var syn []Pebble
	for e := range k.view.Len() {
		d, grams, _ := k.view.Entry(uint32(e))
		start, synStart := len(t.ids), len(t.synW)
		ok := true
		// A gram occurring several times in the text is a pebble an
		// occurrence: the gram set in order, each gram as often as it occurs.
		for i, n := range grams {
			id := k.id(n, func(b []byte) []byte { return append(append(b, sim.GramKeyPrefix...), d.Grams[i]...) })
			ok = ok && id != NoID
			for range d.GramCount(i) {
				t.ids = append(t.ids, id)
			}
		}
		syn = syn[:0]
		lhs, rhs := k.gen.Ctx.Rules.SideRules(d.Side)
		for _, ids := range [2][]int{lhs, rhs} {
			for _, r := range ids {
				class := k.class[r]
				key := k.gen.synKey(int(class))
				id := k.id(k.syn+class, func(b []byte) []byte { return append(b, key...) })
				syn = append(syn, Pebble{Key: key, ID: id, Weight: k.gen.Ctx.Rules.Rule(r).C})
			}
		}
		for _, p := range distinctSynonyms(syn) {
			ok = ok && p.ID != NoID
			t.ids = append(t.ids, p.ID)
			t.synW = append(t.synW, p.Weight)
		}
		for n := d.Node; n != taxonomy.InvalidNode; n = k.gen.Ctx.Tax.Node(n).Parent {
			id := k.id(k.tax+uint32(n), func(b []byte) []byte { return append(b, k.gen.taxKey(n)...) })
			ok = ok && id != NoID
			t.ids = append(t.ids, id)
		}
		if !ok || uint64(len(t.ids)) > uint64(^uint32(0)) {
			// A key the order lacks, or an offset out of range: the entry
			// signs by key.
			t.ids, t.synW = t.ids[:start], t.synW[:synStart]
		} else if len(t.synW) > synStart {
			t.synAt = append(t.synAt, uint32(e))
			t.synOff = append(t.synOff, uint32(len(t.synW)))
		}
		t.ends = append(t.ends, uint32(len(t.ids)))
	}
	t.ids, t.ends = exact(t.ids), exact(t.ends)
	t.synAt, t.synOff, t.synW = exact(t.synAt), exact(t.synOff), exact(t.synW)
	return t
}

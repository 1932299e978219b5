package pebble

import (
	"slices"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/sim"
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

// gramKey returns the pebble key of gram k of a segment's table (d.Grams[k])
// from the keys the table holds.
func gramKey(d *sim.SegmentData, k int) string {
	for _, key := range d.GramKeys {
		if key[len(sim.GramKeyPrefix):] == d.Grams[k] {
			return key
		}
	}
	panic("pebble: a gram without its key")
}

// KeyCount counts the document frequencies of the pebble keys of prepared
// records by key number (keyNumbers), without generating a pebble: a segment
// the dictionary holds reads its gram numbers from it, and every segment's
// synonym and taxonomy keys are numbered by rule and node. Only a segment
// without an entry looks its gram keys up by string, first in the
// dictionary's gram numbers and then among the keys counted by string. An
// Order's Add counts through a KeyCount without a dictionary, every key by
// string. A KeyCount is not safe for concurrent use.
type KeyCount struct {
	keyNumbers
	// freq[n] is key number n's document frequency so far, last[n] the stamp
	// of the last record that counted it — records, the number of records
	// counted — so a record carrying a key several times counts it once, and
	// key[n] its key, set when first counted.
	freq, last []int32
	key        []string
	records    int32
	// seen lists the key numbers counted, first seen first; byKey numbers the
	// keys counted by string.
	seen  []uint32
	byKey map[string]uint32
}

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
	n, ok := c.byKey[key]
	if !ok {
		if c.byKey == nil {
			c.byKey = make(map[string]uint32)
		}
		n = uint32(len(c.freq))
		c.byKey[key] = n
		c.freq, c.last, c.key = append(c.freq, 0), append(c.last, 0), append(c.key, key)
	}
	c.count(n)
}

// Add counts the keys of one record's pebbles — every segment's, as
// AppendPebbles would generate them — each distinct key once.
func (c *KeyCount) Add(pr *core.PreparedRecord) {
	c.records++
	for i := range pr.Segs {
		sg := &pr.Segs[i]
		d := sg.Data
		if _, grams, ok := c.view.Entry(sg.ID); ok {
			for k, n := range grams {
				if c.count(n) {
					c.key[n] = gramKey(d, k)
				}
			}
		} else {
			for _, key := range d.GramKeys {
				if n, ok := c.dict.GramNumber(key[len(sim.GramKeyPrefix):]); ok && n < c.syn {
					if c.count(n) {
						c.key[n] = key
					}
				} else {
					c.countKey(key)
				}
			}
		}
		for _, ids := range [2][]int{d.LHS, d.RHS} {
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

// Keys returns every key counted, first seen first.
func (c *KeyCount) Keys() []string {
	keys := make([]string, len(c.seen))
	for i, n := range c.seen {
		keys[i] = c.key[n]
	}
	return keys
}

// byFrequency returns every key counted with its frequency and number, in
// the global order (sortByFrequency).
func (c *KeyCount) byFrequency() []keyCount {
	counts := make([]keyCount, len(c.seen))
	for i, n := range c.seen {
		counts[i] = keyCount{key: c.key[n], freq: c.freq[n], num: n}
	}
	sortByFrequency(counts)
	return counts
}

// Table returns every key counted with its document frequency: sorted, in
// finalize order — the FrequencyTable of the order Freeze would build,
// without building it — and otherwise first counted first, a table for
// MergeFrequencyTables, which sums tables in any order.
func (c *KeyCount) Table(sorted bool) ([]string, []int) {
	keys, freqs := make([]string, len(c.seen)), make([]int, len(c.seen))
	if !sorted {
		for i, n := range c.seen {
			keys[i], freqs[i] = c.key[n], int(c.freq[n])
		}
		return keys, freqs
	}
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
	// unresolved until it is looked up by key.
	ids []uint32
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

// id returns key number n's ID, looking it up by key on first use.
func (k *KeyIDs) id(n uint32, key func() string) uint32 {
	id := k.ids[n]
	if id == unresolved {
		var ok bool
		if id, ok = k.order.ID(key()); !ok {
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
	var mult []int32
	var syn []Pebble
	for e := range k.view.Len() {
		d, grams, _ := k.view.Entry(uint32(e))
		start, synStart := len(t.ids), len(t.synW)
		ok := true
		// A gram occurring several times in the text is a pebble an
		// occurrence: the gram set in order, each gram as often as it occurs.
		mult = mult[:0]
		for range grams {
			mult = append(mult, 1)
		}
		if len(d.GramKeys) != len(grams) {
			clear(mult)
			for _, key := range d.GramKeys {
				i, _ := slices.BinarySearch(d.Grams, key[len(sim.GramKeyPrefix):])
				mult[i]++
			}
		}
		for i, n := range grams {
			id := k.id(n, func() string { return gramKey(d, i) })
			ok = ok && id != NoID
			for range mult[i] {
				t.ids = append(t.ids, id)
			}
		}
		syn = syn[:0]
		for _, ids := range [2][]int{d.LHS, d.RHS} {
			for _, r := range ids {
				class := k.class[r]
				key := k.gen.synKey(int(class))
				id := k.id(k.syn+class, func() string { return key })
				syn = append(syn, Pebble{Key: key, ID: id, Weight: k.gen.Ctx.Rules.Rule(r).C})
			}
		}
		for _, p := range distinctSynonyms(syn) {
			ok = ok && p.ID != NoID
			t.ids = append(t.ids, p.ID)
			t.synW = append(t.synW, p.Weight)
		}
		for n := d.Node; n != taxonomy.InvalidNode; n = k.gen.Ctx.Tax.Node(n).Parent {
			id := k.id(k.tax+uint32(n), func() string { return k.gen.taxKey(n) })
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

package pebble

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/aujoin/aujoin/internal/strutil"
)

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
// The interned keys are the order's frozen prefix, one immutable Frozen
// value: the keys in one arena string, their frequencies, and a KeyTable of
// IDs over the arena, with no map keyed by text. Orders may share one
// Frozen — a cluster worker restores an adopted image once for every group
// it hosts (Frozen.Order) — and each wraps it with a dynamic region of its
// own.
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
// rebuild) once DynamicCount exceeds a fraction of the frozen prefix. The
// region belongs to its Order alone: a key one order interns dynamically is
// in no other order over the same Frozen.
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

	once sync.Once
	fz   *Frozen // the frozen prefix, set at Finalize

	dmu sync.Mutex               // serializes InternDynamic writers
	dyn atomic.Pointer[dynTable] // append-only dynamic region, nil until first InternDynamic
}

// Frozen is the frozen prefix of an order: its keys in dense-ID order, each
// with the document frequency it was frozen at. The keys are substrings of
// one arena string, so a key costs its text, a 4-byte offset, a 4-byte
// frequency and its KeyTable slots. A Frozen never changes once built, and
// any number of Orders may wrap it (Order).
type Frozen struct {
	arena string
	offs  []uint32 // ID → start of its key in arena; one more than keys
	freqs []int32  // ID → document frequency
	index strutil.KeyTable
}

// Key returns the key of frozen ID id: its KeySource.
func (f *Frozen) Key(id uint32) string { return f.arena[f.offs[id]:f.offs[id+1]] }

// Len returns the number of frozen keys.
func (f *Frozen) Len() int { return len(f.freqs) }

// Order returns a new finalized order over f with an empty dynamic region.
func (f *Frozen) Order() *Order { return &Order{fz: f} }

// newFrozen builds the frozen value of n keys in ID order, key(i) and
// freq(i) the i-th's. It returns, with it, the first ID whose key an
// earlier ID holds (n when none does).
func newFrozen(n int, key func(int) string, freq func(int) int32) (*Frozen, int, error) {
	size := 0
	for i := range n {
		size += len(key(i))
	}
	if uint64(size) > math.MaxUint32 {
		return nil, n, fmt.Errorf("pebble: %d bytes of frozen keys, above the limit %d", size, uint32(math.MaxUint32))
	}
	var b strings.Builder
	b.Grow(size)
	for i := range n {
		b.WriteString(key(i))
	}
	f := &Frozen{arena: b.String(), offs: make([]uint32, n+1), freqs: make([]int32, n), index: strutil.NewKeyTable(n)}
	dup := n
	for i := range n {
		f.offs[i+1] = f.offs[i] + uint32(len(key(i)))
		f.freqs[i] = freq(i)
		if _, added := f.index.Insert(f.Key(uint32(i)), uint32(i), f); !added && dup == n {
			dup = i
		}
	}
	return f, dup, nil
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
// KeyCount.Freeze number the frozen IDs by it, FrequencyTable and
// KeyCount.Table read its result, and MergeFrequencyTables sorts the sum of
// several tables by it.
func sortByFrequency(counts []keyCount) {
	slices.SortFunc(counts, func(a, b keyCount) int {
		return cmp.Or(cmp.Compare(a.freq, b.freq), strings.Compare(a.key, b.key))
	})
}

// dynTable is one immutable state of the dynamic intern region: its keys in
// append order and a KeyTable of their places among them. Writers
// clone-and-swap it, copying two slices; readers load it once per operation.
// Document frequencies are deliberately not tracked here: nothing consumes
// them (a rebuild re-derives true frequencies from the live records), and
// their absence lets an insert whose keys are all already interned skip the
// clone entirely.
type dynTable struct {
	index strutil.KeyTable // key → its place in keys
	keys  []string         // ID - frozen keys → key
}

// Key returns the key at place i of the region: its KeySource.
func (d *dynTable) Key(i uint32) string { return d.keys[i] }

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
	counts := c.byFrequency()
	fz, _, err := newFrozen(len(counts), func(i int) string { return counts[i].key }, func(i int) int32 { return counts[i].freq })
	if err != nil {
		panic(err)
	}
	byNum := make([]uint32, len(c.freq))
	for n := range byNum {
		byNum[n] = NoID
	}
	for i, kc := range counts {
		byNum[kc.num] = uint32(i)
	}
	o.fz = fz
	return byNum
}

// Frozen returns the order's frozen prefix; it finalizes the order.
func (o *Order) Frozen() *Frozen {
	o.Finalize()
	return o.fz
}

// MaxFrequency returns the highest document frequency recorded at Finalize
// time (0 for an empty order). Dynamically interned keys are not counted —
// their frequencies are unknown until a rebuild re-freezes the order — so
// on an order with a non-empty dynamic region the value is a lower bound.
// Frequencies are sorted ascending, so the last frozen key carries it.
func (o *Order) MaxFrequency() int {
	o.Finalize()
	if n := len(o.fz.freqs); n > 0 {
		return int(o.fz.freqs[n-1])
	}
	return 0
}

// NumKeys returns the number of interned keys, frozen prefix plus dynamic
// region; valid after Finalize.
func (o *Order) NumKeys() int { return o.fz.Len() + o.DynamicCount() }

// FrozenKeys returns the number of keys interned at Finalize time.
func (o *Order) FrozenKeys() int { return o.fz.Len() }

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
func (o *Order) ID(key string) (uint32, bool) {
	if id, ok := o.fz.index.Find(key, o.fz); ok {
		return id, true
	}
	return o.dyn.Load().lookup(key, o.fz.Len())
}

// idOf is ID for a key in bytes, looked up without copying it.
func (o *Order) idOf(key []byte) (uint32, bool) {
	if id, ok := o.fz.index.FindBytes(key, o.fz); ok {
		return id, true
	}
	if d := o.dyn.Load(); d != nil {
		if i, ok := d.index.FindBytes(key, d); ok {
			return uint32(o.fz.Len()) + i, true
		}
	}
	return 0, false
}

// KeyOf returns the key of an interned ID; valid after Finalize. It
// allocates nothing.
func (o *Order) KeyOf(id uint32) string {
	if n := o.fz.Len(); int(id) >= n {
		return o.dyn.Load().keys[int(id)-n]
	}
	return o.fz.Key(id)
}

// Intern stamps each pebble with the interned ID of its key (NoID for keys
// unknown to the order). Valid after Finalize.
func (o *Order) Intern(pebbles []Pebble) {
	dyn := o.dyn.Load()
	for i := range pebbles {
		if id, ok := o.fz.index.Find(pebbles[i].Key, o.fz); ok {
			pebbles[i].ID = id
		} else if id, ok := dyn.lookup(pebbles[i].Key, o.fz.Len()); ok {
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
		if _, ok := o.fz.index.Find(key, o.fz); ok {
			continue
		}
		if next == nil {
			if _, ok := old.lookup(key, 0); ok {
				continue
			}
			next = old.clone()
		}
		if _, ok := next.index.Insert(key, uint32(len(next.keys)), next); ok {
			next.keys = append(next.keys, key)
			added++
		}
	}
	if next != nil {
		o.dyn.Store(next)
	}
	return added
}

// lookup is a nil-safe dynamic-table probe: the ID of key in a region that
// starts at ID base.
func (d *dynTable) lookup(key string, base int) (uint32, bool) {
	if d == nil {
		return 0, false
	}
	i, ok := d.index.Find(key, d)
	return uint32(base) + i, ok
}

// clone copies a dynamic table (nil yields an empty table).
func (d *dynTable) clone() *dynTable {
	if d == nil {
		return &dynTable{}
	}
	return &dynTable{index: d.index.Clone(), keys: slices.Clone(d.keys)}
}

// Frequency returns the document frequency recorded at Finalize time (0 for
// keys unseen then, including dynamically interned ones — a rebuild
// re-derives true frequencies from the live records). It finalizes the
// order.
func (o *Order) Frequency(key string) int {
	o.Finalize()
	if id, ok := o.fz.index.Find(key, o.fz); ok {
		return int(o.fz.freqs[id])
	}
	return 0
}

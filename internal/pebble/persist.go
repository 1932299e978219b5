package pebble

import (
	"fmt"
	"math"

	"github.com/aujoin/aujoin/internal/strutil"
)

// FrequencyTable returns every key registered through Add with its document
// frequency, sorted exactly as Finalize interns them (frequency ascending,
// key ascending on ties). The pair round-trips through RestoreOrder: feeding
// it back as the frozen image reproduces the order Finalize would have
// built. It finalizes the order and returns its frozen prefix, so it never
// includes dynamically interned keys (their global frequencies are unknown).
// The keys are views of the order's arena.
func (o *Order) FrequencyTable() ([]string, []int) {
	fz := o.Frozen()
	keys, freqs := make([]string, fz.Len()), make([]int, fz.Len())
	for i := range keys {
		keys[i], freqs[i] = fz.Key(uint32(i)), int(fz.freqs[i])
	}
	return keys, freqs
}

// MergeFrequencyTables sums frequency tables over disjoint record sets —
// keys[t] and freqs[t] are table t, as FrequencyTable returns it — into the
// table of their union, sorted as Finalize sorts. Document frequencies of
// disjoint sets add, so the result is exactly the FrequencyTable of one order
// counted over every record. A table whose keys and frequencies differ in
// length is rejected.
func MergeFrequencyTables(keys [][]string, freqs [][]int) ([]string, []int, error) {
	if len(keys) != len(freqs) {
		return nil, nil, fmt.Errorf("pebble: %d key lists but %d frequency lists", len(keys), len(freqs))
	}
	slot := make(map[string]int)
	var counts []keyCount
	for t, ks := range keys {
		if len(freqs[t]) != len(ks) {
			return nil, nil, fmt.Errorf("pebble: table %d has %d keys but %d frequencies", t, len(ks), len(freqs[t]))
		}
		for i, k := range ks {
			s, ok := slot[k]
			if !ok {
				s = len(counts)
				slot[k] = s
				counts = append(counts, keyCount{key: k})
			}
			counts[s].freq += int32(freqs[t][i])
		}
	}
	sortByFrequency(counts)
	outKeys, outFreqs := make([]string, len(counts)), make([]int, len(counts))
	for i, c := range counts {
		outKeys[i], outFreqs[i] = c.key, int(c.freq)
	}
	return outKeys, outFreqs, nil
}

// RestoreFrozen rebuilds the frozen prefix of an order from its image: the
// keys in dense-ID order with the document frequencies recorded at the
// original Finalize. The keys are copied into the value's one arena, so the
// image's strings are not kept. Orders over the result (Frozen.Order) carry
// the original's IDs and frequencies; RestoreOrder adds a dynamic region.
func RestoreFrozen(frozenKeys []string, freqs []int) (*Frozen, error) {
	if len(freqs) != len(frozenKeys) {
		return nil, fmt.Errorf("pebble: %d frozen keys but %d frequencies", len(frozenKeys), len(freqs))
	}
	unordered := len(frozenKeys)
	for i := 1; i < len(frozenKeys); i++ {
		if freqs[i] < freqs[i-1] || (freqs[i] == freqs[i-1] && frozenKeys[i] <= frozenKeys[i-1]) {
			unordered = i
			break
		}
	}
	for i, f := range freqs {
		if f < 0 || f > math.MaxInt32 {
			return nil, fmt.Errorf("pebble: frozen key %d has frequency %d, outside 0..%d", i, f, math.MaxInt32)
		}
	}
	fz, dup, err := newFrozen(len(frozenKeys), func(i int) string { return frozenKeys[i] }, func(i int) int32 { return int32(freqs[i]) })
	switch {
	case err != nil:
		return nil, err
	case unordered <= dup && unordered < len(frozenKeys):
		return nil, fmt.Errorf("pebble: frozen keys not in finalize order at %d", unordered)
	case dup < len(frozenKeys):
		return nil, fmt.Errorf("pebble: duplicate frozen key %q", frozenKeys[dup])
	}
	return fz, nil
}

// RestoreOrder reconstructs a finalized Order from its serialized image:
// the frozen prefix in dense-ID order with the document frequencies
// recorded at the original Finalize (RestoreFrozen), followed by the
// dynamic region in append order. The result is indistinguishable from the
// original order — same IDs, same frequencies, same MaxFrequency, same
// dynamic tail — which is what makes a restored index's records, signed
// again under it, carry the signatures the captured index held, and keeps
// probe-side signature selection bit-identical after a restart.
func RestoreOrder(frozenKeys []string, freqs []int, dynamicKeys []string) (*Order, error) {
	fz, err := RestoreFrozen(frozenKeys, freqs)
	if err != nil {
		return nil, err
	}
	o := fz.Order()
	if len(dynamicKeys) > 0 {
		d := &dynTable{index: strutil.NewKeyTable(len(dynamicKeys)), keys: make([]string, 0, len(dynamicKeys))}
		for _, k := range dynamicKeys {
			if _, frozen := fz.index.Find(k, fz); frozen {
				return nil, fmt.Errorf("pebble: dynamic key %q shadows a frozen key", k)
			}
			if _, added := d.index.Insert(k, uint32(len(d.keys)), d); !added {
				return nil, fmt.Errorf("pebble: duplicate dynamic key %q", k)
			}
			d.keys = append(d.keys, k)
		}
		o.dyn.Store(d)
	}
	return o, nil
}

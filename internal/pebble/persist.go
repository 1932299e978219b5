package pebble

import "fmt"

// FrequencyTable returns every key registered through Add with its document
// frequency, sorted exactly as Finalize interns them (frequency ascending,
// key ascending on ties). The pair round-trips through RestoreOrder: feeding
// it back as the frozen image reproduces the order Finalize would have
// built. It finalizes the order and returns its frozen prefix, so it never
// includes dynamically interned keys (their global frequencies are unknown).
func (o *Order) FrequencyTable() ([]string, []int) {
	o.Finalize()
	return append(make([]string, 0, len(o.keys)), o.keys...), append(make([]int, 0, len(o.freqs)), o.freqs...)
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

// RestoreOrder reconstructs a finalized Order from its serialized image:
// the frozen prefix in dense-ID order with the document frequencies
// recorded at the original Finalize, followed by the dynamic region in
// append order. The result is indistinguishable from the original order —
// same IDs, same frequencies, same MaxFrequency, same dynamic tail — which
// is what keeps restored signatures valid prefixes and probe-side
// signature selection bit-identical after a restart.
func RestoreOrder(frozenKeys []string, freqs []int, dynamicKeys []string) (*Order, error) {
	if len(freqs) != len(frozenKeys) {
		return nil, fmt.Errorf("pebble: %d frozen keys but %d frequencies", len(frozenKeys), len(freqs))
	}
	ids := make(map[string]uint32, len(frozenKeys))
	keys := make([]string, len(frozenKeys))
	for i, k := range frozenKeys {
		if i > 0 {
			prevF, prevK := freqs[i-1], frozenKeys[i-1]
			if freqs[i] < prevF || (freqs[i] == prevF && k <= prevK) {
				return nil, fmt.Errorf("pebble: frozen keys not in finalize order at %d", i)
			}
		}
		if _, dup := ids[k]; dup {
			return nil, fmt.Errorf("pebble: duplicate frozen key %q", k)
		}
		ids[k] = uint32(i)
		keys[i] = k
	}

	o := &Order{}
	o.once.Do(func() {
		o.ids = ids
		o.keys = keys
		o.freqs = append([]int(nil), freqs...)
		if len(freqs) > 0 {
			o.maxFreq = freqs[len(freqs)-1]
		}
	})

	if len(dynamicKeys) > 0 {
		d := &dynTable{ids: make(map[string]uint32, len(dynamicKeys))}
		for i, k := range dynamicKeys {
			if _, frozen := ids[k]; frozen {
				return nil, fmt.Errorf("pebble: dynamic key %q shadows a frozen key", k)
			}
			if _, dup := d.ids[k]; dup {
				return nil, fmt.Errorf("pebble: duplicate dynamic key %q", k)
			}
			d.ids[k] = uint32(len(keys) + i)
			d.keys = append(d.keys, k)
		}
		o.dyn.Store(d)
	}
	return o, nil
}

package strutil

import (
	"fmt"
	"testing"
)

// keyList is the text of a test table's keys by ID.
type keyList []string

func (l *keyList) Key(id uint32) string { return (*l)[id] }

// checkKeyTable holds a table to the map it was built beside: every key
// found by string and by bytes under its ID, and each probe absent from the
// map absent from the table.
func checkKeyTable(t *testing.T, tab *KeyTable, keys *keyList, want map[string]uint32, probes []string) {
	t.Helper()
	if tab.Len() != len(want) {
		t.Fatalf("Len %d, want %d", tab.Len(), len(want))
	}
	if tab.Len() > 0 && 2*tab.Len() > len(tab.slots) {
		t.Fatalf("%d keys in %d slots: load above 1/2", tab.Len(), len(tab.slots))
	}
	for _, k := range append(probes, *keys...) {
		wid, wok := want[k]
		id, ok := tab.Find(k, keys)
		bid, bok := tab.FindBytes([]byte(k), keys)
		if ok != wok || bok != wok || (wok && (id != wid || bid != wid)) {
			t.Fatalf("key %q: Find (%d, %v), FindBytes (%d, %v), want (%d, %v)", k, id, ok, bid, bok, wid, wok)
		}
	}
}

// addKeys inserts every key into the table and the reference, IDs in
// first-seen order, checking each Insert's answer.
func addKeys(t *testing.T, tab *KeyTable, keys *keyList, want map[string]uint32, add []string) {
	t.Helper()
	for _, k := range add {
		wid, had := want[k]
		id, added := tab.Insert(k, uint32(len(*keys)), keys)
		if added == had || (had && id != wid) {
			t.Fatalf("Insert(%q): (%d, %v), want held ID %d: %v", k, id, added, wid, had)
		}
		if added {
			want[k] = id
			*keys = append(*keys, k)
		}
	}
}

func TestKeyTableGrowthBoundaries(t *testing.T) {
	for _, same := range []bool{false, true} {
		sameHash = same
		var tab KeyTable
		var keys keyList
		want := map[string]uint32{}
		// Every key count from 0 to past four doublings, with the empty key
		// and keys that are prefixes of one another.
		for n := 0; n <= 70; n++ {
			k := fmt.Sprintf("k%04d", n/2)[:1+n%5]
			if n%7 == 0 {
				k = ""
			}
			addKeys(t, &tab, &keys, want, []string{k, fmt.Sprintf("key%03d", n)})
			checkKeyTable(t, &tab, &keys, want, []string{"missing", "k", "key", "key0000"})
		}
		sized := NewKeyTable(len(keys))
		var again keyList
		addKeys(t, &sized, &again, map[string]uint32{}, keys)
		if len(sized.slots) != len(tab.slots) && !same {
			t.Errorf("NewKeyTable(%d): %d slots, grown table %d", len(keys), len(sized.slots), len(tab.slots))
		}
		clone := tab.Clone()
		addKeys(t, &clone, &keys, want, []string{"only in the clone"})
		delete(want, "only in the clone")
		keys = keys[:len(keys)-1]
		checkKeyTable(t, &tab, &keys, want, []string{"only in the clone"})
	}
	sameHash = false
}

func TestKeyTableLookupAllocs(t *testing.T) {
	var tab KeyTable
	keys := keyList{}
	addKeys(t, &tab, &keys, map[string]uint32{}, []string{"g:abc", "g:abd", "s:coffee shop"})
	b := []byte("g:abd")
	if n := testing.AllocsPerRun(100, func() {
		tab.Find("s:coffee shop", &keys)
		tab.FindBytes(b, &keys)
		tab.Find("absent", &keys)
	}); n != 0 {
		t.Errorf("%v allocations a lookup round, want 0", n)
	}
}

// FuzzKeyTable holds the table to a map[string]uint32 over random adds and
// lookups, by string and by bytes. The input is split on 0xff into keys: a
// key led by an even byte is added, an odd one only looked up. The first
// byte's low bit forces every hash equal (the test seam), so that every
// slot of the run is compared by text.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte("\x00a\xffab\xffabc\xff\xff\x01a"))
	f.Add([]byte("\x01\xff\x00\xff\x00x\xff\x02xy\xff\x03xyz"))
	f.Add([]byte("\x00k1\xff\x00k2\xff\x00k3\xff\x00k4\xff\x00k5\xff\x00k6\xff\x00k7\xff\x00k8\xff\x00k9"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sameHash = data[0]&1 == 1
		defer func() { sameHash = false }()
		var tab KeyTable
		var keys keyList
		want := map[string]uint32{}
		var probes []string
		start := 1
		for i := 1; i <= len(data); i++ {
			if i < len(data) && data[i] != 0xff {
				continue
			}
			k := string(data[start:i])
			start = i + 1
			if k != "" && k[0]&1 == 1 {
				probes = append(probes, k[1:])
				continue
			}
			if k != "" {
				k = k[1:]
			}
			addKeys(t, &tab, &keys, want, []string{k})
			checkKeyTable(t, &tab, &keys, want, probes)
		}
		checkKeyTable(t, &tab, &keys, want, probes)
	})
}

// arenaKeys is a KeySource over one arena string, the frozen order's layout.
type arenaKeys struct {
	arena string
	offs  []uint32
}

func (a *arenaKeys) Key(id uint32) string { return a.arena[a.offs[id]:a.offs[id+1]] }

// BenchmarkKeyTableFind looks keys of a 30 000-key table up by bytes, three
// hits to one miss, in the table over an arena and in the map[string]uint32
// it replaces, for comparison.
func BenchmarkKeyTableFind(b *testing.B) {
	const n = 30000
	var arena []byte
	src := &arenaKeys{offs: []uint32{0}}
	for i := range n {
		arena = fmt.Appendf(arena, "g:%05x", i*7919)
		src.offs = append(src.offs, uint32(len(arena)))
	}
	src.arena = string(arena)
	tab := NewKeyTable(n)
	ref := make(map[string]uint32, n)
	for i := range n {
		k := src.Key(uint32(i))
		tab.Insert(k, uint32(i), src)
		ref[k] = uint32(i)
	}
	probes := make([][]byte, 4096)
	for i := range probes {
		if i%4 == 3 {
			probes[i] = fmt.Appendf(nil, "s:%05x", i) // absent
		} else {
			probes[i] = []byte(src.Key(uint32(i * 7 % n)))
		}
	}
	b.Run("table", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			tab.FindBytes(probes[i%len(probes)], src)
		}
	})
	b.Run("map", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			_ = ref[string(probes[i%len(probes)])]
		}
	})
}

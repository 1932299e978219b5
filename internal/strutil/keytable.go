package strutil

import "hash/maphash"

// KeySource returns the text of a key by the ID a KeyTable holds for it.
// The table keeps no key: its owner keeps the text wherever it already
// lives (an arena, a table of derivations) and hands it back here.
type KeySource interface {
	Key(id uint32) string
}

// KeyTable indexes string keys by uint32 ID without holding them: an
// open-addressing table whose slots form one power-of-two array, each slot
// an ID and the top 32 bits of the key's hash (its tag), at a load of at
// most ½. A lookup hashes the key (hash/maphash over its bytes), walks the
// slots from the tag's home, and compares text — read through the owner's
// KeySource — only at a slot whose tag is the key's. A slot's home is the
// top bits of its tag, so the table grows without reading a key. Lookups by
// string and by []byte allocate nothing. Keys are only added, never
// removed.
//
// A KeyTable is not safe for concurrent writes; reads may run concurrently
// with each other, and an owner that publishes it to readers writes only a
// clone (Clone) or under its own lock.
type KeyTable struct {
	// slots[i] is 0 when empty, and otherwise tag<<32 | ID+1.
	slots []uint64
	n     int
}

// minSlots is the size of a table's first slot array.
const minSlots = 8

var seed = maphash.MakeSeed()

// sameHash makes every key hash alike, so that tests reach the key compare
// at every slot of one long run.
var sameHash bool

func hashString(key string) uint32 {
	if sameHash {
		return 0
	}
	return uint32(maphash.String(seed, key) >> 32)
}

func hashBytes(key []byte) uint32 {
	if sameHash {
		return 0
	}
	return uint32(maphash.Bytes(seed, key) >> 32)
}

// NewKeyTable returns a table sized to hold n keys without growing.
func NewKeyTable(n int) KeyTable {
	size := minSlots
	for size < 2*n {
		size *= 2
	}
	return KeyTable{slots: make([]uint64, size)}
}

// Len returns the number of keys the table holds.
func (t *KeyTable) Len() int { return t.n }

// home returns the first slot a tag probes and the mask that wraps a probe.
func (t *KeyTable) home(tag uint32) (int, int) {
	mask := len(t.slots) - 1
	return int(uint64(tag) * uint64(len(t.slots)) >> 32), mask
}

// Find returns the ID of key, whose text keys returns by ID.
func (t *KeyTable) Find(key string, keys KeySource) (uint32, bool) {
	if t.n == 0 {
		return 0, false
	}
	tag := hashString(key)
	i, mask := t.home(tag)
	for ; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if uint32(s>>32) == tag && keys.Key(uint32(s)-1) == key {
			return uint32(s) - 1, true
		}
	}
}

// FindBytes is Find for a key in bytes.
func (t *KeyTable) FindBytes(key []byte, keys KeySource) (uint32, bool) {
	if t.n == 0 {
		return 0, false
	}
	tag := hashBytes(key)
	i, mask := t.home(tag)
	for ; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if uint32(s>>32) == tag && keys.Key(uint32(s)-1) == string(key) {
			return uint32(s) - 1, true
		}
	}
}

// Insert returns the ID key already has and false, or gives key the ID id
// and returns it and true. The caller stores the text so that keys returns
// it for id before the next lookup. id must be below 2³² − 1.
func (t *KeyTable) Insert(key string, id uint32, keys KeySource) (uint32, bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	tag := hashString(key)
	i, mask := t.home(tag)
	for ; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = uint64(tag)<<32 | uint64(id+1)
			t.n++
			return id, true
		}
		if uint32(s>>32) == tag && keys.Key(uint32(s)-1) == key {
			return uint32(s) - 1, false
		}
	}
}

// grow doubles the slot array, placing every slot by its tag alone.
func (t *KeyTable) grow() {
	old := t.slots
	t.slots = make([]uint64, max(minSlots, 2*len(old)))
	for _, s := range old {
		if s == 0 {
			continue
		}
		i, mask := t.home(uint32(s >> 32))
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// Clone returns a copy of the table that shares no slot with it.
func (t *KeyTable) Clone() KeyTable {
	return KeyTable{slots: append([]uint64(nil), t.slots...), n: t.n}
}

package core

import (
	"strings"
	"sync"

	"github.com/aujoin/aujoin/internal/strutil"
)

// PreparedCache is a bounded, thread-safe cache of PreparedRecord values
// keyed by the record's normalised text. The dynamic join index threads one
// through Insert so that re-inserting a previously seen string (the common
// shape of deduplication feeds, where the same catalog row is deleted and
// re-ingested) skips the segment enumeration and derivation tables of
// Calculator.Prepare entirely. Cached records are immutable, so sharing one
// *PreparedRecord across index generations and goroutines is safe.
//
// Eviction is FIFO: once the capacity is reached the oldest-inserted entry
// is dropped. That is deliberately simpler than LRU — the cache exists to
// absorb short-range repetition in an ingest stream, not to model a working
// set — and keeps Put O(1) without a recency list.
type PreparedCache struct {
	mu       sync.Mutex
	capacity int
	m        map[string]*PreparedRecord
	queue    []string // FIFO eviction order; queue[head:] are live keys
	head     int
	hits     uint64
	misses   uint64
}

// DefaultPreparedCacheSize is the capacity used when a dynamic index
// creates its own cache.
const DefaultPreparedCacheSize = 4096

// NewPreparedCache creates a cache holding at most capacity prepared
// records (capacity ≤ 0 selects DefaultPreparedCacheSize).
func NewPreparedCache(capacity int) *PreparedCache {
	if capacity <= 0 {
		capacity = DefaultPreparedCacheSize
	}
	return &PreparedCache{capacity: capacity, m: make(map[string]*PreparedRecord)}
}

// Get returns the cached prepared record for a key, if present.
func (pc *PreparedCache) Get(key string) (*PreparedRecord, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pr, ok := pc.m[key]
	if ok {
		pc.hits++
	} else {
		pc.misses++
	}
	return pr, ok
}

// Put stores a prepared record under a key, evicting the oldest entry when
// the cache is full. Storing an already-present key refreshes nothing (the
// record is immutable, so both values are interchangeable).
func (pc *PreparedCache) Put(key string, pr *PreparedRecord) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if _, ok := pc.m[key]; ok {
		return
	}
	for len(pc.m) >= pc.capacity && pc.head < len(pc.queue) {
		old := pc.queue[pc.head]
		pc.head++
		delete(pc.m, old)
	}
	if pc.head > len(pc.queue)/2 && pc.head > 64 {
		pc.queue = append([]string(nil), pc.queue[pc.head:]...)
		pc.head = 0
	}
	pc.m[key] = pr
	pc.queue = append(pc.queue, key)
}

// Len returns the number of cached records.
func (pc *PreparedCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.m)
}

// Stats returns the cumulative hit and miss counts.
func (pc *PreparedCache) Stats() (hits, misses uint64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses
}

// PrepareCached is Calculator.PrepareIn of raw's tokens (strutil.Tokenize)
// through a cache keyed by raw's normal form (strutil.Normalize): the
// prepared record is returned from pc when present, with raw never split,
// and computed-and-stored otherwise. A normal raw is its own key, so the
// cache holds no copy of its text. A nil cache degrades to a plain
// PrepareIn. A cache must only ever be used with one dictionary: its records
// carry that dictionary's segment IDs.
func (c *Calculator) PrepareCached(pc *PreparedCache, d *SegDict, raw string) *PreparedRecord {
	key := strutil.Normalize(raw)
	if pc != nil {
		if pr, ok := pc.Get(key); ok {
			return pr
		}
	}
	var tokens []string
	if key != "" {
		tokens = strings.Split(key, " ") // Tokenize(raw), without normalizing again
	}
	pr := c.PrepareIn(d, tokens)
	if pc != nil {
		pc.Put(key, pr)
	}
	return pr
}

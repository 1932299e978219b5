package join

import (
	"fmt"
	"math"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/pebble"
)

// This file holds the hooks the cluster layer builds on: inserts with
// caller-assigned stable IDs, export of the live key-frequency table, and
// adoption of an externally built frozen order (the worker side of the
// coordinator's order-sync protocol).

// InsertBatchRecords appends records whose stable IDs the caller assigned —
// the cluster coordinator allocates IDs centrally so every replica of a
// group indexes byte-identical content under identical IDs. IDs must be
// non-negative, at most math.MaxUint32 (the snapshot format stores a stable
// ID in 32 bits) and unique within the batch; reusing a live ID is the
// caller's protocol error (the routing hash would still send it to the
// right shard, but the duplicate would shadow the original in position
// maps), so replay protection belongs to the caller's sequencing layer.
func (sx *ShardedIndex) InsertBatchRecords(ids []int, raw []string) error {
	if len(ids) != len(raw) {
		return fmt.Errorf("join: %d ids for %d records", len(ids), len(raw))
	}
	if len(raw) == 0 {
		return nil
	}
	seen := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		if id < 0 {
			return fmt.Errorf("join: negative record id %d", id)
		}
		if uint64(id) > math.MaxUint32 {
			return fmt.Errorf("join: record id %d above the limit %d", id, uint32(math.MaxUint32))
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("join: duplicate record id %d in batch", id)
		}
		seen[id] = struct{}{}
	}
	sx.mu.Lock()
	for _, id := range ids {
		if id >= sx.nextID {
			sx.nextID = id + 1
		}
	}
	sx.mu.Unlock()

	sx.insertRouted(ids, raw)
	return nil
}

// KeyFrequencies returns every pebble key over the index's current live
// records with its document frequency, in finalize order (frequency
// ascending, key ascending on ties) — the table an epoch bump's coordinator
// sums across groups into the next global frozen order. The live set is
// collected under every shard's writer lock (one atomic cut); the frequency
// count itself runs after the locks drop, over the prepared records the
// shards hold, which are immutable.
func (sx *ShardedIndex) KeyFrequencies() ([]string, []int) {
	sx.refreezeMu.Lock()
	unlock := sx.lockShards()
	live := make([][]*core.PreparedRecord, len(sx.shards))
	for w, sh := range sx.shards {
		_, live[w], _ = sh.liveLocked()
	}
	unlock()
	sx.refreezeMu.Unlock()

	order, _ := sx.joiner.orderOf(live...)
	return order.FrequencyTable()
}

// AdoptOrder replaces the index's pebble order with an externally built
// frozen order — the worker side of a cluster epoch bump's prepare phase.
// The (keys, freqs) image must be in finalize order, as produced by
// KeyFrequencies (after the coordinator sums the groups' tables). Adoption
// is a re-freeze (refreezeLocked) whose next order comes from outside: every
// shard is rebuilt under it while all writer locks are held, and readers
// never block — they are served the cached pre-adoption snapshot. Keys
// present in live records but missing from the image (a mutation that raced
// the coordinator's frequency collection) are interned into the adopted
// order's dynamic region first, so adoption is correct regardless of what
// the coordinator saw; the interning is deterministic across replicas
// because replicas hold identical records in identical positions. After
// adoption the index never re-freezes on its own: order ownership has moved
// to the coordinator, and local rebuilds keep compacting shards under the
// adopted order.
func (sx *ShardedIndex) AdoptOrder(keys []string, freqs []int) error {
	order, err := pebble.RestoreOrder(keys, freqs, nil)
	if err != nil {
		return err
	}
	sx.refreezeMu.Lock()
	defer sx.refreezeMu.Unlock()
	sx.refreezeLocked(func(live ...[]*core.PreparedRecord) (*pebble.Order, [][][]pebble.Pebble) {
		// Defensive intern: any live key the image lacks — none, when nothing
		// raced the collection — joins the dynamic region before signatures
		// are re-selected under the adopted order, from the pebbles generated
		// here.
		generated := sx.joiner.generate(live...)
		var missing []pebble.Pebble
		for _, part := range generated {
			for _, pebbles := range part {
				for _, p := range pebbles {
					if _, ok := order.ID(p.Key); !ok {
						missing = append(missing, p)
					}
				}
			}
		}
		order.InternDynamic(missing)
		return order, generated
	})
	sx.noRefreeze.Store(true)
	return nil
}

// DisableRefreeze turns off self-triggered global re-finalizes: a cluster
// worker's order is owned by the coordinator's epoch protocol, so the index
// must never decide on its own to re-freeze (per-shard compaction rebuilds,
// which keep the order, stay enabled).
func (sx *ShardedIndex) DisableRefreeze() {
	sx.refreezeMu.Lock()
	sx.noRefreeze.Store(true)
	sx.refreezeMu.Unlock()
}

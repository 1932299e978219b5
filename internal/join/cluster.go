package join

import (
	"fmt"
	"math"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// This file holds the hooks the cluster layer builds on: builds and inserts
// with caller-assigned stable IDs, export of the live key-frequency table, and
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
	if err := checkIDs(ids, raw); err != nil || len(raw) == 0 {
		return err
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

// BuildShardedIndexWithIDs is BuildShardedIndex over records whose stable
// IDs the caller assigned, under InsertBatchRecords' rules for them: a
// cluster worker builds its share of the catalog with it, under the IDs the
// coordinator allocated. The records take the one build path (assemble), so
// no record is inserted: the index has no delta segment, no dynamic key and
// no compaction behind it, and its order is counted over the whole
// collection.
func (j *Joiner) BuildShardedIndexWithIDs(ids []int, raw []string, shards int, opts Options, dopts DynamicOptions) (*ShardedIndex, error) {
	if err := checkIDs(ids, raw); err != nil {
		return nil, err
	}
	records := make([]strutil.Record, len(raw))
	for i, s := range raw {
		records[i] = strutil.NewRecord(ids[i], s)
	}
	return j.BuildShardedIndex(records, shards, opts, dopts), nil
}

// checkIDs enforces the rules on caller-assigned stable IDs: one a record,
// non-negative, at most math.MaxUint32 and unique within the batch.
func checkIDs(ids []int, raw []string) error {
	if len(ids) != len(raw) {
		return fmt.Errorf("join: %d ids for %d records", len(ids), len(raw))
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

	return sx.joiner.orderOf(sx.dict, live...).Order().FrequencyTable()
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
	sx.refreezeLocked(func(d *core.SegDict, live ...[]*core.PreparedRecord) *pebble.KeyIDs {
		// Defensive intern: any live key the image lacks — none, when nothing
		// raced the collection — joins the dynamic region before the records
		// are signed under the adopted order. The live keys are counted by
		// key number, and each distinct one looked up in the image once.
		count := sx.joiner.gen.NewKeyCount(d)
		for _, coll := range live {
			for _, pr := range coll {
				count.Add(pr)
			}
		}
		var missing []pebble.Pebble
		for _, key := range count.Keys() {
			if _, ok := order.ID(key); !ok {
				missing = append(missing, pebble.Pebble{Key: key})
			}
		}
		order.InternDynamic(missing)
		return sx.joiner.gen.KeyIDs(d, order)
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

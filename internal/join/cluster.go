package join

import (
	"fmt"
	"math"
	"time"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/strutil"
)

// This file holds the hooks the cluster layer builds on: two-phase builds and
// inserts with caller-assigned stable IDs, export of the key-frequency table,
// and adoption of an externally built frozen order (the worker side of the
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

// PendingIndex is the first half of a build over records whose stable IDs
// the caller assigned, under InsertBatchRecords' rules for them: the records
// routed and prepared against the joiner's HostedDict and their keys
// counted, but no order frozen and no record signed. A cluster worker holds
// its share of the catalog so between the bootstrap seed's last chunk, whose
// acknowledgement carries KeyFrequencies, and the order the coordinator
// merges from every group's table, which Install signs every record under
// once.
type PendingIndex struct {
	b     *build
	count *pebble.KeyCount
}

// PrepareShardedIndexWithIDs starts a BuildShardedIndex over the records
// under the caller's IDs: it takes the one build path (assemble) as far as
// the count, so no record is inserted — the index Install makes has no delta
// segment, no dynamic key and no compaction behind it. The index interns into
// the joiner's HostedDict, as every other index started here does, so the
// group indexes of one cluster worker hold each segment text once.
func (j *Joiner) PrepareShardedIndexWithIDs(ids []int, raw []string, shards int, opts Options, dopts DynamicOptions) (*PendingIndex, error) {
	start := time.Now()
	if err := checkIDs(ids, raw); err != nil {
		return nil, err
	}
	records := make([]strutil.Record, len(raw))
	for i, s := range raw {
		records[i] = strutil.NewRecord(ids[i], s)
	}
	b := j.assemble(j.HostedDict(), records, nil, shards, opts, dopts, start)
	return &PendingIndex{b: b, count: b.sx.countKeys(b.prepared()...)}, nil
}

// KeyFrequencies is the pending records' frequency table: the keys and
// frequencies ShardedIndex.KeyFrequencies of the index built over them
// exports, but first counted first, not in finalize order — a table for
// pebble.MergeFrequencyTables, which sums tables in any order and sorts the
// sum, not an image to install.
func (p *PendingIndex) KeyFrequencies() ([]string, []int) { return p.count.Table(false) }

// Install finishes the build under the externally built frozen order, as
// AdoptOrder takes it: the index's order wraps fz with a dynamic region of
// its own, every record is signed under it once, and keys of the records fz
// lacks are interned into that region first (AdoptOrder's guard). As after
// AdoptOrder, the index never re-freezes on its own. A PendingIndex installs
// once.
func (p *PendingIndex) Install(fz *pebble.Frozen) *ShardedIndex {
	order := fz.Order()
	internMissing(order, p.count)
	sx := p.b.finish(givenOrder(order))
	sx.noRefreeze.Store(true)
	p.b, p.count = nil, nil
	return sx
}

// givenOrder is the freezer of an order made elsewhere — restored from a
// snapshot or shipped by a coordinator — with its IDs looked up by key.
func givenOrder(order *pebble.Order) freezer {
	return func(sx *ShardedIndex, _ ...[]*core.PreparedRecord) *pebble.KeyIDs {
		return sx.joiner.gen.KeyIDs(sx.dict, order)
	}
}

// internMissing interns into order's dynamic region every key count holds
// that order lacks, so that records signed under it lose no pebble whatever
// the order's image holds. It is deterministic across replicas, which count
// identical records.
func internMissing(order *pebble.Order, count *pebble.KeyCount) {
	var missing []pebble.Pebble
	for _, key := range count.Keys() {
		if _, ok := order.ID(key); !ok {
			missing = append(missing, pebble.Pebble{Key: key})
		}
	}
	order.InternDynamic(missing)
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
// shards hold, which are immutable, and builds no order.
func (sx *ShardedIndex) KeyFrequencies() ([]string, []int) {
	sx.refreezeMu.Lock()
	unlock := sx.lockShards()
	live := make([][]*core.PreparedRecord, len(sx.shards))
	for w, sh := range sx.shards {
		_, live[w], _ = sh.liveLocked()
	}
	unlock()
	sx.refreezeMu.Unlock()

	return sx.countKeys(live...).Table(true)
}

// Shares reports whether sx and other serve, as of now, under one frozen
// order value (AdoptOrder's fz, or Install's), each with a dynamic region of
// its own, and whether they intern into one segment dictionary (the joiner's
// HostedDict).
func (sx *ShardedIndex) Shares(other *ShardedIndex) (order, dict bool) {
	return sx.Snapshot().gen.order.Frozen() == other.Snapshot().gen.order.Frozen(), sx.dict == other.dict
}

// AdoptOrder replaces the index's pebble order with an externally built
// frozen order — the worker side of a cluster epoch bump: fz is restored
// from an image in finalize order, as produced by KeyFrequencies (after the
// coordinator sums the groups' tables), and the index's new order wraps it
// with a dynamic region of its own, so indexes may share one fz. Adoption
// is a re-freeze (refreezeLocked) whose next order comes from outside: every shard is
// rebuilt under it while all writer locks are held, and readers never block —
// they are served the generation before it until install publishes the new
// one whole. No insert races the image (the coordinator blocks mutations for
// the whole bump); keys of live records that the image lacks are interned
// into its dynamic region first all the same, a guard that keeps adoption
// exact whatever the image holds, and is deterministic across replicas, which
// hold identical records in identical positions. After adoption the index never re-freezes on its
// own: order ownership has moved to the coordinator, and local rebuilds keep
// compacting shards under the adopted order.
func (sx *ShardedIndex) AdoptOrder(fz *pebble.Frozen) {
	order := fz.Order()
	sx.refreezeMu.Lock()
	defer sx.refreezeMu.Unlock()
	sx.refreezeLocked(func(sx *ShardedIndex, live ...[]*core.PreparedRecord) *pebble.KeyIDs {
		// The guard: any live key the image lacks joins the dynamic region
		// before the records are signed under the adopted order.
		internMissing(order, sx.countKeys(live...))
		return sx.joiner.gen.KeyIDs(sx.dict, order)
	})
	sx.noRefreeze.Store(true)
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

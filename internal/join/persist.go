package join

import (
	"fmt"
	"sort"
	"time"

	"github.com/aujoin/aujoin/internal/core"
	"github.com/aujoin/aujoin/internal/pebble"
	"github.com/aujoin/aujoin/internal/store"
	"github.com/aujoin/aujoin/internal/strutil"
)

// CaptureSnapshot freezes the index's durable state into a store.Snapshot:
// the shared pebble order, every record (live and tombstoned) by ID and raw
// text, and the flat tombstone bitmap. The capture runs under every shard's
// writer lock (and the refreeze mutex), so it is one atomic cut across shards
// — exactly the guarantee Snapshot relaxes for serving — and is therefore
// safe to pair with a WAL: every mutation is either in the capture or logged
// after it, never half of each.
//
// Records are flattened in ascending stable-ID order. That order round-trips
// exactly because shard routing is a pure function of the ID and both the
// original build and every insert append in ascending-ID order, so each
// shard's position order IS its ascending-ID order and re-partitioning the
// flat list recovers it.
func (sx *ShardedIndex) CaptureSnapshot() *store.Snapshot {
	sx.refreezeMu.Lock()
	defer sx.refreezeMu.Unlock()
	defer sx.lockShards()()
	sx.mu.Lock()
	nextID := sx.nextID
	sx.mu.Unlock()

	snap := &store.Snapshot{
		Theta:  sx.opts.Theta,
		Tau:    sx.tau,
		Method: uint8(sx.opts.Method),
		Shards: len(sx.shards),
		NextID: uint64(nextID),
		Order:  exportOrder(sx.gen.Load().order),
	}

	total := 0
	for _, sh := range sx.shards {
		total += len(sh.records)
	}
	type flatRec struct {
		data store.RecordData
		dead bool
	}
	flat := make([]flatRec, 0, total)
	for _, sh := range sx.shards {
		for pos, rec := range sh.records {
			flat = append(flat, flatRec{data: store.RecordData{ID: uint32(rec.ID), Raw: rec.Raw}, dead: sh.dead[pos>>6]&(1<<(uint(pos)&63)) != 0})
		}
	}
	sort.Slice(flat, func(a, b int) bool { return flat[a].data.ID < flat[b].data.ID })

	snap.Records = make([]store.RecordData, len(flat))
	snap.Dead = make([]uint64, (len(flat)+63)/64)
	for i := range flat {
		snap.Records[i] = flat[i].data
		if flat[i].dead {
			snap.Dead[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return snap
}

// exportOrder serializes a pebble order: the frozen prefix in dense-ID order
// with its finalize-time frequencies, then the dynamic region in ID order.
// The caller must hold every writer lock of the indexes interning into the
// order, which freezes the dynamic region for the duration.
func exportOrder(order *pebble.Order) store.OrderData {
	frozen := order.FrozenKeys()
	od := store.OrderData{
		FrozenKeys: make([]string, frozen),
		Freqs:      make([]uint32, frozen),
	}
	for i := 0; i < frozen; i++ {
		k := order.KeyOf(uint32(i))
		od.FrozenKeys[i] = k
		od.Freqs[i] = uint32(order.Frequency(k))
	}
	dyn := order.DynamicCount()
	od.DynamicKeys = make([]string, dyn)
	for i := 0; i < dyn; i++ {
		od.DynamicKeys[i] = order.KeyOf(uint32(frozen + i))
	}
	return od
}

// RestoreShardedIndex reconstructs a ShardedIndex from a decoded snapshot:
// a build (assemble) under the stored order instead of a counted one, with
// the snapshot's next ID and its tombstones re-applied. Every record is
// prepared from its text against the new index's dictionary and signed under
// the stored order, so the result holds the signatures, the bases and the
// cover columns the captured index held and serves bit-identical
// Query/QueryTopK/Probe answers.
//
// The Joiner must be constructed over the same similarity context
// (synonym rules, taxonomy, measure configuration) the original index used —
// the context is the one input the snapshot does not carry.
func (j *Joiner) RestoreShardedIndex(snap *store.Snapshot, dopts DynamicOptions) (*ShardedIndex, error) {
	start := time.Now()
	if snap.NextID > uint64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("join: snapshot next ID %d overflows int", snap.NextID)
	}
	freqs := make([]int, len(snap.Order.Freqs))
	for i, f := range snap.Order.Freqs {
		freqs[i] = int(f)
	}
	order, err := pebble.RestoreOrder(snap.Order.FrozenKeys, freqs, snap.Order.DynamicKeys)
	if err != nil {
		return nil, err
	}
	records := make([]strutil.Record, len(snap.Records))
	parallelFor(len(records), 0, func(i int) {
		records[i] = strutil.NewRecord(int(snap.Records[i].ID), snap.Records[i].Raw)
	})
	opts := Options{Theta: snap.Theta, Tau: snap.Tau, Method: pebble.Method(snap.Method)}
	sx := j.assemble(records, snap.Dead, snap.Shards, opts, dopts, func(d *core.SegDict, _ ...[]*core.PreparedRecord) *pebble.KeyIDs {
		return j.gen.KeyIDs(d, order)
	}, start)
	sx.nextID = int(snap.NextID)
	return sx, nil
}

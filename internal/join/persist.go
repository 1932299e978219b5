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
// the shared pebble order, every record (live and tombstoned) with its
// stored signature-ID multiset and prepared-segment metadata, and the flat
// tombstone bitmap. The capture runs under every shard's writer lock (and
// the refreeze mutex), so it is one atomic cut across shards — exactly the
// guarantee Snapshot relaxes for serving — and is therefore safe to pair
// with a WAL: every mutation is either in the capture or logged after it,
// never half of each.
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
			sigIDs := make([]uint32, 0, len(sh.sigIDs[pos]))
			for _, id := range sh.sigIDs[pos] {
				if id != pebble.NoID {
					sigIDs = append(sigIDs, id)
				}
			}
			segs, minPart := sh.prepared[pos].PersistMeta()
			rd := store.RecordData{
				ID:      uint32(rec.ID),
				Raw:     rec.Raw,
				SigIDs:  sigIDs,
				Segs:    make([]store.SegMeta, len(segs)),
				MinPart: uint32(minPart),
			}
			for i, sg := range segs {
				rd.Segs[i] = store.SegMeta{
					Start:  uint32(sg.Span.Start),
					End:    uint32(sg.Span.End),
					Rule:   sg.Rule,
					Entity: sg.Entity,
				}
			}
			flat = append(flat, flatRec{data: rd, dead: sh.dead[pos>>6]&(1<<(uint(pos)&63)) != 0})
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

// RestoreShardedIndex reconstructs a ShardedIndex from a decoded
// snapshot without re-running signature selection or prepared-segment
// enumeration: the stored order is reinstalled verbatim, the stored
// signature-ID multisets rebuild each shard's inverted index, and the
// prepared verification records are rehydrated from their persisted spans
// (only the deterministic per-segment similarity tables are recomputed). The
// result serves bit-identical Query/QueryTopK/Probe answers to the index the
// snapshot was captured from.
//
// The Joiner must be constructed over the same similarity context
// (synonym rules, taxonomy, measure configuration) the original index used —
// the context is the one input the snapshot does not carry.
func (j *Joiner) RestoreShardedIndex(snap *store.Snapshot, dopts DynamicOptions) (*ShardedIndex, error) {
	start := time.Now()
	if snap.NextID > uint64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("join: snapshot next ID %d overflows int", snap.NextID)
	}
	opts := Options{
		Theta:  snap.Theta,
		Tau:    snap.Tau,
		Method: pebble.Method(snap.Method),
	}
	freqs := make([]int, len(snap.Order.Freqs))
	for i, f := range snap.Order.Freqs {
		freqs[i] = int(f)
	}
	order, err := pebble.RestoreOrder(snap.Order.FrozenKeys, freqs, snap.Order.DynamicKeys)
	if err != nil {
		return nil, err
	}

	sx := j.newRouter(opts, dopts)
	sx.nextID = int(snap.NextID)

	// Re-tokenize and rehydrate the prepared records in parallel; both are
	// deterministic functions of the raw text and the similarity context.
	n := len(snap.Records)
	records := make([]strutil.Record, n)
	prepared := make([]*core.PreparedRecord, n)
	sigIDs := make([][]uint32, n)
	errs := make([]error, n)
	parallelFor(n, 0, func(i int) {
		rd := &snap.Records[i]
		records[i] = strutil.NewRecord(int(rd.ID), rd.Raw)
		segs := make([]core.SegPersist, len(rd.Segs))
		for k, sg := range rd.Segs {
			segs[k] = core.SegPersist{
				Span:   strutil.Span{Start: int(sg.Start), End: int(sg.End)},
				Rule:   sg.Rule,
				Entity: sg.Entity,
			}
		}
		prepared[i], errs[i] = j.calc.RestorePrepared(records[i].Tokens, segs, int(rd.MinPart), sx.dict)
		sigIDs[i] = rd.SigIDs // aliases the decoded snapshot's buffer
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("join: restore record %d: %w", snap.Records[i].ID, err)
		}
	}

	// Re-partition the flat catalog: routing is a pure function of the
	// stable ID, and the flat list is ascending-ID, so each shard receives
	// its records in exactly its original position order.
	parts := make([]part, snap.Shards)
	for i := range records {
		p := &parts[shardOf(records[i].ID, snap.Shards)]
		p.records = append(p.records, records[i])
		p.sigIDs = append(p.sigIDs, sigIDs[i])
		p.prepared = append(p.prepared, prepared[i])
		if snap.Dead[i>>6]&(1<<(uint(i)&63)) != 0 {
			p.deadIDs = append(p.deadIDs, records[i].ID)
		}
	}
	sx.install(order, parts, start)
	return sx, nil
}

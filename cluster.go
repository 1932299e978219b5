package aujoin

import (
	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/pebble"
)

// This file is the public surface of the cluster hooks: what a multi-node
// deployment's coordinator and workers need from an Index beyond the
// serving API — builds and inserts under centrally assigned record IDs,
// export of the live key-frequency table, the merge of every group's table
// into the next global order (the coordinator's side of the order-sync
// protocol), and adoption of an externally built frozen order (the worker's
// side).

// OrderImage is the wire form of a pebble frequency order: every key with
// its document frequency, in finalize order (frequency ascending, key
// ascending on ties). It is what an epoch bump's coordinator ships to the
// workers: feeding an image to AdoptOrder reproduces, bit for bit, the
// frozen order Finalize would have built over the same frequencies.
type OrderImage struct {
	Keys  []string `json:"keys"`
	Freqs []int    `json:"freqs"`
}

// MergeOrderImages sums the key-frequency tables of disjoint record sets —
// one KeyFrequencies image per cluster group — into the image of their
// union: exactly what KeyFrequencies would export from one index holding
// every record. An image whose keys and frequencies differ in length is
// rejected.
func MergeOrderImages(imgs ...OrderImage) (OrderImage, error) {
	keys, freqs := make([][]string, len(imgs)), make([][]int, len(imgs))
	for i, img := range imgs {
		keys[i], freqs[i] = img.Keys, img.Freqs
	}
	k, f, err := pebble.MergeFrequencyTables(keys, freqs)
	return OrderImage{Keys: k, Freqs: f}, err
}

// InsertWithIDs appends records whose stable IDs the caller assigned. A
// cluster coordinator allocates IDs centrally so that every replica of a
// group indexes identical content under identical IDs — which is what makes
// replica answers interchangeable and scatter-gather results bit-identical
// to a single-node index. IDs must be non-negative, at most math.MaxUint32
// (the width a snapshot stores), unique within the batch, and (by the
// caller's sequencing protocol) never reuse a live ID.
func (ix *Index) InsertWithIDs(ids []int, records []string) error {
	return ix.inner.InsertBatchRecords(ids, records)
}

// IndexWithIDs is IndexWith over records whose stable IDs the caller
// assigned, under InsertWithIDs' rules for them. A cluster worker builds its
// share of the catalog with it, under the IDs the coordinator allocated: the
// records are built into the index the way IndexWith builds a collection,
// not inserted one batch at a time.
func (j *Joiner) IndexWithIDs(ids []int, records []string, opts JoinOptions, iopts IndexOptions) (*Index, error) {
	inner, err := j.joiner.BuildShardedIndexWithIDs(ids, records, iopts.Shards, opts.internal(), join.DynamicOptions{})
	if err != nil {
		return nil, err
	}
	return &Index{inner: inner}, nil
}

// KeyFrequencies exports the document-frequency table over the index's
// current live records, in finalize order. Groups of a cluster partition
// the record space, so per-group tables sum to the global table — during an
// epoch bump the coordinator merges one table per group (MergeOrderImages)
// and ships the summed image for every worker to adopt.
func (ix *Index) KeyFrequencies() OrderImage {
	keys, freqs := ix.inner.KeyFrequencies()
	return OrderImage{Keys: keys, Freqs: freqs}
}

// AdoptOrder replaces the index's pebble order with the externally built
// image and rebuilds every shard under it, while readers keep being served
// the pre-adoption snapshot. Live keys missing from the image are interned
// into the adopted order's dynamic region, so adoption is correct even when
// the image's frequency collection raced a mutation. After adoption the
// index never re-freezes its order on its own: order ownership has moved to
// the caller (the coordinator's epoch protocol).
func (ix *Index) AdoptOrder(img OrderImage) error {
	return ix.inner.AdoptOrder(img.Keys, img.Freqs)
}

// DisableAutoRefreeze turns off self-triggered global re-finalizes of the
// shared pebble order. Cluster workers call it at startup: the order must
// only change through coordinator-driven epoch bumps, never by a local
// threshold trigger (per-shard compaction rebuilds stay enabled — they keep
// the order).
func (ix *Index) DisableAutoRefreeze() { ix.inner.DisableRefreeze() }

// PipelineGoroutines reports the number of join-pipeline goroutines
// currently in flight across the process. Leak tests assert it settles to
// zero once a cancelled query or scatter-gather has fully aborted.
func PipelineGoroutines() int64 { return join.PipelineGoroutines() }

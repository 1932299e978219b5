package aujoin

import (
	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/pebble"
)

// This file is the public surface of the cluster hooks: what a multi-node
// deployment's coordinator and workers need from an Index beyond the
// serving API — builds (in two halves: prepare and count, then install under
// a given order) and inserts under centrally assigned record IDs, export of
// the key-frequency table, the merge of every group's table into the next
// global order (the coordinator's side of the order-sync protocol), and
// adoption of an externally built frozen order (the worker's side).

// OrderImage is the wire form of a pebble frequency order: every key with
// its document frequency, in finalize order (frequency ascending, key
// ascending on ties). It is what an epoch bump's coordinator ships to the
// workers: feeding an image to AdoptOrder reproduces, bit for bit, the
// frozen order Finalize would have built over the same frequencies.
type OrderImage struct {
	Keys  []string `json:"keys"`
	Freqs []int    `json:"freqs"`
	// frozen is the image's order, restored once by Restore.
	frozen *pebble.Frozen
}

// Restore restores the image's frozen order once and returns the image
// holding it: every Install and AdoptOrder given the result, or a copy of
// it, puts its index under that one order — each index with a dynamic
// region of its own — instead of restoring a copy each. A cluster worker
// restores each adopted image once for all the groups it hosts. The image's
// Keys and Freqs must not change afterwards. An image not in finalize order
// fails as Install and AdoptOrder fail.
func (img OrderImage) Restore() (OrderImage, error) {
	fz, err := img.frozenOrder()
	if err != nil {
		return img, err
	}
	img.frozen = fz
	return img, nil
}

// frozenOrder returns the image's restored order: Restore's, or a new one.
func (img OrderImage) frozenOrder() (*pebble.Frozen, error) {
	if img.frozen != nil {
		return img.frozen, nil
	}
	return pebble.RestoreFrozen(img.Keys, img.Freqs)
}

// MergeOrderImages sums the key-frequency tables of disjoint record sets —
// one KeyFrequencies image per cluster group, in any key order — into the
// image of their union, in finalize order: exactly what KeyFrequencies would
// export from one index holding every record. An image whose keys and
// frequencies differ in length is rejected.
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

// PendingIndex is an index over a cluster group's share of the catalog
// whose records are prepared and counted but not yet signed: a worker makes
// one (Joiner.PrepareWithIDs) when the bootstrap seed's last chunk arrives,
// acknowledges the chunk with its KeyFrequencies, and installs it under the
// global order the coordinator merges from every group's table (Install), so
// every record is signed once, under that order.
type PendingIndex struct{ inner *join.PendingIndex }

// PrepareWithIDs starts IndexWith over records whose stable IDs the caller
// assigned, under InsertWithIDs' rules for them: the records are built into
// the index the way IndexWith builds a collection, not inserted one batch at
// a time, up to the order they are signed under, which Install takes. Every
// index a joiner starts here interns into one segment dictionary the joiner
// keeps for its lifetime, so the groups one cluster worker hosts hold each
// text once.
func (j *Joiner) PrepareWithIDs(ids []int, records []string, opts JoinOptions, iopts IndexOptions) (*PendingIndex, error) {
	inner, err := j.joiner.PrepareShardedIndexWithIDs(ids, records, iopts.Shards, opts.internal(), join.DynamicOptions{})
	if err != nil {
		return nil, err
	}
	return &PendingIndex{inner: inner}, nil
}

// KeyFrequencies exports the pending records' document-frequency table: the
// keys and frequencies Index.KeyFrequencies exports once they are built, but
// first counted first, not in finalize order — a table for MergeOrderImages,
// not an image for Install or AdoptOrder.
func (p *PendingIndex) KeyFrequencies() OrderImage {
	keys, freqs := p.inner.KeyFrequencies()
	return OrderImage{Keys: keys, Freqs: freqs}
}

// Install builds the index under the image, as AdoptOrder would leave it:
// every record signed under the image's order, keys the image lacks interned
// into its dynamic region, and no re-freeze of its own afterwards. A
// PendingIndex installs once.
func (p *PendingIndex) Install(img OrderImage) (*Index, error) {
	fz, err := img.frozenOrder()
	if err != nil {
		return nil, err
	}
	return &Index{inner: p.inner.Install(fz)}, nil
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
	fz, err := img.frozenOrder()
	if err != nil {
		return err
	}
	ix.inner.AdoptOrder(fz)
	return nil
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

package aujoin

import (
	"fmt"
	"io"
	"sync"

	"github.com/aujoin/aujoin/internal/join"
	"github.com/aujoin/aujoin/internal/store"
)

// WriteSnapshot captures the index's current state — catalog, tombstones and
// pebble order — and writes it to w in the versioned binary snapshot format
// of internal/store. The capture is one atomic cut across all shards
// (writers stall for its duration; readers do not), so the written image is
// exactly the index state at some single instant. It returns the number of
// bytes written.
func (ix *Index) WriteSnapshot(w io.Writer) (int64, error) {
	data := ix.inner.CaptureSnapshot().Encode()
	n, err := w.Write(data)
	return int64(n), err
}

// ReadSnapshot reconstructs an Index from a snapshot previously written by
// WriteSnapshot. The Joiner must be configured with the same similarity
// resources (synonym rules, taxonomy, measures, gram length) the original
// index's Joiner had — the snapshot does not carry them — and the restored
// index then serves bit-identical Query/QueryTopK/Probe results to the one
// captured: every record is prepared and signed again under the stored
// pebble order, as a build would.
func (j *Joiner) ReadSnapshot(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	snap, err := store.Decode(data)
	if err != nil {
		return nil, err
	}
	return j.restoreIndex(snap)
}

// restoreIndex rebuilds the public Index from a decoded snapshot.
func (j *Joiner) restoreIndex(snap *store.Snapshot) (*Index, error) {
	inner, err := j.joiner.RestoreShardedIndex(snap, join.DynamicOptions{})
	if err != nil {
		return nil, err
	}
	return &Index{inner: inner}, nil
}

// PersistentIndex couples an Index with a durable data directory: every
// Insert/Remove batch is fsynced to a write-ahead log before it is applied,
// and Checkpoint folds the log into a new atomic snapshot generation. After
// a crash (or plain restart), OpenPersistent recovers the last durable
// state: the newest intact snapshot plus every completely logged mutation
// after it, with any torn WAL tail truncated. A mutation whose call
// returned is therefore never lost, and recovery never observes half a
// batch.
//
// Mutations and checkpoints serialize on an internal mutex; queries run
// against lock-free snapshots exactly as on a plain Index and never block
// on persistence.
type PersistentIndex struct {
	mu sync.Mutex
	ix *Index
	st *store.Store
}

// OpenPersistent opens (or initializes) the data directory and returns a
// persistent index backed by it.
//
// If the directory holds a usable snapshot, the index is restored from it
// and the WAL replayed — records and opts are IGNORED in that case: the
// durable state wins, including the θ/τ/filter configuration it was built
// with. Otherwise a fresh index is built from records under opts/iopts and
// an initial checkpoint is committed so the directory is recoverable from
// the start. The Joiner must be configured with the same similarity
// resources across restarts; they are not persisted.
func (j *Joiner) OpenPersistent(dir string, records []string, opts JoinOptions, iopts IndexOptions) (*PersistentIndex, error) {
	return j.openPersistentFS(store.OS, dir, records, opts, iopts)
}

// openPersistentFS is OpenPersistent over an injectable filesystem; the
// crash-recovery tests drive it with a fault-injecting in-memory FS.
func (j *Joiner) openPersistentFS(fs store.FS, dir string, records []string, opts JoinOptions, iopts IndexOptions) (*PersistentIndex, error) {
	st, snap, entries, err := store.Open(fs, dir)
	if err != nil {
		return nil, err
	}
	var ix *Index
	if snap != nil {
		ix, err = j.restoreIndex(snap)
		if err != nil {
			st.Close()
			return nil, err
		}
		for _, e := range entries {
			switch e.Op {
			case store.OpInsert:
				// Stable IDs are assigned sequentially from the snapshot's
				// next-ID watermark, so replaying the batches in log order
				// reassigns exactly the IDs the original run handed out.
				ix.Insert(e.Raws)
			case store.OpRemove:
				ix.RemoveBatch(walIDs(e.IDs))
			}
		}
	} else {
		ix = j.IndexWith(records, opts, iopts)
		if err := st.Commit(ix.inner.CaptureSnapshot()); err != nil {
			st.Close()
			return nil, fmt.Errorf("aujoin: initial checkpoint: %w", err)
		}
	}
	return &PersistentIndex{ix: ix, st: st}, nil
}

// walIDs converts logged record IDs to ints.
func walIDs(ids []uint64) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

// Index returns the underlying live index for queries and snapshots.
// Mutating it directly (Insert/Remove on the returned value) bypasses the
// WAL and forfeits durability for those mutations — always mutate through
// the PersistentIndex.
func (px *PersistentIndex) Index() *Index { return px.ix }

// Insert durably logs the batch, then applies it, returning the new stable
// IDs. On error nothing was applied and the store refuses further
// mutations (recovery from the last durable state is the way back).
func (px *PersistentIndex) Insert(records []string) ([]int, error) {
	if len(records) == 0 {
		return nil, nil
	}
	px.mu.Lock()
	defer px.mu.Unlock()
	if err := px.st.Append(store.WalEntry{Op: store.OpInsert, Raws: records}); err != nil {
		return nil, err
	}
	return px.ix.Insert(records), nil
}

// Remove durably logs and applies a single-record removal, reporting
// whether the record was present and live.
func (px *PersistentIndex) Remove(id int) (bool, error) {
	ok, err := px.RemoveBatch([]int{id})
	if err != nil {
		return false, err
	}
	return ok[0], nil
}

// RemoveBatch durably logs the batch, then applies it, reporting per ID
// whether the record was present and live.
func (px *PersistentIndex) RemoveBatch(ids []int) ([]bool, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	px.mu.Lock()
	defer px.mu.Unlock()
	wal := make([]uint64, len(ids))
	for i, id := range ids {
		wal[i] = uint64(id)
	}
	if err := px.st.Append(store.WalEntry{Op: store.OpRemove, IDs: wal}); err != nil {
		return nil, err
	}
	return px.ix.RemoveBatch(ids), nil
}

// Checkpoint captures the current index state and commits it as a new
// snapshot generation, truncating the WAL. Queries keep serving throughout;
// mutations wait for the whole checkpoint (capture, encode and fsync run
// under the mutation mutex — serializing them against the WAL is what makes
// the snapshot an exact cut of the logged history).
func (px *PersistentIndex) Checkpoint() error {
	px.mu.Lock()
	defer px.mu.Unlock()
	return px.st.Commit(px.ix.inner.CaptureSnapshot())
}

// Close releases the WAL handle. Pending durable state is already on disk
// (every mutation was fsynced when applied); Close does not checkpoint —
// call Checkpoint first to fold the log if a compact restart matters.
func (px *PersistentIndex) Close() error {
	px.mu.Lock()
	defer px.mu.Unlock()
	return px.st.Close()
}

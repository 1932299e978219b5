package store

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Store manages one data directory holding at most one live checkpoint
// generation: snap-<seq>.aujs (the snapshot) and wal-<seq>.aujw (the
// mutation log since that snapshot). A checkpoint writes the next
// generation's snapshot to a temp file, fsyncs, atomically renames it into
// place, fsyncs the directory, starts a fresh empty WAL, and only then
// removes the previous generation — so a crash at any byte leaves either
// the old generation or the new one fully intact, never a blend.
//
// Durability errors are sticky: once an append or commit fails partway,
// the Store refuses further mutations. Acknowledging a write after an
// earlier one tore would let recovery silently truncate the acknowledged
// write away with the torn tail.
type Store struct {
	fs     FS
	dir    string
	seq    uint64
	wal    File
	broken error
}

func snapName(seq uint64) string { return fmt.Sprintf("snap-%d.aujs", seq) }
func walName(seq uint64) string  { return fmt.Sprintf("wal-%d.aujw", seq) }

// parseSeq extracts the sequence number from snap-/wal- file names.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Open attaches to dir, loads the newest decodable snapshot (nil when the
// directory is fresh), replays the matching WAL with torn-tail truncation,
// and leaves the store ready to append. The returned entries are the
// mutations the caller must reapply on top of the snapshot to reach the
// last durable state.
func Open(fs FS, dir string) (*Store, *Snapshot, []WalEntry, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: list %s: %w", dir, err)
	}

	var snapSeqs []uint64
	for _, name := range names {
		if seq, ok := parseSeq(name, "snap-", ".aujs"); ok {
			snapSeqs = append(snapSeqs, seq)
		}
	}
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] > snapSeqs[j] })

	var (
		snap    *Snapshot
		seq     uint64
		decErr  error
		decoded bool
	)
	for _, cand := range snapSeqs {
		data, err := fs.ReadFile(filepath.Join(dir, snapName(cand)))
		if err != nil {
			decErr = err
			continue
		}
		s, err := Decode(data)
		if err != nil {
			decErr = err
			continue
		}
		snap, seq, decoded = s, cand, true
		break
	}
	if !decoded && len(snapSeqs) > 0 {
		// Snapshot files exist but none decodes: refuse to silently restart
		// empty over data the operator thought was durable.
		return nil, nil, nil, fmt.Errorf("store: no usable snapshot in %s: %w", dir, decErr)
	}

	st := &Store{fs: fs, dir: dir, seq: seq}

	// Best-effort cleanup of temp files and generations other than the one
	// we recovered; a failure here only leaves garbage for the next open.
	for _, name := range names {
		stale := strings.HasSuffix(name, ".tmp")
		if s, ok := parseSeq(name, "snap-", ".aujs"); ok && s != seq {
			stale = true
		}
		if s, ok := parseSeq(name, "wal-", ".aujw"); ok && s != seq {
			stale = true
		}
		if stale {
			_ = fs.Remove(filepath.Join(dir, name))
		}
	}

	var entries []WalEntry
	walPath := filepath.Join(dir, walName(seq))
	if data, err := fs.ReadFile(walPath); err == nil {
		var good int
		entries, good = ReplayWAL(data)
		if good < len(data) {
			if err := fs.Truncate(walPath, int64(good)); err != nil {
				return nil, nil, nil, fmt.Errorf("store: truncate torn WAL tail: %w", err)
			}
		}
	}
	wal, err := fs.OpenAppend(walPath)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: open WAL: %w", err)
	}
	st.wal = wal
	return st, snap, entries, nil
}

// Seq returns the live checkpoint generation.
func (s *Store) Seq() uint64 { return s.seq }

// Append logs one mutation batch durably: the entry is framed, written and
// fsynced before Append returns nil. On error the mutation MUST NOT be
// applied to the in-memory index — the log may hold a torn frame that
// recovery will truncate — and the store refuses all further mutations.
func (s *Store) Append(e WalEntry) error {
	if s.broken != nil {
		return s.broken
	}
	frame, err := EncodeWalEntry(e)
	if err != nil {
		return err
	}
	if _, err := s.wal.Write(frame); err != nil {
		s.broken = fmt.Errorf("store: WAL append failed, store is read-only: %w", err)
		return s.broken
	}
	if err := s.wal.Sync(); err != nil {
		s.broken = fmt.Errorf("store: WAL sync failed, store is read-only: %w", err)
		return s.broken
	}
	return nil
}

// Commit durably writes snap as the next checkpoint generation, rotates to
// a fresh WAL and retires the previous generation. The caller must ensure
// snap reflects every mutation previously Appended (i.e. capture and
// Commit run under the same mutation exclusion).
func (s *Store) Commit(snap *Snapshot) error {
	if s.broken != nil {
		return s.broken
	}
	next := s.seq + 1
	data := snap.Encode()

	tmpPath := filepath.Join(s.dir, snapName(next)+".tmp")
	f, err := s.fs.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("store: create snapshot: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = s.fs.Remove(tmpPath)
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := s.fs.Rename(tmpPath, filepath.Join(s.dir, snapName(next))); err != nil {
		_ = s.fs.Remove(tmpPath)
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		// The rename may or may not be durable; refuse further mutations
		// rather than guess which generation a recovery will see.
		s.broken = fmt.Errorf("store: sync data dir failed, store is read-only: %w", err)
		return s.broken
	}

	// The new generation is durable from here on: advance even if the WAL
	// rotation below fails, because recovery will pick snap-<next> and an
	// absent wal-<next> reads as empty.
	prev := s.seq
	s.seq = next
	if s.wal != nil {
		_ = s.wal.Close()
		s.wal = nil
	}
	wal, err := s.fs.OpenAppend(filepath.Join(s.dir, walName(next)))
	if err != nil {
		s.broken = fmt.Errorf("store: rotate WAL failed, store is read-only: %w", err)
		return s.broken
	}
	s.wal = wal
	_ = s.fs.Remove(filepath.Join(s.dir, snapName(prev)))
	_ = s.fs.Remove(filepath.Join(s.dir, walName(prev)))
	return nil
}

// Close releases the WAL handle. The store must not be used afterwards.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

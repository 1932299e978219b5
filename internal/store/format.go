// Package store implements the durable persistence layer for the dynamic
// index: a versioned binary snapshot format whose four sections (meta, pebble
// order, records, tombstones) are individually CRC32C-checksummed and
// addressed through a section-offset table, plus a small length-prefixed
// write-ahead log that records the Insert/Remove batch stream between
// snapshots with per-entry checksums and torn-tail truncation on replay.
//
// The package is deliberately a leaf: it deals in plain data structs
// (Snapshot, WalEntry) and knows nothing about indexes, so the codec can be
// fuzzed and crash-tested in isolation. Capture and reconstruction live in
// internal/join.
//
// Layout of a snapshot file:
//
//	magic "AUJSNAP1" | version u32 | section count u32
//	section table: count × { id u32 | offset u64 | length u64 | crc32c u32 }
//	section payloads (offsets are absolute, sections contiguous)
//
// All fixed-width integers are little-endian; variable-width integers use
// unsigned varint encoding. The offset table makes the format mmap-friendly:
// a reader can locate and checksum one section without touching the rest.
//
// Version bump policy: the version is bumped whenever a section payload
// changes incompatibly or a required section is added; readers reject
// versions they do not know rather than guessing. Adding an optional
// section is backward compatible — unknown section ids are ignored on read —
// and does not bump the version. Neither does dropping a section a reader
// can do without, such as one whose contents restore can derive: a reader
// that still requires it refuses the new images as missing a section rather
// than misreading them. A retired id is never reused.
package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
)

// Magic identifies a snapshot file; Version is the current format version.
const (
	Magic   = "AUJSNAP1"
	Version = 1
)

// ErrCorrupt is returned when a snapshot or WAL payload fails structural
// validation: bad magic, checksum mismatch, truncated field, or a count
// that cannot fit in the bytes that remain. Torn WAL tails are not errors
// (they truncate); a torn snapshot is.
var ErrCorrupt = errors.New("store: corrupt data")

// castagnoli is the CRC32C polynomial table shared by snapshot sections and
// WAL entries.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is CRC32C over the payload.
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// writer accumulates one section or WAL payload. Append-only; never fails.
type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// reader decodes one section or WAL payload with strict bounds checking:
// the first short read or oversized count sets err, and every subsequent
// accessor returns a zero value, so decode loops never index past the
// input and never allocate more than the input could possibly describe.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrCorrupt
	}
}

func (r *reader) remain() int { return len(r.b) - r.off }

func (r *reader) u8() uint8 {
	if r.err != nil || r.remain() < 1 {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.remain() < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.remain() < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// count reads a uvarint that counts elements each occupying at least
// minBytes bytes of the remaining input, rejecting counts that could not
// possibly fit. This is what keeps hostile inputs from provoking huge
// allocations: every slice we make is bounded by the input length.
func (r *reader) count(minBytes int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(r.remain()/minBytes) {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil || n > uint64(r.remain()) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// finish reports corruption if any accessor failed or trailing bytes
// remain; a section payload must be consumed exactly.
func (r *reader) finish() error {
	if r.err == nil && r.remain() != 0 {
		r.fail()
	}
	return r.err
}

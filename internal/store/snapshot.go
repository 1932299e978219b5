package store

import (
	"fmt"
	"sort"
)

// Section identifiers; all four are required. Unknown ids are checksummed and
// skipped on read, so optional sections can be added without a version bump.
// Ids 4, 5 and 7 are retired, not free: older images carry each record's
// signature IDs under 4, its prepared-segment spans and partition bound under
// 5 and the deleted per-query planner's feedback table under 7, and all three
// are skipped like any unknown id.
const (
	secMeta       = 1
	secOrder      = 2
	secRecords    = 3
	secTombstones = 6
)

// Snapshot is the plain-data image of a sharded dynamic index: what cannot be
// recomputed — the options, the pebble order, every record's ID and raw text
// and the tombstones. A record's segments, partition bound and signature are
// functions of its text, the order and the options, so a restore derives
// them again, exactly as a build does. Records are flat across shards in
// ascending stable-ID order — per-shard arrival order is recovered by
// re-partitioning, because shard assignment is a pure function of the ID and
// IDs are allocated monotonically.
type Snapshot struct {
	Theta  float64
	Tau    int
	Method uint8 // pebble.Method the index was built with
	Shards int
	NextID uint64 // next stable ID the index would allocate

	Order   OrderData
	Records []RecordData
	// Dead is the tombstone bitmap over flat record positions (bit i set =
	// Records[i] is removed but still occupies its stable position).
	Dead []uint64
}

// OrderData is the serialized pebble order: the frozen prefix in dense-ID
// order with per-key corpus frequencies (non-decreasing, key-ascending
// within equal frequency — the Finalize sort order), followed by the
// dynamically interned keys in ID order.
type OrderData struct {
	FrozenKeys  []string
	Freqs       []uint32 // len(FrozenKeys); frequency of each frozen key
	DynamicKeys []string // IDs len(FrozenKeys)..len(FrozenKeys)+len(DynamicKeys)-1
}

// RecordData is one record: its stable ID and raw text (tokens are
// re-derived — tokenization is deterministic).
type RecordData struct {
	ID  uint32
	Raw string
}

// Encode serializes the snapshot into the sectioned format described in the
// package comment.
func (s *Snapshot) Encode() []byte {
	type section struct {
		id      uint32
		payload []byte
	}
	sections := []section{
		{secMeta, s.encodeMeta()},
		{secOrder, s.encodeOrder()},
		{secRecords, s.encodeRecords()},
		{secTombstones, s.encodeTombstones()},
	}

	const headerSize = 8 + 4 + 4
	const entrySize = 4 + 8 + 8 + 4
	var w writer
	w.buf = append(w.buf, Magic...)
	w.u32(Version)
	w.u32(uint32(len(sections)))
	offset := uint64(headerSize + entrySize*len(sections))
	for _, sec := range sections {
		w.u32(sec.id)
		w.u64(offset)
		w.u64(uint64(len(sec.payload)))
		w.u32(checksum(sec.payload))
		offset += uint64(len(sec.payload))
	}
	for _, sec := range sections {
		w.buf = append(w.buf, sec.payload...)
	}
	return w.buf
}

// Decode parses and validates a snapshot image. Any structural defect —
// bad magic, unknown version, out-of-range section, checksum mismatch,
// truncated payload, inconsistent counts, non-ascending record IDs — yields
// an error, never a panic or over-read.
func Decode(data []byte) (*Snapshot, error) {
	const headerSize = 8 + 4 + 4
	if len(data) < headerSize || string(data[:8]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	hr := reader{b: data, off: 8}
	version := hr.u32()
	if version != Version {
		return nil, fmt.Errorf("store: unsupported snapshot version %d (want %d)", version, Version)
	}
	nsec := hr.u32()
	const entrySize = 4 + 8 + 8 + 4
	if uint64(nsec) > uint64(len(data))/entrySize {
		return nil, fmt.Errorf("%w: section count %d", ErrCorrupt, nsec)
	}
	payloads := make(map[uint32][]byte, nsec)
	for i := uint32(0); i < nsec; i++ {
		id := hr.u32()
		off := hr.u64()
		length := hr.u64()
		crc := hr.u32()
		if hr.err != nil {
			return nil, hr.err
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: section %d out of range", ErrCorrupt, id)
		}
		payload := data[off : off+length]
		if checksum(payload) != crc {
			return nil, fmt.Errorf("%w: section %d checksum mismatch", ErrCorrupt, id)
		}
		if _, dup := payloads[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, id)
		}
		payloads[id] = payload
	}
	for _, id := range []uint32{secMeta, secOrder, secRecords, secTombstones} {
		if _, ok := payloads[id]; !ok {
			return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
		}
	}

	s := &Snapshot{}
	if err := s.decodeMeta(payloads[secMeta]); err != nil {
		return nil, err
	}
	if err := s.decodeOrder(payloads[secOrder]); err != nil {
		return nil, err
	}
	if err := s.decodeRecords(payloads[secRecords]); err != nil {
		return nil, err
	}
	if err := s.decodeTombstones(payloads[secTombstones]); err != nil {
		return nil, err
	}
	return s, s.validate()
}

func (s *Snapshot) encodeMeta() []byte {
	var w writer
	w.f64(s.Theta)
	w.uvarint(uint64(s.Tau))
	w.u8(s.Method)
	// Two reserved bytes: written 0, ignored on read. The first once carried
	// the planner mode, the second (bit 0) ClassicFilter, a posting-layout
	// toggle; neither had any effect on answers, so snapshots that have them
	// set restore unchanged.
	w.u8(0)
	w.u8(0)
	w.uvarint(uint64(s.Shards))
	w.uvarint(s.NextID)
	return w.buf
}

func (s *Snapshot) decodeMeta(b []byte) error {
	r := reader{b: b}
	s.Theta = r.f64()
	s.Tau = int(r.uvarint())
	s.Method = r.u8()
	r.u8() // the two reserved bytes, see encodeMeta
	r.u8()
	s.Shards = int(r.uvarint())
	s.NextID = r.uvarint()
	return r.finish()
}

func (s *Snapshot) encodeOrder() []byte {
	var w writer
	w.uvarint(uint64(len(s.Order.FrozenKeys)))
	for i, k := range s.Order.FrozenKeys {
		w.str(k)
		w.uvarint(uint64(s.Order.Freqs[i]))
	}
	w.uvarint(uint64(len(s.Order.DynamicKeys)))
	for _, k := range s.Order.DynamicKeys {
		w.str(k)
	}
	return w.buf
}

func (s *Snapshot) decodeOrder(b []byte) error {
	r := reader{b: b}
	nf := r.count(2)
	s.Order.FrozenKeys = make([]string, nf)
	s.Order.Freqs = make([]uint32, nf)
	for i := 0; i < nf; i++ {
		s.Order.FrozenKeys[i] = r.str()
		s.Order.Freqs[i] = uint32(r.uvarint())
	}
	nd := r.count(1)
	s.Order.DynamicKeys = make([]string, nd)
	for i := 0; i < nd; i++ {
		s.Order.DynamicKeys[i] = r.str()
	}
	return r.finish()
}

func (s *Snapshot) encodeRecords() []byte {
	var w writer
	w.uvarint(uint64(len(s.Records)))
	for i := range s.Records {
		w.uvarint(uint64(s.Records[i].ID))
		w.str(s.Records[i].Raw)
	}
	return w.buf
}

func (s *Snapshot) decodeRecords(b []byte) error {
	r := reader{b: b}
	n := r.count(2)
	s.Records = make([]RecordData, n)
	for i := 0; i < n; i++ {
		id := r.uvarint()
		if id > uint64(^uint32(0)) {
			r.fail()
			break
		}
		s.Records[i].ID = uint32(id)
		s.Records[i].Raw = r.str()
	}
	return r.finish()
}

func (s *Snapshot) encodeTombstones() []byte {
	var w writer
	w.uvarint(uint64(len(s.Dead)))
	for _, word := range s.Dead {
		w.u64(word)
	}
	return w.buf
}

func (s *Snapshot) decodeTombstones(b []byte) error {
	r := reader{b: b}
	n := r.count(8)
	s.Dead = make([]uint64, n)
	for i := 0; i < n; i++ {
		s.Dead[i] = r.u64()
	}
	return r.finish()
}

// validate cross-checks the decoded sections: IDs strictly ascending and
// below NextID, frozen frequencies in Finalize order, and the tombstone
// bitmap sized to the record count with no bits past the end.
func (s *Snapshot) validate() error {
	if s.Theta < 0 || s.Theta > 1 || s.Theta != s.Theta {
		return fmt.Errorf("%w: theta %v out of range", ErrCorrupt, s.Theta)
	}
	if s.Shards < 1 || s.Shards > 1<<16 {
		return fmt.Errorf("%w: shard count %d", ErrCorrupt, s.Shards)
	}
	if !sort.SliceIsSorted(s.Order.Freqs, func(i, j int) bool { return s.Order.Freqs[i] < s.Order.Freqs[j] }) {
		return fmt.Errorf("%w: frozen frequencies not sorted", ErrCorrupt)
	}
	prevID := int64(-1)
	for i := range s.Records {
		rec := &s.Records[i]
		if int64(rec.ID) <= prevID {
			return fmt.Errorf("%w: record IDs not strictly ascending at %d", ErrCorrupt, rec.ID)
		}
		prevID = int64(rec.ID)
		if uint64(rec.ID) >= s.NextID {
			return fmt.Errorf("%w: record ID %d >= next ID %d", ErrCorrupt, rec.ID, s.NextID)
		}
	}
	wantWords := (len(s.Records) + 63) / 64
	if len(s.Dead) != wantWords {
		return fmt.Errorf("%w: tombstone bitmap has %d words, want %d", ErrCorrupt, len(s.Dead), wantWords)
	}
	if rem := len(s.Records) % 64; rem != 0 && wantWords > 0 {
		if s.Dead[wantWords-1]>>uint(rem) != 0 {
			return fmt.Errorf("%w: tombstone bits past record count", ErrCorrupt)
		}
	}
	return nil
}

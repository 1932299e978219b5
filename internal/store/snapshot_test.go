package store

import (
	"reflect"
	"strings"
	"testing"
)

// testSnapshot builds a snapshot exercising every section: a mixed frozen and
// dynamic order, sparse ascending record IDs, an empty record and a set
// tombstone bit. Empty slices are deliberately non-nil so a decode round-trip
// is reflect.DeepEqual-exact.
func testSnapshot() *Snapshot {
	return &Snapshot{
		Theta:  0.8,
		Tau:    2,
		Method: 2,
		Shards: 4,
		NextID: 7,
		Order: OrderData{
			FrozenKeys:  []string{"aa", "bb", "cc"},
			Freqs:       []uint32{1, 2, 2},
			DynamicKeys: []string{"dd"},
		},
		Records: []RecordData{
			{ID: 0, Raw: "aa bb"},
			{ID: 2, Raw: "cc dd"},
			{ID: 6, Raw: ""},
		},
		Dead: []uint64{1 << 1},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := testSnapshot()
	got, err := Decode(want.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotRoundTripEmpty(t *testing.T) {
	want := &Snapshot{
		Theta:   0.5,
		Shards:  1,
		Order:   OrderData{FrozenKeys: []string{}, Freqs: []uint32{}, DynamicKeys: []string{}},
		Records: []RecordData{},
		Dead:    []uint64{},
	}
	got, err := Decode(want.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotNoPlannerSection pins what is left of retired sections in the
// format: Encode writes the four required sections and nothing under the
// retired ids 4 (signatures), 5 (prepared-segment spans) or 7 (the deleted
// planner's feedback), an image that still carries all three decodes to the
// same snapshot, and so does one whose meta section still has the retired
// plan byte set.
func TestSnapshotNoPlannerSection(t *testing.T) {
	want := testSnapshot()
	data := want.Encode()
	hr := reader{b: data, off: 12}
	var ids []uint32
	for range hr.u32() {
		ids = append(ids, hr.u32())
		hr.u64()
		hr.u64()
		hr.u32()
	}
	if !reflect.DeepEqual(ids, []uint32{secMeta, secOrder, secRecords, secTombstones}) {
		t.Fatalf("Encode wrote sections %v, want [1 2 3 6]", ids)
	}
	retired := snapshotSections(want)
	for _, id := range []uint32{4, 5, 7} {
		retired = append(retired, struct {
			id      uint32
			payload []byte
		}{id, []byte{3, 0, 1, 2}})
	}
	for name, image := range map[string][]byte{"retired sections": encodeSections(retired), "retired plan byte set": planByteSet(want)} {
		t.Run(name, func(t *testing.T) {
			got, err := Decode(image)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("the decode changed:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestSnapshotCorruption flips every byte of a valid image (and truncates it
// at every length) and requires Decode to reject the result — every section
// is required and checksummed and the table is structurally validated, so no
// single-byte defect may slip through, and none may panic.
func TestSnapshotCorruption(t *testing.T) {
	data := testSnapshot().Encode()
	for i := range data {
		bad := make([]byte, len(data))
		copy(bad, data)
		bad[i] ^= 0xFF
		if _, err := Decode(bad); err == nil {
			t.Fatalf("byte %d flipped: Decode accepted corrupt image", i)
		}
	}
	for i := 0; i < len(data); i++ {
		if _, err := Decode(data[:i]); err == nil {
			t.Fatalf("truncated to %d bytes: Decode accepted", i)
		}
	}
}

// encodeSections builds an image from explicit (id, payload) sections with
// the real header/table layout, so tests can inject sections Encode never
// writes.
func encodeSections(secs []struct {
	id      uint32
	payload []byte
}) []byte {
	const headerSize = 8 + 4 + 4
	const entrySize = 4 + 8 + 8 + 4
	var w writer
	w.buf = append(w.buf, Magic...)
	w.u32(Version)
	w.u32(uint32(len(secs)))
	offset := uint64(headerSize + entrySize*len(secs))
	for _, sec := range secs {
		w.u32(sec.id)
		w.u64(offset)
		w.u64(uint64(len(sec.payload)))
		w.u32(checksum(sec.payload))
		offset += uint64(len(sec.payload))
	}
	for _, sec := range secs {
		w.buf = append(w.buf, sec.payload...)
	}
	return w.buf
}

func snapshotSections(s *Snapshot) []struct {
	id      uint32
	payload []byte
} {
	return []struct {
		id      uint32
		payload []byte
	}{
		{secMeta, s.encodeMeta()},
		{secOrder, s.encodeOrder()},
		{secRecords, s.encodeRecords()},
		{secTombstones, s.encodeTombstones()},
	}
}

// planByteSet encodes s the way a release with the planner encoded an index
// built with planning off: the meta section's retired plan byte (after the
// 8-byte θ, τ's varint and the method byte) is 1 instead of 0, under a
// recomputed checksum.
func planByteSet(s *Snapshot) []byte {
	secs := snapshotSections(s)
	var tau writer
	tau.uvarint(uint64(s.Tau))
	secs[0].payload[8+len(tau.buf)+1] = 1
	return encodeSections(secs)
}

func TestSnapshotUnknownSectionSkipped(t *testing.T) {
	want := testSnapshot()
	secs := append(snapshotSections(want), struct {
		id      uint32
		payload []byte
	}{99, []byte("payload from a future format revision")})
	got, err := Decode(encodeSections(secs))
	if err != nil {
		t.Fatalf("Decode with unknown section: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unknown section changed the decode:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotDuplicateSectionRejected(t *testing.T) {
	s := testSnapshot()
	secs := append(snapshotSections(s), snapshotSections(s)[0])
	if _, err := Decode(encodeSections(secs)); err == nil {
		t.Fatal("duplicate section accepted")
	}
}

func TestSnapshotMissingSectionRejected(t *testing.T) {
	all := snapshotSections(testSnapshot())
	for drop := range all {
		secs := make([]struct {
			id      uint32
			payload []byte
		}, 0, len(all)-1)
		for i, sec := range all {
			if i != drop {
				secs = append(secs, sec)
			}
		}
		if _, err := Decode(encodeSections(secs)); err == nil {
			t.Fatalf("image missing section %d accepted", all[drop].id)
		}
	}
}

func TestSnapshotUnsupportedVersion(t *testing.T) {
	data := testSnapshot().Encode()
	data[8]++ // little-endian version low byte
	_, err := Decode(data)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
}

// TestSnapshotValidate drives every cross-section consistency check with an
// image that decodes cleanly but describes an impossible index.
func TestSnapshotValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"theta above one", func(s *Snapshot) { s.Theta = 1.5 }},
		{"theta NaN", func(s *Snapshot) { nan := 0.0; s.Theta = nan / nan }},
		{"zero shards", func(s *Snapshot) { s.Shards = 0 }},
		{"unsorted frequencies", func(s *Snapshot) { s.Order.Freqs = []uint32{2, 1, 2} }},
		{"record IDs not ascending", func(s *Snapshot) { s.Records[1].ID = 0 }},
		{"record ID at next ID", func(s *Snapshot) { s.Records[2].ID = uint32(s.NextID) }},
		{"tombstone bitmap too short", func(s *Snapshot) { s.Dead = []uint64{} }},
		{"tombstone bits past records", func(s *Snapshot) { s.Dead = []uint64{1 << 63} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSnapshot()
			tc.mutate(s)
			if _, err := Decode(s.Encode()); err == nil {
				t.Fatal("invalid snapshot accepted")
			}
		})
	}
}

package store

import (
	"os"
	"testing"
)

// FuzzSnapshotDecode hammers the sectioned snapshot decoder with arbitrary
// bytes. The contract under fuzz: never panic, never over-read (the strict
// reader bounds every count by the remaining input), and anything accepted
// must be a valid snapshot that survives a canonical re-encode round trip.
// Among the seeds that decode are a real index's four-section image
// (testdata/fuzz) and an image with the retired sections 4, 5 and 7 written
// by an earlier encoder, so mutation starts inside every section decoder.
func FuzzSnapshotDecode(f *testing.F) {
	older, err := os.ReadFile("../../testdata/snapshot_pr15_flag_bit0.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(older)
	f.Add(testSnapshot().Encode())
	empty := &Snapshot{
		Theta:   0.5,
		Shards:  1,
		Order:   OrderData{FrozenKeys: []string{}, Freqs: []uint32{}, DynamicKeys: []string{}},
		Records: []RecordData{},
		Dead:    []uint64{},
	}
	f.Add(empty.Encode())
	f.Add(planByteSet(testSnapshot()))
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		// Whatever the decoder accepted — including images with non-minimal
		// varints — must describe a snapshot the canonical encoder can round
		// trip losslessly.
		s2, err := Decode(s.Encode())
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-decode: %v", err)
		}
		if len(s2.Records) != len(s.Records) || s2.NextID != s.NextID || s2.Shards != s.Shards {
			t.Fatalf("re-encode changed the snapshot: %+v vs %+v", s2, s)
		}
	})
}

// FuzzWALReplay hammers the WAL replayer. The contract: never panic, report a
// clean-prefix length inside the input, replay the clean prefix identically a
// second time (truncation-then-append safety depends on that), and yield
// entries that re-encode into a log replaying to the same entries.
func FuzzWALReplay(f *testing.F) {
	var log []byte
	for _, e := range []WalEntry{
		{Op: OpInsert, Raws: []string{"alpha", ""}},
		{Op: OpRemove, IDs: []uint64{3, 1 << 33}},
	} {
		frame, err := EncodeWalEntry(e)
		if err != nil {
			f.Fatal(err)
		}
		log = append(log, frame...)
	}
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, good := ReplayWAL(data)
		if good < 0 || good > len(data) {
			t.Fatalf("clean prefix %d outside input of %d bytes", good, len(data))
		}
		again, g2 := ReplayWAL(data[:good])
		if g2 != good || !equalEntries(entries, again) {
			t.Fatalf("clean prefix did not replay identically: %d/%d entries, %d/%d bytes",
				len(again), len(entries), g2, good)
		}
		var re []byte
		for _, e := range entries {
			frame, err := EncodeWalEntry(e)
			if err != nil {
				t.Fatalf("replayed entry does not re-encode: %v", err)
			}
			re = append(re, frame...)
		}
		re2, gr := ReplayWAL(re)
		if gr != len(re) || !equalEntries(re2, entries) {
			t.Fatal("re-encoded log did not replay to the same entries")
		}
	})
}

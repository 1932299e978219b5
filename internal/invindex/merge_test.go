package invindex

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// mergeCase is one compaction FuzzIndexMerge draws: a base built over a
// universe at a cutoff, the delta segments appended to it, the tombstone
// bitmap over every position, and the universe and cutoff of the merge.
type mergeCase struct {
	base             [][]uint32
	segs             [][][]uint32
	dead             []uint64
	records          int
	universe, merged int
	cutoff, mcutoff  int
}

// decodeMerge turns fuzz bytes into a mergeCase. Five header bytes: the base
// universe (1 to 32), the IDs the merge's universe adds past it (0 to 7),
// the base's cutoff and the merge's (0, 1, 2, 3, 16, or one past the index's
// records), and a mask whose bit r mod 8 tombstones position r. Every
// further byte is an ID of the current record — 0xff closes the record, 0xfe
// the segment (the first is the base; one that holds one empty record holds
// none) — taken modulo one past the universe its index knows, that last
// value standing for NoID.
func decodeMerge(data []byte) mergeCase {
	var h [5]byte
	copy(h[:], data)
	c := mergeCase{universe: 1 + int(h[0])%32}
	c.merged = c.universe + int(h[1])%8
	segs := [][][]uint32{{nil}}
	for _, b := range data[min(len(data), 5):] {
		last := segs[len(segs)-1]
		switch {
		case b == 0xfe:
			segs = append(segs, [][]uint32{nil})
		case b == 0xff:
			segs[len(segs)-1] = append(last, nil)
		default:
			u := c.universe
			if len(segs) > 1 {
				u = c.merged
			}
			id := uint32(int(b) % (u + 1))
			if int(id) == u {
				id = noID
			}
			last[len(last)-1] = append(last[len(last)-1], id)
		}
	}
	for i, s := range segs {
		if len(s) == 1 && len(s[0]) == 0 {
			segs[i] = nil // a segment of one empty record holds none
		}
		c.records += len(segs[i])
	}
	c.base, c.segs = segs[0], segs[1:]
	c.dead = make([]uint64, (c.records+63)/64)
	live := 0
	for r := range c.records {
		if h[4]&(1<<(r%8)) != 0 {
			c.dead[r>>6] |= 1 << (r & 63)
		} else {
			live++
		}
	}
	cutoff := func(sel byte, records int) int {
		return []int{0, 1, 2, 3, 16, records + 1}[int(sel)%6]
	}
	c.cutoff, c.mcutoff = cutoff(h[2], len(c.base)), cutoff(h[3], live)
	return c
}

// run builds the base and the segments, merges them, and returns the
// merged index with the index Build makes over the survivors' signatures.
func (c mergeCase) run() (got, want *Index) {
	base := Build(c.universe, c.base, c.cutoff)
	all := append([][]uint32(nil), c.base...)
	var deltas []*Delta
	for _, s := range c.segs {
		d := NewDelta()
		for _, ids := range s {
			d.Add(len(all), ids)
			all = append(all, ids)
		}
		deltas = append(deltas, d)
	}
	var survivors [][]uint32
	for r, ids := range all {
		if c.dead[r>>6]&(1<<(r&63)) == 0 {
			survivors = append(survivors, ids)
		}
	}
	return base.Merge(deltas, c.dead, c.records, c.merged, c.mcutoff), Build(c.merged, survivors, c.mcutoff)
}

// FuzzIndexMerge holds a compaction's merge to Build over the surviving
// signatures at the same cutoff, field for field: offsets, the dense and
// sparse split, the arena, the bitmaps and their residuals, and the key
// census.
func FuzzIndexMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeMerge(data)
		if got, want := c.run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("merge of %+v:\n got %+v\nwant %+v", c, got, want)
		}
	})
}

// TestIndexMergeSeeds pins what the FuzzIndexMerge seeds under testdata/fuzz
// are there for: between them, a list that goes from slice to bitmap form
// and one that goes back, a key only a segment holds past the base's
// universe, a repeat within a record, a list every record of which is dead,
// and an empty base.
func TestIndexMergeSeeds(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzIndexMerge", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzIndexMerge seeds: %v", err)
	}
	covered := map[string]bool{}
	for _, name := range files {
		text, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(text)), "\n")
		lit, ok := strings.CutSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte seed: %v", name, err)
		}
		c := decodeMerge([]byte(data))
		got, want := c.run()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the merge differs from Build", name)
		}
		base := Build(c.universe, c.base, c.cutoff)
		if len(c.base) == 0 {
			covered["empty base"] = true
		}
		for id := range uint32(c.merged) {
			switch {
			case base.Bitset(id) == nil && base.ListLength(id) > 0 && got.Bitset(id) != nil:
				covered["slice to bitmap"] = true
			case base.Bitset(id) != nil && got.ListLength(id) > 0 && got.Bitset(id) == nil:
				covered["bitmap to slice"] = true
			case int(id) >= c.universe && got.ListLength(id) > 0:
				covered["key past the base's universe"] = true
			}
			if base.ListLength(id) > 0 && got.ListLength(id) == 0 {
				covered["all-dead list"] = true
			}
			for p := range got.List(id) {
				if p.Count > 1 {
					covered["repeat within a record"] = true
				}
			}
		}
	}
	for _, want := range []string{"slice to bitmap", "bitmap to slice", "key past the base's universe", "repeat within a record", "all-dead list", "empty base"} {
		if !covered[want] {
			t.Errorf("no seed covers %s", want)
		}
	}
}

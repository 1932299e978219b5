package invindex

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"
)

func TestAddAndLookup(t *testing.T) {
	// IDs 0, 1, 2 stand for the interned keys "g:ab", "g:bc", "s:rule".
	ix := New(4)
	ix.Add(0, []uint32{0, 1, 0})
	ix.Add(1, []uint32{1, 2})
	ix.Hybridize(0)
	if ix.Records() != 2 {
		t.Errorf("Records = %d, want 2", ix.Records())
	}
	if ix.Universe() != 4 {
		t.Errorf("Universe = %d, want 4", ix.Universe())
	}
	if ix.KeyCount() != 3 {
		t.Errorf("KeyCount = %d, want 3", ix.KeyCount())
	}
	ab := ix.Postings(0)
	if len(ab) != 1 || ab[0].Record != 0 || ab[0].Count != 2 {
		t.Errorf("Postings(0) = %+v", ab)
	}
	bc := ix.Postings(1)
	if len(bc) != 2 {
		t.Errorf("Postings(1) = %+v", bc)
	}
	if ix.ListLength(1) != 2 || ix.ListLength(3) != 0 {
		t.Error("ListLength wrong")
	}
	if ix.Postings(3) != nil || ix.Postings(99) != nil {
		t.Error("absent IDs should have nil postings")
	}
	want := []uint32{0, 1, 2}
	if got := ix.Keys(); !reflect.DeepEqual(got, want) {
		t.Errorf("Keys = %v, want %v", got, want)
	}
}

func TestAddSkipsOutOfUniverseIDs(t *testing.T) {
	ix := New(2)
	ix.Add(0, []uint32{0, ^uint32(0), 5}) // NoID and an overflow ID are dropped
	ix.Hybridize(0)
	if ix.KeyCount() != 1 {
		t.Errorf("KeyCount = %d, want 1", ix.KeyCount())
	}
	if got := ix.Postings(0); len(got) != 1 || got[0].Count != 1 {
		t.Errorf("Postings(0) = %+v", got)
	}
}

func TestPostingListsSortedByRecord(t *testing.T) {
	ix := New(1)
	for rec := 0; rec < 5; rec++ {
		ix.Add(rec, []uint32{0})
	}
	ix.Hybridize(0)
	l := ix.Postings(0)
	for i := 1; i < len(l); i++ {
		if l[i].Record <= l[i-1].Record {
			t.Fatalf("posting list not sorted by record: %+v", l)
		}
	}
}

// refIndex is the map-of-lists reference of an index: every in-universe ID's
// posting list, built one occurrence at a time.
func refIndex(universe int, sigs [][]uint32) map[uint32][]Posting {
	ref := map[uint32][]Posting{}
	for r, ids := range sigs {
		for _, id := range ids {
			if id >= uint32(universe) {
				continue
			}
			l := ref[id]
			if n := len(l); n > 0 && l[n-1].Record == int32(r) {
				l[n-1].Count++
			} else {
				l = append(l, Posting{Record: int32(r), Count: 1})
			}
			ref[id] = l
		}
	}
	return ref
}

// checkIndex holds every accessor of ix, built over sigs at cutoff, to the
// reference: each ID's list in the representation the cutoff gives it, and
// the key census.
func checkIndex(t *testing.T, ix *Index, universe int, sigs [][]uint32, cutoff int) {
	t.Helper()
	ref := refIndex(universe, sigs)
	if ix.Records() != len(sigs) || ix.Universe() != universe {
		t.Fatalf("Records %d, Universe %d; want %d, %d", ix.Records(), ix.Universe(), len(sigs), universe)
	}
	var keys []uint32
	denseKeys := 0
	// Every ID of the universe, two past it and NoID.
	ids := []uint32{noID}
	for id := range uint32(universe + 2) {
		ids = append(ids, id)
	}
	for _, id := range ids {
		want := ref[id]
		if ix.ListLength(id) != len(want) {
			t.Fatalf("ID %d: ListLength %d, want %d", id, ix.ListLength(id), len(want))
		}
		if len(want) > 0 {
			keys = append(keys, id)
		}
		bs := ix.Bitset(id)
		if isDense := cutoff > 0 && len(want) >= cutoff; (bs != nil) != isDense {
			t.Fatalf("ID %d: bitmap %v with %d records at cutoff %d", id, bs != nil, len(want), cutoff)
		}
		if bs == nil {
			if got := ix.Postings(id); !reflect.DeepEqual(got, want) {
				t.Fatalf("ID %d: postings %v, want %v", id, got, want)
			}
			continue
		}
		denseKeys++
		if ix.Postings(id) != nil {
			t.Fatalf("ID %d: a bitmap-form list also has postings %v", id, ix.Postings(id))
		}
		if len(bs.words) != (len(sigs)+63)/64 {
			t.Fatalf("ID %d: %d bitmap words for %d records", id, len(bs.words), len(sigs))
		}
		var members, residual []Posting
		for w, x := range bs.words {
			for ; x != 0; x &= x - 1 {
				members = append(members, Posting{Record: int32(w<<6 + bits.TrailingZeros64(x)), Count: 1})
			}
		}
		for _, p := range want {
			if p.Count > 1 {
				residual = append(residual, Posting{Record: p.Record, Count: p.Count - 1})
			}
		}
		if bs.Card() != len(want) || len(members) != len(want) {
			t.Fatalf("ID %d: card %d and %d bits set, want %d", id, bs.Card(), len(members), len(want))
		}
		for i, p := range want {
			if members[i].Record != p.Record {
				t.Fatalf("ID %d: bitmap records %v, want the records of %v", id, members, want)
			}
		}
		if !reflect.DeepEqual(bs.Residual(), residual) {
			t.Fatalf("ID %d: residual %v, want %v", id, bs.Residual(), residual)
		}
	}
	slices.Sort(keys)
	if got := ix.Keys(); !slices.Equal(got, keys) {
		t.Fatalf("Keys %v, want %v", got, keys)
	}
	if ix.KeyCount() != len(keys) || ix.DenseKeys() != denseKeys || ix.SparseKeys() != len(keys)-denseKeys {
		t.Fatalf("KeyCount %d, DenseKeys %d, SparseKeys %d; want %d, %d, %d",
			ix.KeyCount(), ix.DenseKeys(), ix.SparseKeys(), len(keys), denseKeys, len(keys)-denseKeys)
	}
}

// decodeBuild turns fuzz bytes into a universe, a cutoff and the records'
// signature IDs: the first byte sizes the universe (1 to 32), the second
// picks the cutoff (0, 1, 16, one past the record count, or 2 to 8), and
// every further byte is an ID of the current record, 0xff closing it. IDs
// run one and two past the universe, and the byte universe+2 is NoID.
func decodeBuild(data []byte) (int, [][]uint32, int) {
	if len(data) < 2 {
		return 1, nil, 0
	}
	universe := 1 + int(data[0])%32
	sigs := [][]uint32{nil}
	for _, b := range data[2:] {
		switch {
		case b == 0xff:
			sigs = append(sigs, nil)
		case int(b)%(universe+3) == universe+2:
			sigs[len(sigs)-1] = append(sigs[len(sigs)-1], noID)
		default:
			sigs[len(sigs)-1] = append(sigs[len(sigs)-1], uint32(int(b)%(universe+3)))
		}
	}
	var cutoff int
	switch c := int(data[1]) % 8; c {
	case 0, 1:
		cutoff = c
	case 2:
		cutoff = 16
	case 3:
		cutoff = len(sigs) + 1
	default:
		cutoff = c - 2
	}
	return universe, sigs, cutoff
}

// buildSeeds are FuzzIndexBuild's seeds: adjacent and non-adjacent repeats,
// NoID and out-of-universe IDs, empty records, and each kind of cutoff.
func buildSeeds() [][]byte {
	seq := func(universe, cutoff byte, recs ...[]byte) []byte {
		out := []byte{universe - 1, cutoff}
		for i, r := range recs {
			if i > 0 {
				out = append(out, 0xff)
			}
			out = append(out, r...)
		}
		return out
	}
	var twenty [][]byte // twenty records over a universe of 3: IDs 0 and 2 in all, ID 1 in every other, 3 past the universe
	for r := range 20 {
		rec := []byte{0, 2}
		if r%2 == 0 {
			rec = append(rec, 1, 3, 1)
		}
		if r%5 == 0 {
			rec = append(rec, 0, 0)
		}
		twenty = append(twenty, rec)
	}
	return [][]byte{
		seq(3, 0, []byte{0, 0, 1}, []byte{1, 2, 1}, nil, []byte{5, 4, 3}),    // no conversion: repeats, NoID (5), past the universe (3, 4)
		seq(3, 1, []byte{0, 0, 1}, []byte{1, 2, 1}, nil, []byte{2, 5, 2, 2}), // everything dense
		seq(3, 2, twenty...),               // cutoff 16: IDs 0 and 2 dense, 1 (ten records) not
		seq(3, 3, []byte{0, 1}, []byte{0}), // cutoff past the record count
		seq(1, 4, nil, nil, nil),           // empty records only, cutoff 2
		seq(9, 5, []byte{8, 0, 8, 0}, []byte{0, 8}, []byte{8}, []byte{0, 9, 10, 11}),
	}
}

// FuzzIndexBuild holds Build, and New–Add–Hybridize, to the map-of-lists
// reference on every ID's lists and the key census.
func FuzzIndexBuild(f *testing.F) {
	for _, s := range buildSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		universe, sigs, cutoff := decodeBuild(data)
		checkIndex(t, Build(universe, sigs, cutoff), universe, sigs, cutoff)
		ix := New(universe)
		for r, ids := range sigs {
			ix.Add(r, ids)
		}
		ix.Hybridize(cutoff)
		checkIndex(t, ix, universe, sigs, cutoff)
	})
}

// TestIndexBuildSeeds pins what each FuzzIndexBuild seed is there for.
func TestIndexBuildSeeds(t *testing.T) {
	seeds := buildSeeds()
	type shape struct{ records, cutoff, dense, sparse int }
	want := []shape{
		{4, 0, 0, 3},
		{4, 1, 3, 0},
		{20, 16, 2, 1},
		{2, 3, 0, 2},
		{3, 2, 0, 0},
		{4, 3, 2, 0},
	}
	for i, s := range seeds {
		universe, sigs, cutoff := decodeBuild(s)
		ix := Build(universe, sigs, cutoff)
		got := shape{len(sigs), cutoff, ix.DenseKeys(), ix.SparseKeys()}
		if got != want[i] {
			t.Errorf("seed %d: %+v, want %+v", i, got, want[i])
		}
		checkIndex(t, ix, universe, sigs, cutoff)
	}
}

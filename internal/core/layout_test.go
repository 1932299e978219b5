package core

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"github.com/aujoin/aujoin/internal/datagen"
	"github.com/aujoin/aujoin/internal/sim"
	"github.com/aujoin/aujoin/internal/strutil"
)

// holdsPointer reports whether a value of type t holds a pointer the
// collector must trace.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default:
		return true // pointers, slices, strings, maps, channels, funcs, interfaces
	}
}

// TestPreparedSegmentLayout pins the prepared segment's layout: at most 12
// bytes and no pointer, so a record's segment array is one pointer-free
// allocation the collector never scans. The record header beside it keeps a
// token count, not the tokens, and fits 72 bytes (the 80-byte size class).
func TestPreparedSegmentLayout(t *testing.T) {
	if holdsPointer(reflect.TypeOf(PreparedSegment{})) {
		t.Fatal("PreparedSegment holds a pointer")
	}
	if size := unsafe.Sizeof(PreparedSegment{}); size > 12 {
		t.Fatalf("PreparedSegment is %d bytes, want at most 12", size)
	}
	if size := unsafe.Sizeof(PreparedRecord{}); size > 72 {
		t.Fatalf("PreparedRecord is %d bytes, want at most 72", size)
	}
}

// TestPreparedSegmentRange holds the packed fields at the top of their range:
// a span ending at the last position a record of fewer than maxRecordSegs
// segments can have, with both flags, and a side-table index as large,
// unpack to what was packed.
func TestPreparedSegmentRange(t *testing.T) {
	top := maxRecordSegs - 1
	for _, flags := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		s := Segment{Span: strutil.Span{Start: top - 1, End: top}, Rule: flags[0], Entity: flags[1]}
		sg := packSegment(&s)
		sg.ref = ownRef | uint32(top-1)
		if sg.Span() != s.Span || sg.Len() != 1 || sg.Rule() != s.Rule || sg.Entity() != s.Entity || sg.ID() != NoSegID {
			t.Fatalf("%+v packed as %+v: span %v, len %d, rule %v, entity %v, ID %d", s, sg, sg.Span(), sg.Len(), sg.Rule(), sg.Entity(), sg.ID())
		}
		if sg.ref-ownRef != uint32(top-1) {
			t.Fatalf("side-table index %d read back as %d", top-1, sg.ref-ownRef)
		}
		long := Segment{Span: strutil.Span{Start: 0, End: top}, Rule: flags[0], Entity: flags[1]}
		if sg := packSegment(&long); sg.Len() != top || sg.Span() != long.Span {
			t.Fatalf("a span of %d tokens packed as %+v", top, sg)
		}
	}
}

// TestRecordTooLong lowers maxRecordSegs through its seam and prepares
// records at the limit: one segment fewer packs, every way a record is
// prepared, and a record of the limit's segments — by its tokens alone, or
// by fewer tokens that rule sides and entity names cover — panics with
// ErrRecordTooLong.
func TestRecordTooLong(t *testing.T) {
	defer func(n int) { maxRecordSegs = n }(maxRecordSegs)
	maxRecordSegs = 6
	calc, d := NewCalculator(paperContext()), NewSegDict()
	var ps ProbeScratch
	prepares := map[string]func([]string) *PreparedRecord{
		"Prepare":          calc.Prepare,
		"PrepareIn":        func(tokens []string) *PreparedRecord { return calc.PrepareIn(d, tokens) },
		"PrepareProbe":     func(tokens []string) *PreparedRecord { return calc.PrepareProbe(d, tokens) },
		"PrepareProbeInto": func(tokens []string) *PreparedRecord { return calc.PrepareProbeInto(&ps, d, tokens) },
	}
	fits := strutil.Tokenize("tok01 tok02 tok03 tok04 tok05")
	tooMany := strutil.Tokenize("tok01 tok02 tok03 tok04 tok05 tok06")
	covered := strutil.Tokenize("coffee shop latte coffee shop") // five tokens, two spans over "coffee shop"
	for name, prepare := range prepares {
		if pr := prepare(fits); len(pr.Segs) != 5 {
			t.Fatalf("%s: %v prepared into %d segments, want 5", name, fits, len(pr.Segs))
		}
		for _, tokens := range [][]string{tooMany, covered} {
			func() {
				defer func() {
					err, _ := recover().(error)
					if !errors.Is(err, ErrRecordTooLong) {
						t.Fatalf("%s: %v of %d segments, limit %d: recovered %v, want ErrRecordTooLong", name, tokens, len(calc.Segmenter().Segments(tokens)), maxRecordSegs, err)
					}
				}()
				prepare(tokens)
			}()
		}
	}
	if n := len(calc.Segmenter().Segments(covered)); n < maxRecordSegs {
		t.Fatalf("%v has %d segments, below the limit %d", covered, n, maxRecordSegs)
	}
}

// TestSegDictEntryHeap bounds what a dictionary keeps alive a text on the
// 10 000-title corpus, with the records' tokens held elsewhere: the table by
// value in its chunk, its gram set, the score byte, the gram numbering and
// occurrence chains, and the key-table slots of the texts and the grams —
// 240.9 B. With a map from text to ID and one from gram to its number and
// chain head, it kept 276 B, and with a table held through a pointer a
// text, with a copy of every gram occurrence as a pebble key, 425 B.
func TestSegDictEntryHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("heap readings are only meaningful without -race; skipped with -short")
	}
	d, tokens := internTitles()
	entries, occs := d.Len(), len(d.occs)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	runtime.KeepAlive(d) // its last use: the collections below free it
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	freed := int64(before.HeapAlloc) - int64(after.HeapAlloc)
	perEntry := float64(freed) / float64(entries)
	t.Logf("%d entries, %d gram occurrences: the dictionary keeps %d B alive, %.1f B an entry", entries, occs, freed, perEntry)
	if perEntry > segDictEntryBytes {
		t.Errorf("the dictionary keeps %.1f B alive an entry, more than %d B", perEntry, segDictEntryBytes)
	}
	runtime.KeepAlive(tokens)
}

// internTitles interns the 10 000-title corpus into a new dictionary and
// returns it with the records' tokens.
func internTitles() (*SegDict, [][]string) {
	gen := datagen.New(titlesShape(10000))
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = 5
	calc, d := NewCalculator(ctx), NewSegDict()
	var tokens [][]string
	for _, raw := range gen.Collection(10000) {
		tokens = append(tokens, strutil.Tokenize(raw))
		calc.PrepareIn(d, tokens[len(tokens)-1])
	}
	return d, tokens
}

// segDictEntryBytes bounds TestSegDictEntryHeap's bytes an entry.
const segDictEntryBytes = 256

// TestSegDictReadsAcrossChunks reads dictionary tables without the lock
// while another goroutine interns across chunk boundaries: every ID below
// the length a reader read (under the lock) names a table, read with no
// lock, whose text is the one interned under that ID. Run it under the race
// detector, where a table written after its ID was handed out, or a chunk
// that moved, is a reported race or a wrong text.
func TestSegDictReadsAcrossChunks(t *testing.T) {
	calc, d := NewCalculator(paperContext()), NewSegDict()
	n := doubled + 1<<chunkBitsN + 40 // every doubling chunk, one fixed chunk and part of another
	texts := make([]string, n)
	for i := range texts {
		texts[i] = "t" + string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676%26))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for id := range uint32(d.Len()) {
					if got := d.table(id).Text; got != texts[id] {
						t.Errorf("table %d holds %q, interned as %q", id, got, texts[id])
						return
					}
				}
			}
		}()
	}
	for _, text := range texts {
		if id, _ := d.intern(calc.Ctx, text); int(id) >= len(texts) || texts[id] != text {
			t.Errorf("%q interned as %d", text, id)
		}
	}
	close(stop)
	wg.Wait()
	for k, off := range []uint32{0, doubled - 1, doubled, uint32(n - 1)} {
		if got := d.table(off).Text; got != texts[off] {
			t.Fatalf("boundary %d: table %d holds %q, want %q", k, off, got, texts[off])
		}
	}
}

// BenchmarkPrepareIn is the prepared layout's cost a record: each op interns
// 2 000 titles (q = 5, tokenized beforehand) into a new dictionary and keeps
// the records, as an index build does, through one segment-enumeration
// buffer, as a build's worker does (PrepareInBuf). B/record and
// allocs/record are what the op allocated over its records: the segments,
// the record headers and the dictionary's tables, keys and gram numbering.
func BenchmarkPrepareIn(b *testing.B) {
	const records = 2000
	gen := datagen.New(titlesShape(records))
	ctx := sim.NewContext(gen.Rules(), gen.Taxonomy())
	ctx.Q = 5
	calc := NewCalculator(ctx)
	var tokens [][]string
	for _, raw := range gen.Collection(records) {
		tokens = append(tokens, strutil.Tokenize(raw))
	}
	prepared := make([]*PreparedRecord, records)
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	var segs []Segment
	for range b.N {
		d := NewSegDict()
		for i, toks := range tokens {
			prepared[i], segs = calc.PrepareInBuf(segs, d, toks)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(b.N * records)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
}

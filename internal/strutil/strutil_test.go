package strutil

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unsafe"
)

func TestNormalize(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want string
	}{
		{"empty", "", ""},
		{"plain", "coffee shop", "coffee shop"},
		{"upper", "Coffee Shop", "coffee shop"},
		{"collapse spaces", "coffee   shop", "coffee shop"},
		{"tabs and newlines", "coffee\tshop\nlatte", "coffee shop latte"},
		{"leading trailing", "  espresso cafe  ", "espresso cafe"},
		{"only spaces", "   \t ", ""},
		{"unicode upper", "HELSINKI Café", "helsinki café"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Normalize(tt.in); got != tt.want {
				t.Errorf("Normalize(%q) = %q, want %q", tt.in, got, tt.want)
			}
		})
	}
}

func TestTokenize(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []string
	}{
		{"empty", "", nil},
		{"single", "coffee", []string{"coffee"}},
		{"poi", "coffee shop latte Helsingki", []string{"coffee", "shop", "latte", "helsingki"}},
		{"extra whitespace", "  espresso   cafe Helsinki ", []string{"espresso", "cafe", "helsinki"}},
		{"whitespace only", " \t\n", nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Tokenize(tt.in); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestJoinTokensRoundTrip(t *testing.T) {
	in := "espresso cafe helsinki"
	if got := JoinTokens(Tokenize(in)); got != in {
		t.Errorf("round trip = %q, want %q", got, in)
	}
}

func TestQGramsPaperExample(t *testing.T) {
	// Example 2(i) of the paper: 2-grams of "Helsingki" and "Helsinki".
	s := QGrams("helsingki", 2)
	want := []string{"he", "el", "ls", "si", "in", "ng", "gk", "ki"}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("QGrams(helsingki,2) = %v, want %v", s, want)
	}
	tSet := QGramSet("helsinki", 2)
	if len(tSet) != 7 {
		t.Errorf("QGramSet(helsinki,2) has %d grams, want 7", len(tSet))
	}
	// Their intersection must have 6 grams (sim_j = 6/9 in the paper).
	inter := OverlapCount(QGramSet("helsingki", 2), tSet)
	if inter != 6 {
		t.Errorf("overlap = %d, want 6", inter)
	}
}

func TestQGramsEdgeCases(t *testing.T) {
	if got := QGrams("", 2); got != nil {
		t.Errorf("QGrams(\"\",2) = %v, want nil", got)
	}
	if got := QGrams("ab", 0); got != nil {
		t.Errorf("QGrams with q=0 = %v, want nil", got)
	}
	if got := QGrams("a", 2); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("QGrams(a,2) = %v, want [a]", got)
	}
	if got := QGrams("abc", 3); !reflect.DeepEqual(got, []string{"abc"}) {
		t.Errorf("QGrams(abc,3) = %v, want [abc]", got)
	}
}

func TestQGramsCountProperty(t *testing.T) {
	f := func(s string, q uint8) bool {
		qq := int(q%5) + 1
		grams := QGrams(s, qq)
		if s == "" {
			return grams == nil
		}
		if len(s) < qq {
			return len(grams) == 1
		}
		return len(grams) == len(s)-qq+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQGramsReconstructProperty(t *testing.T) {
	// Every q-gram must be a substring of the input.
	f := func(s string) bool {
		for _, g := range QGrams(s, 3) {
			if !strings.Contains(s, g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenSetAndOverlap(t *testing.T) {
	a := TokenSet([]string{"coffee", "shop", "latte"})
	b := TokenSet([]string{"espresso", "cafe", "coffee"})
	if got := OverlapCount(a, b); got != 1 {
		t.Errorf("OverlapCount = %d, want 1", got)
	}
	if got := OverlapCount(b, a); got != 1 {
		t.Errorf("OverlapCount reversed = %d, want 1", got)
	}
	empty := TokenSet(nil)
	if got := OverlapCount(a, empty); got != 0 {
		t.Errorf("OverlapCount with empty = %d, want 0", got)
	}
}

func TestSpan(t *testing.T) {
	tokens := []string{"coffee", "shop", "latte", "helsingki"}
	sp := Span{Start: 0, End: 2}
	if sp.Len() != 2 {
		t.Errorf("Len = %d, want 2", sp.Len())
	}
	if got := sp.Text(tokens); got != "coffee shop" {
		t.Errorf("Text = %q, want %q", got, "coffee shop")
	}
	if !sp.Contains(1) || sp.Contains(2) {
		t.Errorf("Contains misbehaves: %v %v", sp.Contains(1), sp.Contains(2))
	}
	other := Span{Start: 1, End: 3}
	if !sp.Overlaps(other) || !other.Overlaps(sp) {
		t.Error("expected spans to overlap")
	}
	disjoint := Span{Start: 2, End: 4}
	if sp.Overlaps(disjoint) {
		t.Error("expected spans to be disjoint")
	}
	if got := (Span{Start: 3, End: 2}).Slice(tokens); got != nil {
		t.Errorf("invalid span Slice = %v, want nil", got)
	}
	if got := (Span{Start: 0, End: 10}).Slice(tokens); got != nil {
		t.Errorf("out of range span Slice = %v, want nil", got)
	}
}

func TestSpanOverlapsProperty(t *testing.T) {
	// Overlap is symmetric and consistent with Contains.
	f := func(a, b, c, d uint8) bool {
		s1 := Span{Start: int(a % 16), End: int(a%16) + int(b%8) + 1}
		s2 := Span{Start: int(c % 16), End: int(c%16) + int(d%8) + 1}
		if s1.Overlaps(s2) != s2.Overlaps(s1) {
			return false
		}
		// Overlap implies at least one shared position.
		shared := false
		for i := s1.Start; i < s1.End; i++ {
			if s2.Contains(i) {
				shared = true
				break
			}
		}
		return s1.Overlaps(s2) == shared
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewRecordAndCollection(t *testing.T) {
	r := NewRecord(7, "Coffee  Shop Latte")
	if r.ID != 7 || r.Raw != "Coffee  Shop Latte" {
		t.Errorf("unexpected record header %+v", r)
	}
	if !reflect.DeepEqual(r.Tokens, []string{"coffee", "shop", "latte"}) {
		t.Errorf("tokens = %v", r.Tokens)
	}
	coll := NewCollection([]string{"a b", "c"})
	if len(coll) != 2 || coll[0].ID != 0 || coll[1].ID != 1 {
		t.Errorf("unexpected collection %+v", coll)
	}
}

// referenceNormalize is the rune loop Normalize takes for every string that
// is not already normal, kept here as FuzzNormalize's reference for all of
// them.
func referenceNormalize(s string) string {
	var b strings.Builder
	prevSpace := true
	for _, r := range s {
		if unicode.IsSpace(r) {
			if !prevSpace {
				b.WriteByte(' ')
				prevSpace = true
			}
			continue
		}
		prevSpace = false
		b.WriteRune(unicode.ToLower(r))
	}
	return strings.TrimRight(b.String(), " ")
}

// FuzzNormalize holds Normalize, fast path and rune loop, to the reference
// rune loop on arbitrary bytes, and checks that a normal result is its own
// normal form, returned without a copy when it is ASCII.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"", "coffee shop", "\xff\xfe bad utf8", "caf\xc3", "a\u0085b", "a\u00a0b", "a\u2028b",
		"İstanbul", "a\tb", "a  b", " lead", "trail ", " both ", " ", "A", "~!@ 0", "\x00 \x7f",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Normalize(s), referenceNormalize(s)
		if got != want {
			t.Fatalf("Normalize(%q) = %q, the rune loop gives %q", s, got, want)
		}
		if again := Normalize(got); again != got {
			t.Fatalf("Normalize(%q) = %q, not its own normal form", got, again)
		} else if isASCII(got) && unsafe.StringData(again) != unsafe.StringData(got) {
			t.Fatalf("Normalize(%q) copies a normal ASCII string", got)
		}
	})
}

// TestTokenizeNormalAliases checks that a normal string's tokens are
// substrings of it, made by one allocation (the split), and that any other
// string is tokenized into a copy.
func TestTokenizeNormalAliases(t *testing.T) {
	for _, s := range []string{"coffee shop latte helsinki", "x", "r2-d2 & c-3po's droid"} {
		var toks []string
		if allocs := testing.AllocsPerRun(100, func() { toks = Tokenize(s) }); allocs != 1 {
			t.Errorf("Tokenize(%q) makes %v allocations, want 1", s, allocs)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, tok := range toks {
			p := uintptr(unsafe.Pointer(unsafe.StringData(tok)))
			if p < lo || p+uintptr(len(tok)) > lo+uintptr(len(s)) {
				t.Errorf("Tokenize(%q): token %q lies outside the input", s, tok)
			}
		}
	}
	s := "Coffee Shop"
	lo := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	for _, tok := range Tokenize(s) {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(tok))); p >= lo && p < lo+uintptr(len(s)) {
			t.Errorf("Tokenize(%q): token %q aliases an input that is not normal", s, tok)
		}
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

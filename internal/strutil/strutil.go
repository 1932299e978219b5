// Package strutil provides the low-level string machinery used across the
// unified similarity-join framework: tokenisation, q-gram extraction,
// normalisation, and the Record type that every collection is made of.
//
// All higher-level packages (similarity measures, pebble signatures, join
// algorithms) operate on tokenised records produced here, so the exact
// tokenisation rules are centralised in this package.
package strutil

import (
	"strings"
	"unicode"
)

// Record is a single string record participating in a similarity join.
// Tokens caches the tokenisation of Raw so that join algorithms never
// re-tokenise inside inner loops; when Raw is already normal (Normalize),
// every token is a substring of Raw and the record holds its text once.
type Record struct {
	// ID is the position of the record inside its collection. It is used
	// as the value stored in inverted lists and to identify result pairs.
	ID int
	// Raw is the original, unmodified string.
	Raw string
	// Tokens is the whitespace tokenisation of Raw after normalisation.
	Tokens []string
}

// NewRecord builds a Record with the given identifier, normalising and
// tokenising the raw string.
func NewRecord(id int, raw string) Record {
	return Record{ID: id, Raw: raw, Tokens: Tokenize(raw)}
}

// NewCollection converts a slice of raw strings into a slice of Records with
// consecutive identifiers starting at 0.
func NewCollection(raw []string) []Record {
	out := make([]Record, len(raw))
	for i, s := range raw {
		out[i] = NewRecord(i, s)
	}
	return out
}

// Normalize lower-cases the string and collapses any run of Unicode
// whitespace into a single ASCII space. Leading and trailing whitespace is
// removed. Normalisation keeps letters, digits and punctuation untouched so
// that q-grams remain meaningful for typo detection. A string that is
// already normal — ASCII with no upper case, and no whitespace but single
// spaces between words — is returned as it is, without a copy.
func Normalize(s string) string {
	if isNormalASCII(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	prevSpace := true // swallow leading whitespace
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

// isNormalASCII reports whether s is its own normal form by a byte scan: no
// byte of 0x80 or more (whose runes only the rune loop decides), no upper
// case letter, and no whitespace but single spaces with a word on each side.
func isNormalASCII(s string) bool {
	prevSpace := true // a leading space is not normal
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 0x80, 'A' <= c && c <= 'Z', '\t' <= c && c <= '\r':
			return false
		case c == ' ':
			if prevSpace {
				return false
			}
			prevSpace = true
		default:
			prevSpace = false
		}
	}
	return !prevSpace || s == ""
}

// Tokenize normalises the string and splits it on single spaces, returning
// the sequence of non-empty tokens. The returned slice is never nil for a
// string containing at least one non-space rune. The tokens of a string
// that is already normal (Normalize) are substrings of it, and the split is
// the one allocation.
func Tokenize(s string) []string {
	n := Normalize(s)
	if n == "" {
		return nil
	}
	return strings.Split(n, " ")
}

// JoinTokens is the inverse of Tokenize for well-formed token slices: it
// joins tokens with single spaces.
func JoinTokens(tokens []string) string {
	return strings.Join(tokens, " ")
}

// QGrams returns the multiset of q-grams of s as defined in the paper
// (Section 2.1): every substring of length q, in order of occurrence. If
// len(s) < q the whole string is returned as a single gram so that very
// short tokens still produce a signature.
//
// The grams are computed on bytes of the normalised string; for the ASCII
// datasets used in the evaluation this is identical to rune-based grams and
// considerably faster.
func QGrams(s string, q int) []string {
	if q <= 0 {
		return nil
	}
	if s == "" {
		return nil
	}
	if len(s) < q {
		return []string{s}
	}
	grams := make([]string, 0, len(s)-q+1)
	for i := 0; i+q <= len(s); i++ {
		grams = append(grams, s[i:i+q])
	}
	return grams
}

// QGramSet returns the set (deduplicated) of q-grams of s. The paper's
// Jaccard coefficient (Eq. 1) is defined on gram sets, so the set form is
// what similarity computations use; the multiset form is what pebble
// generation uses (each occurrence is a pebble).
func QGramSet(s string, q int) map[string]struct{} {
	grams := QGrams(s, q)
	set := make(map[string]struct{}, len(grams))
	for _, g := range grams {
		set[g] = struct{}{}
	}
	return set
}

// TokenSet converts a token slice into a set.
func TokenSet(tokens []string) map[string]struct{} {
	set := make(map[string]struct{}, len(tokens))
	for _, t := range tokens {
		set[t] = struct{}{}
	}
	return set
}

// OverlapCount returns |a ∩ b| for two string sets.
func OverlapCount(a, b map[string]struct{}) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	for k := range a {
		if _, ok := b[k]; ok {
			n++
		}
	}
	return n
}

// Resize returns a slice of length n backed by s when its capacity allows,
// allocating otherwise. Existing contents are unspecified — callers must
// overwrite every element. It is the shared building block of the
// scratch-buffer reuse in the verification hot path.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Span identifies a run of consecutive tokens inside a tokenised string:
// the half-open interval [Start, End).
type Span struct {
	Start int // index of the first token, inclusive
	End   int // index one past the last token, exclusive
}

// Len returns the number of tokens covered by the span.
func (sp Span) Len() int { return sp.End - sp.Start }

// Overlaps reports whether two spans share at least one token position.
func (sp Span) Overlaps(other Span) bool {
	return sp.Start < other.End && other.Start < sp.End
}

// Contains reports whether position i falls inside the span.
func (sp Span) Contains(i int) bool { return i >= sp.Start && i < sp.End }

// Slice extracts the tokens covered by the span from the given token slice.
func (sp Span) Slice(tokens []string) []string {
	if sp.Start < 0 || sp.End > len(tokens) || sp.Start > sp.End {
		return nil
	}
	return tokens[sp.Start:sp.End]
}

// Text returns the space-joined text of the span over the given tokens.
func (sp Span) Text(tokens []string) string {
	return JoinTokens(sp.Slice(tokens))
}

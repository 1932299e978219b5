// Package synonym implements the synonym-rule substrate of the unified
// similarity framework (Section 2.1, Eq. 2).
//
// A rule R has the form lhs(R) → rhs(R) with a closeness C(R) ∈ (0, 1].
// Both sides are token sequences ("coffee shop" → "cafe"). The synonym
// similarity of two strings is C(R) when a rule maps one onto the other in
// either direction and 0 otherwise.
//
// The rule set supports the lookups that segment enumeration and pebble
// generation need:
//
//   - ByLHS / ByRHS: all rules whose left (right) side equals a token span,
//     used to decide whether a span is a well-defined segment.
//   - MatchPair: the best closeness linking two spans, used as the segment
//     similarity msim contribution of the synonym measure.
//   - MaxSideTokens: the claw parameter k.
//   - MaxSideTokensFrom: the longest side starting with a token, which
//     bounds the spans segment enumeration joins at that token.
package synonym

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/aujoin/aujoin/internal/strutil"
)

// Rule is a directed synonym (or abbreviation) rule lhs → rhs with
// closeness C ∈ (0, 1].
type Rule struct {
	ID  int
	LHS []string // tokenised left-hand side
	RHS []string // tokenised right-hand side
	C   float64  // closeness
}

// LHSText returns the space-joined left-hand side.
func (r Rule) LHSText() string { return strutil.JoinTokens(r.LHS) }

// RHSText returns the space-joined right-hand side.
func (r Rule) RHSText() string { return strutil.JoinTokens(r.RHS) }

// String implements fmt.Stringer for debugging output.
func (r Rule) String() string {
	return fmt.Sprintf("%s -> %s (%.3f)", r.LHSText(), r.RHSText(), r.C)
}

// RuleSet is an indexed collection of synonym rules. The zero value is an
// empty, usable rule set. RuleSet is safe for concurrent reads once no more
// rules are being added.
type RuleSet struct {
	rules []Rule
	byLHS map[string][]int // lhs text → rule indices
	byRHS map[string][]int // rhs text → rule indices
	// byPair maps "lhs\x00rhs" (and the symmetric "rhs\x00lhs") to the best
	// closeness across all rules linking the two sides.
	byPair map[string]float64
	maxTok int
	// heads maps the first token of every multi-token side to the token
	// count of the longest side starting with it, kept as rules are added.
	heads map[string]int
}

// NewRuleSet creates an empty rule set.
func NewRuleSet() *RuleSet {
	return &RuleSet{
		byLHS:  make(map[string][]int),
		byRHS:  make(map[string][]int),
		byPair: make(map[string]float64),
		heads:  make(map[string]int),
	}
}

// Len returns the number of rules in the set.
func (rs *RuleSet) Len() int { return len(rs.rules) }

// Rules returns the underlying rules slice. Callers must not modify it.
func (rs *RuleSet) Rules() []Rule { return rs.rules }

// Rule returns the rule with the given identifier.
func (rs *RuleSet) Rule(id int) Rule { return rs.rules[id] }

// Add inserts a rule lhs → rhs with the given closeness. Sides are
// normalised and tokenised; closeness must lie in (0, 1]. The new rule's
// identifier is returned.
func (rs *RuleSet) Add(lhs, rhs string, closeness float64) (int, error) {
	if closeness <= 0 || closeness > 1 {
		return -1, fmt.Errorf("synonym: closeness %v outside (0, 1]", closeness)
	}
	l := strutil.Tokenize(lhs)
	r := strutil.Tokenize(rhs)
	if len(l) == 0 || len(r) == 0 {
		return -1, errors.New("synonym: empty rule side")
	}
	id := len(rs.rules)
	rule := Rule{ID: id, LHS: l, RHS: r, C: closeness}
	rs.rules = append(rs.rules, rule)
	lt, rt := rule.LHSText(), rule.RHSText()
	rs.byLHS[lt] = append(rs.byLHS[lt], id)
	rs.byRHS[rt] = append(rs.byRHS[rt], id)
	rs.addPair(lt, rt, closeness)
	rs.addPair(rt, lt, closeness)
	for _, side := range [2][]string{l, r} {
		rs.maxTok = max(rs.maxTok, len(side))
		if len(side) > 1 {
			rs.heads[side[0]] = max(rs.heads[side[0]], len(side))
		}
	}
	return id, nil
}

// MustAdd is Add that panics on error.
func (rs *RuleSet) MustAdd(lhs, rhs string, closeness float64) int {
	id, err := rs.Add(lhs, rhs, closeness)
	if err != nil {
		panic(err)
	}
	return id
}

func (rs *RuleSet) addPair(a, b string, c float64) {
	key := a + "\x00" + b
	if prev, ok := rs.byPair[key]; !ok || c > prev {
		rs.byPair[key] = c
	}
}

// ByLHS returns the identifiers of all rules whose left-hand side equals the
// given token span.
func (rs *RuleSet) ByLHS(tokens []string) []int {
	return rs.byLHS[strutil.JoinTokens(tokens)]
}

// ByRHS returns the identifiers of all rules whose right-hand side equals
// the given token span.
func (rs *RuleSet) ByRHS(tokens []string) []int {
	return rs.byRHS[strutil.JoinTokens(tokens)]
}

// ByLHSText is ByLHS for a pre-joined segment text. The returned slice
// aliases the index and lists rule identifiers in ascending order.
func (rs *RuleSet) ByLHSText(text string) []int { return rs.byLHS[text] }

// ByRHSText is ByRHS for a pre-joined segment text.
func (rs *RuleSet) ByRHSText(text string) []int { return rs.byRHS[text] }

// MatchIDLists is MatchPair over precomputed rule-side id lists: aLHS/aRHS
// are the rules whose lhs/rhs equals span a (as returned by ByLHSText and
// ByRHSText), likewise b. It returns the best closeness of a rule linking
// the two spans in either direction without joining or hashing any strings,
// and agrees exactly with MatchPair on the underlying spans.
func (rs *RuleSet) MatchIDLists(aLHS, aRHS, bLHS, bRHS []int) (float64, bool) {
	best, ok := 0.0, false
	rs.scanCommon(aLHS, bRHS, &best, &ok)
	rs.scanCommon(aRHS, bLHS, &best, &ok)
	return best, ok
}

// scanCommon merges two ascending rule-id lists and folds the closeness of
// every common rule into best.
func (rs *RuleSet) scanCommon(x, y []int, best *float64, ok *bool) {
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			if c := rs.rules[x[i]].C; c > *best {
				*best = c
			}
			*ok = true
			i++
			j++
		}
	}
}

// IsSide reports whether the pre-joined text of a token span appears as the
// lhs or rhs of at least one rule; such spans are well-defined segments
// (Definition 1(i)).
func (rs *RuleSet) IsSide(text string) bool {
	return len(rs.byLHS[text]) > 0 || len(rs.byRHS[text]) > 0
}

// MatchPair returns the best closeness of a rule linking the two token spans
// in either direction, and whether such a rule exists. This realises Eq. (2)
// applied symmetrically, which is how the unified measure uses rules
// (either string may carry the lhs).
func (rs *RuleSet) MatchPair(a, b []string) (float64, bool) {
	key := strutil.JoinTokens(a) + "\x00" + strutil.JoinTokens(b)
	c, ok := rs.byPair[key]
	return c, ok
}

// Similarity returns the synonym similarity of two strings per Eq. (2)
// (applied in both directions): the best closeness of a rule mapping one
// string onto the other, or 0 when no rule applies.
func (rs *RuleSet) Similarity(s, t string) float64 {
	c, ok := rs.MatchPair(strutil.Tokenize(s), strutil.Tokenize(t))
	if !ok {
		return 0
	}
	return c
}

// MaxSideTokens returns the maximal number of tokens on either side of any
// rule; this is the k in the (k+1)-claw-freeness argument of Section 2.3.
func (rs *RuleSet) MaxSideTokens() int { return rs.maxTok }

// MaxSideTokensFrom returns the token count of the longest multi-token side
// whose first token is head, or 0 when no such side exists: a span starting
// with any other token is a rule side only if it is a single token.
func (rs *RuleSet) MaxSideTokensFrom(head string) int { return rs.heads[head] }

// Write serialises the rule set as tab-separated lines "lhs<TAB>rhs<TAB>C".
func (rs *RuleSet) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range rs.rules {
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%g\n", r.LHSText(), r.RHSText(), r.C); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the format produced by Write. Lines with a missing closeness
// column default to C = 1, which matches how public synonym lists (plain
// "term<TAB>alias" files) are usually distributed.
func Read(r io.Reader) (*RuleSet, error) {
	rs := NewRuleSet()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) < 2 {
			return nil, fmt.Errorf("synonym: line %d: want at least 2 tab-separated fields", line)
		}
		c := 1.0
		if len(parts) >= 3 && strings.TrimSpace(parts[2]) != "" {
			v, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("synonym: line %d: bad closeness: %w", line, err)
			}
			c = v
		}
		if _, err := rs.Add(parts[0], parts[1], c); err != nil {
			return nil, fmt.Errorf("synonym: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rs, nil
}

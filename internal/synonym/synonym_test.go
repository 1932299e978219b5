package synonym

import (
	"bytes"
	"testing"
)

func paperRules(t *testing.T) *RuleSet {
	t.Helper()
	rs := NewRuleSet()
	rs.MustAdd("cake", "gateau", 1)
	rs.MustAdd("coffee shop", "cafe", 1)
	return rs
}

func TestPaperExampleSimilarity(t *testing.T) {
	rs := paperRules(t)
	// Example 2(ii): sims("coffee shop", "cafe") = 1.
	if got := rs.Similarity("coffee shop", "cafe"); got != 1 {
		t.Errorf("Similarity(coffee shop, cafe) = %v, want 1", got)
	}
	// Rules apply in both directions for the unified measure.
	if got := rs.Similarity("cafe", "coffee shop"); got != 1 {
		t.Errorf("Similarity(cafe, coffee shop) = %v, want 1", got)
	}
	if got := rs.Similarity("coffee shop", "gateau"); got != 0 {
		t.Errorf("Similarity(coffee shop, gateau) = %v, want 0", got)
	}
	if got := rs.Similarity("coffee", "cafe"); got != 0 {
		t.Errorf("partial lhs should not match, got %v", got)
	}
}

func TestAddValidation(t *testing.T) {
	rs := NewRuleSet()
	if _, err := rs.Add("a", "b", 0); err == nil {
		t.Error("closeness 0 should be rejected")
	}
	if _, err := rs.Add("a", "b", 1.5); err == nil {
		t.Error("closeness > 1 should be rejected")
	}
	if _, err := rs.Add("", "b", 1); err == nil {
		t.Error("empty lhs should be rejected")
	}
	if _, err := rs.Add("a", "  ", 1); err == nil {
		t.Error("empty rhs should be rejected")
	}
	id, err := rs.Add("Heart Attack", "myocardial infarction", 0.9)
	if err != nil {
		t.Fatalf("valid add failed: %v", err)
	}
	r := rs.Rule(id)
	if r.LHSText() != "heart attack" || r.RHSText() != "myocardial infarction" {
		t.Errorf("rule not normalised: %v", r)
	}
	if r.String() == "" {
		t.Error("String should not be empty")
	}
}

func TestLookupsAndSides(t *testing.T) {
	rs := paperRules(t)
	if ids := rs.ByLHS([]string{"coffee", "shop"}); len(ids) != 1 {
		t.Errorf("ByLHS(coffee shop) = %v, want one rule", ids)
	}
	if ids := rs.ByRHS([]string{"cafe"}); len(ids) != 1 {
		t.Errorf("ByRHS(cafe) = %v, want one rule", ids)
	}
	if ids := rs.ByLHS([]string{"cafe"}); len(ids) != 0 {
		t.Errorf("ByLHS(cafe) = %v, want none", ids)
	}
	if !rs.IsSide("coffee shop") || !rs.IsSide("cafe") {
		t.Error("both rule sides should be well-defined segments")
	}
	if rs.IsSide("espresso") {
		t.Error("espresso is not a rule side")
	}
}

func TestMatchPairKeepsBestCloseness(t *testing.T) {
	rs := NewRuleSet()
	rs.MustAdd("db", "database", 0.5)
	rs.MustAdd("db", "database", 0.8)
	c, ok := rs.MatchPair([]string{"db"}, []string{"database"})
	if !ok || c != 0.8 {
		t.Errorf("MatchPair = %v,%v want 0.8,true", c, ok)
	}
	c, ok = rs.MatchPair([]string{"database"}, []string{"db"})
	if !ok || c != 0.8 {
		t.Errorf("reverse MatchPair = %v,%v want 0.8,true", c, ok)
	}
	if _, ok := rs.MatchPair([]string{"db"}, []string{"dbms"}); ok {
		t.Error("unexpected match")
	}
}

func TestMaxSideTokens(t *testing.T) {
	rs := NewRuleSet()
	rs.MustAdd("database management system", "dbms", 1)
	rs.MustAdd("bill", "william", 0.9)
	if got := rs.MaxSideTokens(); got != 3 {
		t.Errorf("MaxSideTokens = %d, want 3", got)
	}
	if rs.Len() != 2 {
		t.Errorf("Len = %d, want 2", rs.Len())
	}
	if len(rs.Rules()) != 2 {
		t.Errorf("Rules() length = %d, want 2", len(rs.Rules()))
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rs := NewRuleSet()
	rs.MustAdd("coffee shop", "cafe", 1)
	rs.MustAdd("heart attack", "myocardial infarction", 0.85)
	var buf bytes.Buffer
	if err := rs.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Len() != rs.Len() {
		t.Fatalf("round trip length mismatch: %d vs %d", got.Len(), rs.Len())
	}
	c, ok := got.MatchPair([]string{"heart", "attack"}, []string{"myocardial", "infarction"})
	if !ok || c != 0.85 {
		t.Errorf("closeness lost in round trip: %v %v", c, ok)
	}
}

func TestReadDefaultsAndErrors(t *testing.T) {
	rs, err := Read(bytes.NewBufferString("cake\tgateau\n\ncoffee shop\tcafe\t0.7\n"))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if rs.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rs.Len())
	}
	if got := rs.Similarity("cake", "gateau"); got != 1 {
		t.Errorf("default closeness = %v, want 1", got)
	}
	if got := rs.Similarity("coffee shop", "cafe"); got != 0.7 {
		t.Errorf("closeness = %v, want 0.7", got)
	}
	if _, err := Read(bytes.NewBufferString("onlyonefield\n")); err == nil {
		t.Error("expected error for malformed line")
	}
	if _, err := Read(bytes.NewBufferString("a\tb\tnotanumber\n")); err == nil {
		t.Error("expected error for bad closeness")
	}
	if _, err := Read(bytes.NewBufferString("a\tb\t2.0\n")); err == nil {
		t.Error("expected error for out-of-range closeness")
	}
}

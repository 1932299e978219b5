package taxonomy

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperTree builds the taxonomy of Figure 1(a):
//
//	wikipedia → food → {coffee → coffee drinks → {espresso, latte}, cake → apple cake}
func paperTree(t *testing.T) *Tree {
	t.Helper()
	tr := NewTree("Wikipedia")
	food := tr.MustAddChild(tr.Root(), "food")
	coffee := tr.MustAddChild(food, "coffee")
	drinks := tr.MustAddChild(coffee, "coffee drinks")
	tr.MustAddChild(drinks, "espresso")
	tr.MustAddChild(drinks, "latte")
	cake := tr.MustAddChild(food, "cake")
	tr.MustAddChild(cake, "apple cake")
	return tr
}

func TestPaperFigure1Similarities(t *testing.T) {
	tr := paperTree(t)
	byName := func(s, u string) float64 {
		a, okA := tr.Lookup(s)
		b, okB := tr.Lookup(u)
		if !okA || !okB {
			t.Fatalf("%q or %q is not an entity", s, u)
		}
		return tr.Similarity(a, b)
	}

	// Example 2(iii): sim(latte, espresso) = depth(coffee drinks)/max depth = 4/5.
	if got := byName("latte", "espresso"); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("sim(latte, espresso) = %v, want 0.8", got)
	}
	// Section 2.2: taxonomy similarity of "cake" and "apple cake" is 0.75.
	if got := byName("cake", "apple cake"); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("sim(cake, apple cake) = %v, want 0.75", got)
	}
	// Identical entities are perfectly similar.
	if got := byName("espresso", "espresso"); got != 1 {
		t.Errorf("sim(espresso, espresso) = %v, want 1", got)
	}
	// An invalid node gives zero.
	if got := tr.Similarity(InvalidNode, tr.Root()); got != 0 {
		t.Errorf("sim with an invalid node = %v, want 0", got)
	}
}

func TestDepthsAndAncestors(t *testing.T) {
	tr := paperTree(t)
	esp, ok := tr.Lookup("espresso")
	if !ok {
		t.Fatal("espresso not found")
	}
	if d := tr.Depth(esp); d != 5 {
		t.Errorf("depth(espresso) = %d, want 5", d)
	}
	anc := tr.Ancestors(esp)
	if len(anc) != 5 {
		t.Fatalf("ancestors of espresso = %d nodes, want 5", len(anc))
	}
	names := make([]string, len(anc))
	for i, id := range anc {
		names[i] = tr.Name(id)
	}
	want := []string{"espresso", "coffee drinks", "coffee", "food", "wikipedia"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("ancestors[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	if got := tr.Ancestors(InvalidNode); got != nil {
		t.Errorf("Ancestors(InvalidNode) = %v, want nil", got)
	}
}

func TestLookupNormalisation(t *testing.T) {
	tr := paperTree(t)
	if _, ok := tr.Lookup("  Coffee   Drinks "); !ok {
		t.Error("lookup should normalise whitespace and case")
	}
	if _, ok := tr.LookupTokens([]string{"coffee", "drinks"}); !ok {
		t.Error("LookupTokens should find coffee drinks")
	}
	if _, ok := tr.LookupTokens([]string{"coffee", "mugs"}); ok {
		t.Error("LookupTokens should not find coffee mugs")
	}
}

// TestLookupUnknownEntity checks that a name outside the taxonomy resolves
// to no node, so the taxonomy measure never scores it.
func TestLookupUnknownEntity(t *testing.T) {
	tr := paperTree(t)
	if _, ok := tr.Lookup("helsinki"); ok {
		t.Error("Lookup should not find helsinki")
	}
	if _, ok := tr.LookupTokens([]string{"helsinki"}); ok {
		t.Error("LookupTokens should not find helsinki")
	}
	if got := tr.Similarity(InvalidNode, InvalidNode); got != 0 {
		t.Errorf("sim of two invalid nodes = %v, want 0", got)
	}
}

func TestAddChildDuplicateAndErrors(t *testing.T) {
	tr := NewTree("root")
	a := tr.MustAddChild(tr.Root(), "alpha")
	b, err := tr.AddChild(tr.Root(), "Alpha")
	if err != nil {
		t.Fatalf("duplicate add returned error: %v", err)
	}
	if a != b {
		t.Errorf("duplicate name created a new node: %d vs %d", a, b)
	}
	if _, err := tr.AddChild(NodeID(99), "x"); err == nil {
		t.Error("expected error for out-of-range parent")
	}
	if _, err := tr.AddChild(tr.Root(), "   "); err == nil {
		t.Error("expected error for empty name")
	}
}

// naiveLCA walks parent pointers; used as the oracle for the sparse-table LCA.
func naiveLCA(t *Tree, a, b NodeID) NodeID {
	seen := map[NodeID]bool{}
	for cur := a; cur != InvalidNode; cur = t.Node(cur).Parent {
		seen[cur] = true
	}
	for cur := b; cur != InvalidNode; cur = t.Node(cur).Parent {
		if seen[cur] {
			return cur
		}
	}
	return InvalidNode
}

func TestLCAAgainstNaiveOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		tr := NewTree("root")
		n := 2 + rng.Intn(200)
		ids := []NodeID{tr.Root()}
		for i := 0; i < n; i++ {
			parent := ids[rng.Intn(len(ids))]
			id := tr.MustAddChild(parent, nodeName(trial, i))
			ids = append(ids, id)
		}
		tr.Finalize()
		for q := 0; q < 200; q++ {
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			got := tr.LCA(a, b)
			want := naiveLCA(tr, a, b)
			if got != want {
				t.Fatalf("trial %d: LCA(%d,%d) = %d, want %d", trial, a, b, got, want)
			}
		}
	}
}

func nodeName(trial, i int) string {
	return "node" + string(rune('a'+trial%26)) + "-" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

func TestLCAInvalidNodes(t *testing.T) {
	tr := paperTree(t)
	if got := tr.LCA(InvalidNode, tr.Root()); got != InvalidNode {
		t.Errorf("LCA with invalid node = %v, want InvalidNode", got)
	}
	if got := tr.Similarity(InvalidNode, tr.Root()); got != 0 {
		t.Errorf("Similarity with invalid node = %v, want 0", got)
	}
}

func TestSimilarityProperties(t *testing.T) {
	tr := paperTree(t)
	tr.Finalize()
	n := tr.Len()
	// Symmetry, range (0,1], and identity.
	f := func(x, y uint8) bool {
		a := NodeID(int(x) % n)
		b := NodeID(int(y) % n)
		sab := tr.Similarity(a, b)
		sba := tr.Similarity(b, a)
		if sab != sba {
			return false
		}
		if sab <= 0 || sab > 1 {
			return false
		}
		return tr.Similarity(a, a) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	tr := paperTree(t)
	st := tr.Stats()
	if st.Nodes != 8 {
		t.Errorf("Nodes = %d, want 8", st.Nodes)
	}
	// Leaves: espresso(5), latte(5), apple cake(4) → min 4, max 5.
	if st.MinHeight != 4 || st.MaxHeight != 5 {
		t.Errorf("heights = %d/%d, want 4/5", st.MinHeight, st.MaxHeight)
	}
	if math.Abs(st.AvgHeight-14.0/3.0) > 1e-9 {
		t.Errorf("AvgHeight = %v, want %v", st.AvgHeight, 14.0/3.0)
	}
	if st.AvgFanout <= 0 {
		t.Errorf("AvgFanout = %v, want > 0", st.AvgFanout)
	}
	if got := tr.MaxEntityTokens(); got != 2 {
		t.Errorf("MaxEntityTokens = %d, want 2", got)
	}
	single := NewTree("only")
	st = single.Stats()
	if st.Nodes != 1 || st.MaxHeight != 1 {
		t.Errorf("single-node stats = %+v", st)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := paperTree(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip length = %d, want %d", got.Len(), tr.Len())
	}
	for _, name := range tr.EntityNames() {
		a, _ := tr.Lookup(name)
		b, ok := got.Lookup(name)
		if !ok {
			t.Fatalf("entity %q lost in round trip", name)
		}
		if tr.Depth(a) != got.Depth(b) {
			t.Errorf("depth mismatch for %q: %d vs %d", name, tr.Depth(a), got.Depth(b))
		}
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("")); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := Read(bytes.NewBufferString("child\troot\n")); err == nil {
		t.Error("expected error when first node has a parent")
	}
	if _, err := Read(bytes.NewBufferString("root\t\nchild\tmissing\n")); err == nil {
		t.Error("expected error for unknown parent")
	}
}

func TestEntityNamesSorted(t *testing.T) {
	tr := paperTree(t)
	names := tr.EntityNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("names not sorted at %d: %q > %q", i, names[i-1], names[i])
		}
	}
}

func BenchmarkLCA(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTree("root")
	ids := []NodeID{tr.Root()}
	for i := 0; i < 10000; i++ {
		parent := ids[rng.Intn(len(ids))]
		ids = append(ids, tr.MustAddChild(parent, "n"+itoa(i)))
	}
	tr.Finalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := ids[i%len(ids)]
		c := ids[(i*7919)%len(ids)]
		tr.LCA(a, c)
	}
}

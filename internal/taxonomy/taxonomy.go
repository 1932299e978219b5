// Package taxonomy implements the IS-A knowledge hierarchy used by the
// taxonomy similarity measure of the paper (Section 2.1, Eq. 3).
//
// A taxonomy is a rooted tree whose nodes are labelled with multi-token
// entity names (for example "coffee drinks" or "energy conversion"). The
// similarity of two strings mapped onto nodes nS and nT is
//
//	simt(S, T) = |LCA(nS, nT)| / max{|nS|, |nT|}
//
// where |n| denotes the depth of node n counted from the root (the root has
// depth 1, matching the paper's Figure 1 where "Wikipedia" is depth 1 and
// "espresso" is depth 5).
//
// The package also provides entity lookup by name — the mapping used by
// segment detection — and ancestor enumeration, which is what pebble
// generation needs (a taxonomy pebble set is the node plus all of its
// ancestors, Table 2).
package taxonomy

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"github.com/aujoin/aujoin/internal/strutil"
)

// NodeID identifies a node inside a Tree. The root always has ID 0.
type NodeID int

// InvalidNode is returned by lookups that fail.
const InvalidNode NodeID = -1

// Node is a single entity in the taxonomy tree.
type Node struct {
	ID       NodeID
	Name     string // normalised entity name, e.g. "coffee drinks"
	Parent   NodeID // InvalidNode for the root
	Depth    int    // root has depth 1
	Children []NodeID
}

// Tree is an immutable-after-build taxonomy hierarchy.
//
// The zero value is not usable; construct trees with NewTree / Builder or
// load them with Read.
type Tree struct {
	nodes  []Node
	byName map[string]NodeID
	// maxTok is the token count of the longest entity name, and heads maps
	// the first token of every multi-token name to the token count of the
	// longest name starting with it; both are kept as nodes are added.
	maxTok int
	heads  map[string]int
	// euler tour structures for O(1) LCA via sparse table over first
	// occurrences; built lazily by Finalize.
	euler     []NodeID
	eulerDep  []int
	firstOcc  []int
	sparse    [][]int32
	finalized bool
	// mu serialises lazy finalisation so that concurrent readers never see
	// a partially built LCA index.
	mu sync.Mutex
}

// NewTree creates a taxonomy containing only a root node with the given
// name. Entity names are normalised with strutil.Normalize before storage.
func NewTree(rootName string) *Tree {
	t := &Tree{byName: make(map[string]NodeID), heads: make(map[string]int)}
	name := strutil.Normalize(rootName)
	t.nodes = append(t.nodes, Node{ID: 0, Name: name, Parent: InvalidNode, Depth: 1})
	t.byName[name] = 0
	t.noteName(name)
	return t
}

// noteName folds a new entity name into maxTok and heads.
func (t *Tree) noteName(name string) {
	head, _, multi := strings.Cut(name, " ")
	n := strings.Count(name, " ") + 1
	t.maxTok = max(t.maxTok, n)
	if multi {
		t.heads[head] = max(t.heads[head], n)
	}
}

// Len returns the number of nodes in the tree.
func (t *Tree) Len() int { return len(t.nodes) }

// Root returns the root node's identifier.
func (t *Tree) Root() NodeID { return 0 }

// Node returns the node with the given identifier. It panics if the id is
// out of range, mirroring slice indexing semantics.
func (t *Tree) Node(id NodeID) Node { return t.nodes[id] }

// Depth returns the depth of the node (root = 1).
func (t *Tree) Depth(id NodeID) int { return t.nodes[id].Depth }

// Name returns the normalised name of the node.
func (t *Tree) Name(id NodeID) string { return t.nodes[id].Name }

// AddChild inserts a new node under the given parent and returns its
// identifier. If another node already uses the same normalised name the
// existing node is returned and the tree is unchanged: entity names are
// unique, exactly like taxonomy entries in MeSH or Wikipedia categories.
func (t *Tree) AddChild(parent NodeID, name string) (NodeID, error) {
	if int(parent) < 0 || int(parent) >= len(t.nodes) {
		return InvalidNode, fmt.Errorf("taxonomy: parent %d out of range", parent)
	}
	norm := strutil.Normalize(name)
	if norm == "" {
		return InvalidNode, errors.New("taxonomy: empty node name")
	}
	if id, ok := t.byName[norm]; ok {
		return id, nil
	}
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, Node{
		ID:     id,
		Name:   norm,
		Parent: parent,
		Depth:  t.nodes[parent].Depth + 1,
	})
	t.nodes[parent].Children = append(t.nodes[parent].Children, id)
	t.byName[norm] = id
	t.noteName(norm)
	t.finalized = false
	return id, nil
}

// MustAddChild is AddChild that panics on error; convenient in tests and
// generators where the input is known to be valid.
func (t *Tree) MustAddChild(parent NodeID, name string) NodeID {
	id, err := t.AddChild(parent, name)
	if err != nil {
		panic(err)
	}
	return id
}

// Lookup finds the node whose name equals the normalisation of the given
// string. The boolean reports whether the entity exists.
func (t *Tree) Lookup(name string) (NodeID, bool) {
	id, ok := t.byName[strutil.Normalize(name)]
	return id, ok
}

// LookupTokens finds the node whose name equals the space-joined tokens,
// which must already be normalised.
func (t *Tree) LookupTokens(tokens []string) (NodeID, bool) {
	return t.LookupText(strutil.JoinTokens(tokens))
}

// LookupText is LookupTokens for a pre-joined text: the hot-path variant used
// by segment enumeration, which joins each span once.
func (t *Tree) LookupText(text string) (NodeID, bool) {
	id, ok := t.byName[text]
	return id, ok
}

// Ancestors returns the path from the node up to and including the root,
// starting with the node itself. The returned slice has length Depth(id).
func (t *Tree) Ancestors(id NodeID) []NodeID {
	if int(id) < 0 || int(id) >= len(t.nodes) {
		return nil
	}
	path := make([]NodeID, 0, t.nodes[id].Depth)
	for cur := id; cur != InvalidNode; cur = t.nodes[cur].Parent {
		path = append(path, cur)
	}
	return path
}

// Finalize builds the constant-time LCA index (Euler tour + sparse table).
// It is called automatically by LCA when needed and is safe to call from
// multiple goroutines; callers that keep adding nodes must not do so
// concurrently with readers.
func (t *Tree) Finalize() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finalizeLocked()
}

func (t *Tree) finalizeLocked() {
	if t.finalized {
		return
	}
	n := len(t.nodes)
	t.euler = t.euler[:0]
	t.eulerDep = t.eulerDep[:0]
	t.firstOcc = make([]int, n)
	for i := range t.firstOcc {
		t.firstOcc[i] = -1
	}
	// Iterative Euler tour to avoid recursion depth limits on deep
	// generated taxonomies.
	type frame struct {
		node  NodeID
		child int
	}
	stack := []frame{{node: t.Root()}}
	visit := func(id NodeID) {
		if t.firstOcc[id] == -1 {
			t.firstOcc[id] = len(t.euler)
		}
		t.euler = append(t.euler, id)
		t.eulerDep = append(t.eulerDep, t.nodes[id].Depth)
	}
	visit(t.Root())
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		children := t.nodes[top.node].Children
		if top.child < len(children) {
			child := children[top.child]
			top.child++
			stack = append(stack, frame{node: child})
			visit(child)
			continue
		}
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			visit(stack[len(stack)-1].node)
		}
	}
	// Sparse table over eulerDep for range-minimum queries.
	m := len(t.euler)
	levels := 1
	for 1<<levels <= m {
		levels++
	}
	t.sparse = make([][]int32, levels)
	t.sparse[0] = make([]int32, m)
	for i := 0; i < m; i++ {
		t.sparse[0][i] = int32(i)
	}
	for k := 1; k < levels; k++ {
		span := 1 << k
		row := make([]int32, 0, m)
		prev := t.sparse[k-1]
		for i := 0; i+span <= m; i++ {
			a, b := prev[i], prev[i+span/2]
			if t.eulerDep[a] <= t.eulerDep[b] {
				row = append(row, a)
			} else {
				row = append(row, b)
			}
		}
		t.sparse[k] = row
	}
	t.finalized = true
}

// LCA returns the lowest common ancestor of a and b. Both nodes must belong
// to the tree.
func (t *Tree) LCA(a, b NodeID) NodeID {
	if !t.finalized {
		t.Finalize()
	}
	if int(a) < 0 || int(b) < 0 || int(a) >= len(t.nodes) || int(b) >= len(t.nodes) {
		return InvalidNode
	}
	i, j := t.firstOcc[a], t.firstOcc[b]
	if i > j {
		i, j = j, i
	}
	// Range-minimum over eulerDep[i..j].
	k := 0
	for 1<<(k+1) <= j-i+1 {
		k++
	}
	x := t.sparse[k][i]
	y := t.sparse[k][j-(1<<k)+1]
	if t.eulerDep[x] <= t.eulerDep[y] {
		return t.euler[x]
	}
	return t.euler[y]
}

// Similarity computes the taxonomy similarity of two nodes per Eq. (3):
// depth(LCA) / max(depth(a), depth(b)). Identical nodes have similarity 1.
func (t *Tree) Similarity(a, b NodeID) float64 {
	if int(a) < 0 || int(b) < 0 || int(a) >= len(t.nodes) || int(b) >= len(t.nodes) {
		return 0
	}
	lca := t.LCA(a, b)
	if lca == InvalidNode {
		return 0
	}
	da, db := t.nodes[a].Depth, t.nodes[b].Depth
	maxd := da
	if db > maxd {
		maxd = db
	}
	return float64(t.nodes[lca].Depth) / float64(maxd)
}

// Stats summarises structural properties of the tree; used to report the
// dataset characteristics table (Table 6 of the paper).
type Stats struct {
	Nodes     int
	MinHeight int
	AvgHeight float64
	MaxHeight int
	AvgFanout float64
}

// Stats computes structural statistics over leaves (heights are leaf depths,
// matching the min/avg/max height columns of Table 6).
func (t *Tree) Stats() Stats {
	st := Stats{Nodes: len(t.nodes)}
	leafCount := 0
	internal := 0
	childSum := 0
	sumDepth := 0
	st.MinHeight = int(^uint(0) >> 1)
	for _, n := range t.nodes {
		if len(n.Children) == 0 {
			leafCount++
			sumDepth += n.Depth
			if n.Depth < st.MinHeight {
				st.MinHeight = n.Depth
			}
			if n.Depth > st.MaxHeight {
				st.MaxHeight = n.Depth
			}
		} else {
			internal++
			childSum += len(n.Children)
		}
	}
	if leafCount > 0 {
		st.AvgHeight = float64(sumDepth) / float64(leafCount)
	} else {
		st.MinHeight = 0
	}
	if internal > 0 {
		st.AvgFanout = float64(childSum) / float64(internal)
	}
	return st
}

// MaxEntityTokens returns the maximum number of tokens in any entity name.
// This feeds the claw-freeness parameter k of the approximation analysis.
func (t *Tree) MaxEntityTokens() int { return t.maxTok }

// MaxEntityTokensFrom returns the token count of the longest multi-token
// entity name whose first token is head, or 0 when no such name exists: a
// span starting with any other token names an entity only if it is a single
// token.
func (t *Tree) MaxEntityTokensFrom(head string) int { return t.heads[head] }

// EntityNames returns all entity names sorted lexicographically. Intended
// for generators and debugging, not hot paths.
func (t *Tree) EntityNames() []string {
	names := make([]string, 0, len(t.nodes))
	for _, n := range t.nodes {
		names = append(names, n.Name)
	}
	sort.Strings(names)
	return names
}

// Write serialises the tree in a simple line-oriented text format:
//
//	<node name><TAB><parent name>
//
// with the root on the first line having an empty parent field. The format
// round-trips through Read.
func (t *Tree) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, n := range t.nodes {
		parent := ""
		if n.Parent != InvalidNode {
			parent = t.nodes[n.Parent].Name
		}
		if _, err := fmt.Fprintf(bw, "%s\t%s\n", n.Name, parent); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the format produced by Write. Parents must appear before
// children, which Write guarantees.
func Read(r io.Reader) (*Tree, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var t *Tree
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		parts := strings.SplitN(text, "\t", 2)
		name := parts[0]
		parent := ""
		if len(parts) == 2 {
			parent = parts[1]
		}
		if t == nil {
			if parent != "" {
				return nil, fmt.Errorf("taxonomy: line %d: first node must be the root", line)
			}
			t = NewTree(name)
			continue
		}
		pid, ok := t.Lookup(parent)
		if !ok {
			return nil, fmt.Errorf("taxonomy: line %d: unknown parent %q", line, parent)
		}
		if _, err := t.AddChild(pid, name); err != nil {
			return nil, fmt.Errorf("taxonomy: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t == nil {
		return nil, errors.New("taxonomy: empty input")
	}
	return t, nil
}

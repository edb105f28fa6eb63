// Package assoctree enumerates the association trees of a query
// hypergraph (Definition 3.2). An association tree fixes the order in
// which relations are combined, without assigning operators. The memo
// optimizer reaches the same join orders through rewrite rules; this
// enumeration counts the space and is the reference the optimizer's
// plan space is tested against.
//
// Two enumeration modes are provided. Strict mode is the baseline
// definition of [BHAR95a]: a hyperedge may only be used when both of
// its hypernodes are completely contained in the two subtrees being
// combined, so a complex hyperedge like h2 = <{r2},{r4,r5}> forces r4
// and r5 to be combined before r2 joins them. Broken mode is this
// paper's Definition 3.2: a hyperedge may be broken up, so any
// non-empty subsets of its hypernodes suffice, which admits strictly
// more association trees — the plan-space widening the paper is
// about.
package assoctree

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/hypergraph"
)

// Tree is a binary association tree; a leaf has Leaf set and nil
// children, an internal node has both children.
type Tree struct {
	Leaf string
	L, R *Tree
}

// IsLeaf reports whether t is a leaf.
func (t *Tree) IsLeaf() bool { return t.L == nil && t.R == nil }

// Leaves appends the leaf names in left-to-right order.
func (t *Tree) Leaves() []string {
	var out []string
	var rec func(t *Tree)
	rec = func(t *Tree) {
		if t.IsLeaf() {
			out = append(out, t.Leaf)
			return
		}
		rec(t.L)
		rec(t.R)
	}
	rec(t)
	return out
}

// String renders the tree in the paper's dot notation, e.g.
// "((r1.r2).((r4.r5).r3))".
func (t *Tree) String() string {
	if t.IsLeaf() {
		return t.Leaf
	}
	return "(" + t.L.String() + "." + t.R.String() + ")"
}

// Enumerator enumerates association trees over a hypergraph with up
// to 64 nodes, using subset dynamic programming.
type Enumerator struct {
	H     *hypergraph.Hypergraph
	Mode  hypergraph.ConnectMode
	names []string
	index map[string]int
	// fromMask / toMask give each hyperedge's hypernodes as bitmasks.
	fromMask, toMask []uint64
}

// NewEnumerator prepares subset DP state. It returns an error when
// the hypergraph has more than 64 nodes.
func NewEnumerator(h *hypergraph.Hypergraph, mode hypergraph.ConnectMode) (*Enumerator, error) {
	if len(h.Nodes) > 64 {
		return nil, fmt.Errorf("assoctree: %d nodes exceed the 64-node enumeration limit", len(h.Nodes))
	}
	e := &Enumerator{
		H:     h,
		Mode:  mode,
		names: append([]string(nil), h.Nodes...),
		index: make(map[string]int, len(h.Nodes)),
	}
	sort.Strings(e.names)
	for i, n := range e.names {
		e.index[n] = i
	}
	for _, edge := range h.Edges {
		e.fromMask = append(e.fromMask, e.mask(edge.From))
		e.toMask = append(e.toMask, e.mask(edge.To))
	}
	return e, nil
}

func (e *Enumerator) mask(rels []string) uint64 {
	var m uint64
	for _, r := range rels {
		m |= 1 << uint(e.index[r])
	}
	return m
}

// connects reports whether hyperedge i can be used to combine subtree
// masks a and b under the enumerator's mode.
func (e *Enumerator) connects(i int, a, b uint64) bool {
	f, t := e.fromMask[i], e.toMask[i]
	switch e.Mode {
	case hypergraph.Strict:
		return (f&^a == 0 && t&^b == 0) || (f&^b == 0 && t&^a == 0)
	default: // Broken: any non-empty piece of each hypernode.
		return (f&a != 0 && t&b != 0) || (f&b != 0 && t&a != 0)
	}
}

// CanCombine reports whether two disjoint connected subsets may be
// combined into one subtree: some hyperedge must connect them (no
// cartesian products, matching Definition 3.2 item 3).
func (e *Enumerator) CanCombine(a, b uint64) bool {
	for i := range e.fromMask {
		if e.connects(i, a, b) {
			return true
		}
	}
	return false
}

// Count returns the number of distinct association trees over the
// whole node set. Trees are counted as unordered ((A.B) ≡ (B.A)).
func (e *Enumerator) Count() uint64 {
	n := len(e.names)
	full := uint64(1)<<uint(n) - 1
	counts := make(map[uint64]uint64)
	for i := 0; i < n; i++ {
		counts[1<<uint(i)] = 1
	}
	// Iterate subsets in increasing popcount order.
	subsets := make([]uint64, 0, 1<<uint(n))
	for s := uint64(1); s <= full; s++ {
		subsets = append(subsets, s)
	}
	sort.Slice(subsets, func(i, j int) bool {
		return bits.OnesCount64(subsets[i]) < bits.OnesCount64(subsets[j])
	})
	for _, s := range subsets {
		if bits.OnesCount64(s) < 2 {
			continue
		}
		var total uint64
		// Enumerate unordered partitions: fix the lowest bit in a.
		low := s & (-s)
		rest := s &^ low
		for sub := rest; ; sub = (sub - 1) & rest {
			a := low | sub
			b := s &^ a
			if b != 0 {
				ca, cb := counts[a], counts[b]
				if ca > 0 && cb > 0 && e.CanCombine(a, b) {
					total += ca * cb
				}
			}
			if sub == 0 {
				break
			}
		}
		if total > 0 {
			counts[s] = total
		}
	}
	return counts[full]
}

// Trees materializes every association tree over the whole node set,
// up to the given limit (0 = no limit). Trees are produced with the
// lexicographically-smallest relation of each combination in the left
// subtree, giving a canonical form per unordered tree.
func (e *Enumerator) Trees(limit int) []*Tree {
	n := len(e.names)
	full := uint64(1)<<uint(n) - 1
	memo := make(map[uint64][]*Tree)
	for i := 0; i < n; i++ {
		memo[1<<uint(i)] = []*Tree{{Leaf: e.names[i]}}
	}
	subsets := make([]uint64, 0, 1<<uint(n))
	for s := uint64(1); s <= full; s++ {
		subsets = append(subsets, s)
	}
	sort.Slice(subsets, func(i, j int) bool {
		return bits.OnesCount64(subsets[i]) < bits.OnesCount64(subsets[j])
	})
	truncated := false
	for _, s := range subsets {
		if bits.OnesCount64(s) < 2 {
			continue
		}
		var out []*Tree
		low := s & (-s)
		rest := s &^ low
		for sub := rest; ; sub = (sub - 1) & rest {
			a := low | sub
			b := s &^ a
			if b != 0 {
				ta, tb := memo[a], memo[b]
				if len(ta) > 0 && len(tb) > 0 && e.CanCombine(a, b) {
					for _, x := range ta {
						for _, y := range tb {
							out = append(out, &Tree{L: x, R: y})
							if limit > 0 && s == full && len(out) >= limit {
								truncated = true
								break
							}
						}
						if truncated {
							break
						}
					}
				}
			}
			if sub == 0 || truncated {
				break
			}
		}
		if len(out) > 0 {
			memo[s] = out
		}
	}
	return memo[full]
}

// HasTree reports whether the given tree is a valid association tree
// for the hypergraph under the enumerator's mode: every subtree's
// leaf set must be connected and every internal combination must be
// joinable by some (possibly broken) hyperedge.
func (e *Enumerator) HasTree(t *Tree) bool {
	var rec func(t *Tree) (uint64, bool)
	rec = func(t *Tree) (uint64, bool) {
		if t.IsLeaf() {
			i, ok := e.index[t.Leaf]
			if !ok {
				return 0, false
			}
			return 1 << uint(i), true
		}
		a, okA := rec(t.L)
		if !okA {
			return 0, false
		}
		b, okB := rec(t.R)
		if !okB {
			return 0, false
		}
		if a&b != 0 || !e.CanCombine(a, b) {
			return 0, false
		}
		s := a | b
		if !e.H.Connected(maskToSet(e, s), e.Mode) {
			return 0, false
		}
		return s, true
	}
	m, ok := rec(t)
	if !ok {
		return false
	}
	return m == uint64(1)<<uint(len(e.names))-1
}

func maskToSet(e *Enumerator, m uint64) map[string]bool {
	set := make(map[string]bool)
	for i := 0; i < len(e.names); i++ {
		if m&(1<<uint(i)) != 0 {
			set[e.names[i]] = true
		}
	}
	return set
}

// ParseTree parses the paper's dot notation, e.g.
// "((r1.r2).((r4.r5).r3))".
func ParseTree(s string) (*Tree, error) {
	p := &treeParser{s: s}
	t, err := p.parse()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.i != len(p.s) {
		return nil, fmt.Errorf("assoctree: trailing input at %d in %q", p.i, s)
	}
	return t, nil
}

type treeParser struct {
	s string
	i int
}

func (p *treeParser) skipSpace() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *treeParser) parse() (*Tree, error) {
	p.skipSpace()
	if p.i >= len(p.s) {
		return nil, fmt.Errorf("assoctree: unexpected end of input in %q", p.s)
	}
	if p.s[p.i] == '(' {
		p.i++
		l, err := p.parse()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.i >= len(p.s) || p.s[p.i] != '.' {
			return nil, fmt.Errorf("assoctree: expected '.' at %d in %q", p.i, p.s)
		}
		p.i++
		r, err := p.parse()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.i >= len(p.s) || p.s[p.i] != ')' {
			return nil, fmt.Errorf("assoctree: expected ')' at %d in %q", p.i, p.s)
		}
		p.i++
		return &Tree{L: l, R: r}, nil
	}
	start := p.i
	for p.i < len(p.s) && !strings.ContainsRune("().", rune(p.s[p.i])) && p.s[p.i] != ' ' {
		p.i++
	}
	if p.i == start {
		return nil, fmt.Errorf("assoctree: expected leaf name at %d in %q", start, p.s)
	}
	return &Tree{Leaf: p.s[start:p.i]}, nil
}

// Package hypergraph implements the query hypergraph model of
// Section 3: nodes are the base relations of a query, hyperedges
// represent binary operations between two hypernodes (the sets of
// relations each side of the operator's predicate references).
//
// Directed hyperedges represent one-sided outer joins (drawn from the
// preserved side to the null-supplying side), bi-directed hyperedges
// represent full outer joins, and undirected hyperedges represent
// inner joins. On top of the graph the package computes the semantic
// sets the paper's Theorem 1 needs: preserved sets pres(h) and
// pres_h1(h), closest conflicting outer joins ccoj(h0), and conflict
// sets conf(h0) (Definition 3.3). All of these are computed once per
// query, as the paper emphasises.
package hypergraph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/plan"
)

// EdgeKind classifies a hyperedge by the operator it represents.
type EdgeKind uint8

// The edge kinds.
const (
	Undirected EdgeKind = iota // inner join ⋈
	Directed                   // one-sided outer join →
	BiDirected                 // full outer join ↔
)

// String renders the kind.
func (k EdgeKind) String() string {
	switch k {
	case Undirected:
		return "join"
	case Directed:
		return "outerjoin"
	case BiDirected:
		return "fullouterjoin"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// Hyperedge is one binary operation of the query. For a Directed
// edge, From is the hypernode on the preserved side and To the
// hypernode on the null-supplying side; for Undirected and BiDirected
// edges the orientation carries no meaning beyond bookkeeping.
type Hyperedge struct {
	ID   int
	Kind EdgeKind
	From []string // hypernode V1 (sorted)
	To   []string // hypernode V2 (sorted)
	Pred expr.Pred
	// Origin is the plan node the edge was built from, when the
	// hypergraph came from FromPlan; nil for hand-built graphs.
	Origin *plan.Join
}

// nodes returns From ∪ To.
func (e *Hyperedge) nodes() []string {
	out := append(append([]string(nil), e.From...), e.To...)
	sort.Strings(out)
	return out
}

// Complex reports whether the edge's predicate references more than
// two relations.
func (e *Hyperedge) Complex() bool { return len(e.From)+len(e.To) > 2 }

// String renders e.g. "h1: {r2} -> {r4 r5} on p".
func (e *Hyperedge) String() string {
	arrow := "--"
	switch e.Kind {
	case Directed:
		arrow = "->"
	case BiDirected:
		arrow = "<->"
	}
	return fmt.Sprintf("h%d: {%s} %s {%s} on %s",
		e.ID, strings.Join(e.From, " "), arrow, strings.Join(e.To, " "), e.Pred)
}

// Hypergraph is the query hypergraph H = (V, E).
type Hypergraph struct {
	Nodes []string // sorted relation names
	Edges []*Hyperedge
}

// String renders the hypergraph in the style of Figure 1.
func (h *Hypergraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "H = <{%s}, {", strings.Join(h.Nodes, ", "))
	for i, e := range h.Edges {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "h%d", e.ID)
	}
	b.WriteString("}>\n")
	for _, e := range h.Edges {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// nodeSet builds a set from names.
func nodeSet(names []string) map[string]bool {
	s := make(map[string]bool, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

func sortedKeys(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FromPlan builds the query hypergraph of a join tree. The tree may
// contain Scan and Join nodes only (strip selections, generalized
// selections and group-bys first; they do not contribute hyperedges).
// Each Join contributes one hyperedge whose hypernodes are the
// relations its predicate references on each side, directed from the
// preserved to the null-supplying side for one-sided outer joins.
func FromPlan(n plan.Node) (*Hypergraph, error) {
	h := &Hypergraph{}
	seen := make(map[string]bool)
	var build func(n plan.Node) (map[string]bool, error)
	build = func(n plan.Node) (map[string]bool, error) {
		switch m := n.(type) {
		case *plan.Scan:
			name := m.Name()
			if seen[name] {
				return nil, fmt.Errorf("hypergraph: relation %q occurs twice; rename apart first", name)
			}
			seen[name] = true
			h.Nodes = append(h.Nodes, name)
			return map[string]bool{name: true}, nil
		case *plan.Join:
			lRels, err := build(m.L)
			if err != nil {
				return nil, err
			}
			rRels, err := build(m.R)
			if err != nil {
				return nil, err
			}
			pRels := expr.RelSet(m.Pred)
			var from, to []string
			for rel := range pRels {
				switch {
				case lRels[rel]:
					from = append(from, rel)
				case rRels[rel]:
					to = append(to, rel)
				default:
					return nil, fmt.Errorf("hypergraph: predicate %s references %q outside its operands", m.Pred, rel)
				}
			}
			if len(from) == 0 || len(to) == 0 {
				return nil, fmt.Errorf("hypergraph: predicate %s does not reference both operands of %s", m.Pred, m.Kind)
			}
			sort.Strings(from)
			sort.Strings(to)
			e := &Hyperedge{ID: len(h.Edges) + 1, Pred: m.Pred, Origin: m}
			switch m.Kind {
			case plan.InnerJoin:
				e.Kind, e.From, e.To = Undirected, from, to
			case plan.LeftJoin:
				e.Kind, e.From, e.To = Directed, from, to
			case plan.RightJoin:
				e.Kind, e.From, e.To = Directed, to, from
			case plan.FullJoin:
				e.Kind, e.From, e.To = BiDirected, from, to
			}
			h.Edges = append(h.Edges, e)
			all := make(map[string]bool, len(lRels)+len(rRels))
			for r := range lRels {
				all[r] = true
			}
			for r := range rRels {
				all[r] = true
			}
			return all, nil
		default:
			return nil, fmt.Errorf("hypergraph: unsupported node %T in join tree (strip unary operators first)", n)
		}
	}
	if _, err := build(n); err != nil {
		return nil, err
	}
	sort.Strings(h.Nodes)
	return h, nil
}

// ConnectMode selects how induced sub-hypergraph connectivity treats
// hyperedges whose hypernodes are only partially inside the node
// subset.
type ConnectMode uint8

const (
	// Strict is the [BHAR95a] rule: a hyperedge connects its
	// hypernodes only when both are entirely inside the subset.
	Strict ConnectMode = iota
	// Broken is the Definition 3.2 rule of this paper: a hyperedge
	// ⟨V1,V2⟩ may be broken up, so any u ∈ V1 and v ∈ V2 inside the
	// subset are connected through it (footnote 6).
	Broken
)

// Connected reports whether the induced sub-hypergraph over the node
// subset s is connected under the given mode. The empty and singleton
// subsets are connected.
func (h *Hypergraph) Connected(s map[string]bool, mode ConnectMode) bool {
	if len(s) <= 1 {
		return true
	}
	uf := newUnionFind()
	for n := range s {
		uf.add(n)
	}
	for _, e := range h.Edges {
		switch mode {
		case Strict:
			inside := true
			for _, n := range e.nodes() {
				if !s[n] {
					inside = false
					break
				}
			}
			if inside {
				nodes := e.nodes()
				for _, n := range nodes[1:] {
					uf.union(nodes[0], n)
				}
			}
		case Broken:
			for _, u := range e.From {
				if !s[u] {
					continue
				}
				for _, v := range e.To {
					if s[v] {
						uf.union(u, v)
					}
				}
			}
		}
	}
	return uf.components() == 1
}

// unionFind is a minimal disjoint-set over strings.
type unionFind struct{ parent map[string]string }

func newUnionFind() *unionFind { return &unionFind{parent: make(map[string]string)} }

func (u *unionFind) add(x string) {
	if _, ok := u.parent[x]; !ok {
		u.parent[x] = x
	}
}

func (u *unionFind) find(x string) string {
	u.add(x)
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(x, y string) { u.parent[u.find(x)] = u.find(y) }

func (u *unionFind) components() int {
	roots := make(map[string]bool)
	for x := range u.parent {
		roots[u.find(x)] = true
	}
	return len(roots)
}

// reach computes the set of nodes from which the start set can be
// reached by a path in the paper's sense: each step *crosses* a
// hyperedge from one hypernode to the other (members of the same
// hypernode are not adjacent through that edge), and a path never
// reuses a hyperedge. Only edges for which traverse returns true may
// be crossed. Paths are explored by depth-first search with
// backtracking; query hypergraphs are small, so the worst-case cost
// is irrelevant in practice.
//
// The crossing requirement matters: in Q6's hypergraph the top edge
// <{r1},{r2,r4}> must not make r4 reachable from r2 (the path would
// have to cross the edge twice), which is exactly why the paper's
// pres of the middle edge is {r1, r2} and not everything.
func (h *Hypergraph) reach(start map[string]bool, traverse func(e *Hyperedge) bool) map[string]bool {
	found := make(map[string]bool, len(start))
	for n := range start {
		found[n] = true
	}
	used := make(map[int]bool)
	var dfs func(node string)
	dfs = func(node string) {
		for _, e := range h.Edges {
			if used[e.ID] || !traverse(e) {
				continue
			}
			var next []string
			switch {
			case containsNode(e.From, node):
				next = e.To
			case containsNode(e.To, node):
				next = e.From
			default:
				continue
			}
			used[e.ID] = true
			for _, n := range next {
				found[n] = true
				dfs(n)
			}
			delete(used, e.ID)
		}
	}
	for n := range start {
		dfs(n)
	}
	return found
}

func containsNode(nodes []string, n string) bool {
	for _, x := range nodes {
		if x == n {
			return true
		}
	}
	return false
}

// Region returns the set of nodes from which some node of start is
// reachable by a path (in the crossing, distinct-edge sense of reach)
// that never uses exclude. It is the building block of the preserved
// sets and of the separation precondition for predicate break-up.
func (h *Hypergraph) Region(start []string, exclude *Hyperedge) map[string]bool {
	return h.reach(nodeSet(start), func(e *Hyperedge) bool { return e != exclude })
}

// Pres computes pres(h) for a directed hyperedge: the relations "to
// the left of" (preserved by) h — the connected component containing
// h's preserved hypernode once h is removed. For a bi-directed edge
// it returns the component of the From side; use Pres2 for the other
// side. It panics on undirected edges, which preserve nothing.
func (h *Hypergraph) Pres(e *Hyperedge) []string {
	if e.Kind == Undirected {
		panic("hypergraph: Pres of an undirected edge")
	}
	comp := h.reach(nodeSet(e.From), func(x *Hyperedge) bool { return x != e })
	return sortedKeys(comp)
}

// Pres2 returns the component of a bi-directed edge's To side with
// the edge removed (pres_2(h) in Section 3).
func (h *Hypergraph) Pres2(e *Hyperedge) []string {
	if e.Kind != BiDirected {
		panic("hypergraph: Pres2 of a non-bi-directed edge")
	}
	comp := h.reach(nodeSet(e.To), func(x *Hyperedge) bool { return x != e })
	return sortedKeys(comp)
}

// PresAway computes pres_{away}(e): the relations preserved by e away
// from edge `away` (Section 3). For a directed e this is pres(e)
// regardless of away. For a bi-directed e it is the side of e whose
// component (with e removed) does not contain `away`: the relations
// whose (unique, by acyclicity) path to e avoids `away`, which are
// exactly the tuples a deferred predicate's generalized selection
// must keep preserving on e's far side.
func (h *Hypergraph) PresAway(e, away *Hyperedge) []string {
	if e.Kind == Directed {
		return h.Pres(e)
	}
	if e.Kind != BiDirected {
		panic("hypergraph: PresAway of an undirected edge")
	}
	side1 := h.reach(nodeSet(e.From), func(x *Hyperedge) bool { return x != e })
	if !intersects(away.nodes(), side1) {
		return sortedKeys(side1)
	}
	side2 := h.reach(nodeSet(e.To), func(x *Hyperedge) bool { return x != e })
	if intersects(away.nodes(), side2) {
		// `away` touches both sides; with the paper's simplicity
		// assumption this cannot happen, but fall back to the full
		// preserved union rather than guessing.
		return sortedKeys(side1)
	}
	return sortedKeys(side2)
}

// CCOJ computes the closest conflicting outer joins of an undirected
// (join) edge h0: the directed hyperedges e whose null-supplying side
// leads to h0 through join / one-sided outer join edges — i.e. h0
// lies inside e's null-supplying region, with no other such directed
// edge in between. The paper notes |ccoj(h0)| ≤ 1 for simple queries.
func (h *Hypergraph) CCOJ(h0 *Hyperedge) []*Hyperedge {
	if h0.Kind != Undirected {
		return nil
	}
	region := nodeSet(h0.nodes())
	var found []*Hyperedge
	for changed := true; changed; {
		changed = false
		for _, e := range h.Edges {
			if e == h0 || e.Kind == BiDirected {
				continue
			}
			toIn := intersects(e.To, region)
			fromIn := intersects(e.From, region)
			if e.Kind == Directed && toIn && !fromIn {
				// Entered from the null-supplying side: e is a
				// candidate closest conflicting outer join. Do not
				// traverse past it.
				if !containsEdge(found, e) {
					found = append(found, e)
				}
				continue
			}
			// Interior ≃ step: cross the edge (hypernode to
			// hypernode, never within a hypernode).
			if fromIn {
				changed = absorb(region, e.To) || changed
			}
			if toIn {
				changed = absorb(region, e.From) || changed
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].ID < found[j].ID })
	return found
}

// absorb adds nodes to the region, reporting whether it grew.
func absorb(region map[string]bool, nodes []string) bool {
	grew := false
	for _, n := range nodes {
		if !region[n] {
			region[n] = true
			grew = true
		}
	}
	return grew
}

// Conf computes the hypergraph conflict set conf(h0) of
// Definition 3.3. The members are the (full) outer join hyperedges
// whose operators cannot be descendants of h0's operator in any
// expression tree, and whose preserved sets a generalized selection
// deferring part of h0's predicate must therefore also preserve
// (Theorem 1).
func (h *Hypergraph) Conf(h0 *Hyperedge) []*Hyperedge {
	switch h0.Kind {
	case BiDirected:
		return nil
	case Directed:
		// Full outer joins reachable from the null-supplying side
		// through join / one-sided outer join edges.
		return h.fullOuterFrontier(nodeSet(h0.To), h0)
	default: // Undirected
		ccoj := h.CCOJ(h0)
		if len(ccoj) > 0 {
			// conf(h0) = ccoj(h0) ∪ conf of each member.
			out := append([]*Hyperedge(nil), ccoj...)
			for _, e := range ccoj {
				for _, c := range h.Conf(e) {
					if !containsEdge(out, c) {
						out = append(out, c)
					}
				}
			}
			sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
			return out
		}
		return h.fullOuterFrontier(nodeSet(h0.nodes()), h0)
	}
}

// fullOuterFrontier grows a region from start through join and
// one-sided outer join edges (≃) and collects, without traversing,
// the bi-directed edges that touch the region.
func (h *Hypergraph) fullOuterFrontier(start map[string]bool, exclude *Hyperedge) []*Hyperedge {
	region := make(map[string]bool, len(start))
	for n := range start {
		region[n] = true
	}
	var frontier []*Hyperedge
	for changed := true; changed; {
		changed = false
		for _, e := range h.Edges {
			if e == exclude {
				continue
			}
			fromIn, toIn := intersects(e.From, region), intersects(e.To, region)
			if !fromIn && !toIn {
				continue
			}
			if e.Kind == BiDirected {
				if !containsEdge(frontier, e) {
					frontier = append(frontier, e)
				}
				continue
			}
			if fromIn {
				changed = absorb(region, e.To) || changed
			}
			if toIn {
				changed = absorb(region, e.From) || changed
			}
		}
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i].ID < frontier[j].ID })
	return frontier
}

func intersects(nodes []string, set map[string]bool) bool {
	for _, n := range nodes {
		if set[n] {
			return true
		}
	}
	return false
}

func containsEdge(list []*Hyperedge, e *Hyperedge) bool {
	for _, x := range list {
		if x == e {
			return true
		}
	}
	return false
}

// IsAcyclic reports whether the hypergraph is acyclic in the sense
// the paper uses for Figure 1, which "has no cycles" even though
// hyperedges h2 and h4 share the nodes r4 and r5: a path must *cross*
// a hyperedge from one hypernode to the other, so entering and
// leaving through the same hypernode does not create a cycle. This
// coincides with hypergraph α-acyclicity, tested here with the
// standard GYO ear-removal reduction over the vertex sets From ∪ To.
func (h *Hypergraph) IsAcyclic() bool {
	edges := make([]map[string]bool, 0, len(h.Edges))
	for _, e := range h.Edges {
		edges = append(edges, nodeSet(e.nodes()))
	}
	for changed := true; changed; {
		changed = false
		// Count vertex occurrences.
		occ := make(map[string]int)
		for _, e := range edges {
			for v := range e {
				occ[v]++
			}
		}
		// Remove vertices occurring in a single hyperedge.
		for _, e := range edges {
			for v := range e {
				if occ[v] == 1 {
					delete(e, v)
					changed = true
				}
			}
		}
		// Remove empty hyperedges and hyperedges contained in another.
		keep := edges[:0]
		for i, e := range edges {
			if len(e) == 0 {
				changed = true
				continue
			}
			contained := false
			for j, f := range edges {
				if i == j || len(f) < len(e) {
					continue
				}
				if j < i && sameSet(e, f) {
					contained = true // drop duplicates once
					break
				}
				if len(f) > len(e) || (len(f) == len(e) && !sameSet(e, f)) {
					all := true
					for v := range e {
						if !f[v] {
							all = false
							break
						}
					}
					if all {
						contained = true
						break
					}
				}
			}
			if contained {
				changed = true
				continue
			}
			keep = append(keep, e)
		}
		edges = keep
	}
	return len(edges) == 0
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

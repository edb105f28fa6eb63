package core

import (
	"fmt"
	"sort"

	"repro/internal/assoctree"
	"repro/internal/expr"
	"repro/internal/hypergraph"
	"repro/internal/plan"
)

// AssignOperators implements Section 4's steps (a) and (b): given the
// query hypergraph and one of its association trees (Definition 3.2),
// build an equivalent expression tree by
//
//	a) assigning operators to the tree's internal nodes — inner joins,
//	   one-sided outer joins, or MGOJ with a partial preservation list
//	   when only part of an outer join's preserved region has arrived
//	   (the paper's Q4' construction), and
//	b) re-applying the conjuncts that could not ride their edge's
//	   operator (broken-up pieces of complex predicates) with
//	   compensating generalized selections at the root, with preserved
//	   lists per Theorem 1.
//
// Every conjunct of every edge is placed exactly once: either at its
// edge's materialization node (the lowest tree node where any of the
// edge's conjuncts can be evaluated) or behind a top-level σ*. The
// dependent-predicate separation precondition applies to deferred
// conjuncts just as in DeferConjuncts.
func AssignOperators(h *hypergraph.Hypergraph, t *assoctree.Tree) (plan.Node, error) {
	a := &assigner{h: h}
	if err := a.prepare(t); err != nil {
		return nil, err
	}
	node, _, err := a.build(t)
	if err != nil {
		return nil, err
	}
	// Step (b): compensate deferred conjuncts, outermost first in
	// edge order (independent predicates sit closer to the root in
	// the original expression, matching the Q6 procedure).
	sort.SliceStable(a.deferred, func(i, j int) bool {
		return a.deferred[i].edge.ID > a.deferred[j].edge.ID
	})
	for _, d := range a.deferred {
		if err := a.checkSeparation(d.edge); err != nil {
			return nil, err
		}
		specs := CompensationSpecs(h, d.edge)
		if len(specs) == 0 {
			node = plan.NewSelect(d.pred, node)
		} else {
			node = plan.NewGenSel(d.pred, specs, node)
		}
	}
	return node, nil
}

// conjunctInfo tracks one conjunct of one hyperedge through the
// assignment.
type conjunctInfo struct {
	pred expr.Pred
	edge *hypergraph.Hyperedge
	rels map[string]bool
	// node is the lowest tree node (by id) where the conjunct can be
	// evaluated with both sides touched.
	node int
}

type deferredConjunct struct {
	pred expr.Pred
	edge *hypergraph.Hyperedge
}

type assigner struct {
	h         *hypergraph.Hypergraph
	conjuncts []*conjunctInfo
	// matNode maps edge id to its materialization tree-node id.
	matNode  map[int]int
	nextID   int
	deferred []deferredConjunct
	scopes   map[int]map[string]bool
}

// prepare computes, for every conjunct, the tree node where it first
// becomes evaluable, and for every edge its materialization node.
func (a *assigner) prepare(t *assoctree.Tree) error {
	for _, e := range a.h.Edges {
		for _, c := range expr.Conjuncts(e.Pred) {
			a.conjuncts = append(a.conjuncts, &conjunctInfo{
				pred: c,
				edge: e,
				rels: expr.RelSet(c),
				node: -1,
			})
		}
	}
	// Walk the tree assigning node ids (post-order) and locating each
	// conjunct's application node.
	a.matNode = make(map[int]int)
	var walk func(t *assoctree.Tree) (map[string]bool, int, error)
	walk = func(t *assoctree.Tree) (map[string]bool, int, error) {
		if t.IsLeaf() {
			id := a.nextID
			a.nextID++
			return map[string]bool{t.Leaf: true}, id, nil
		}
		lRels, _, err := walk(t.L)
		if err != nil {
			return nil, 0, err
		}
		rRels, _, err := walk(t.R)
		if err != nil {
			return nil, 0, err
		}
		id := a.nextID
		a.nextID++
		all := union(lRels, rRels)
		for _, c := range a.conjuncts {
			if c.node >= 0 {
				continue
			}
			if subset(c.rels, all) && intersectsSet(c.rels, lRels) && intersectsSet(c.rels, rRels) {
				c.node = id
				if _, ok := a.matNode[c.edge.ID]; !ok {
					a.matNode[c.edge.ID] = id
				}
			}
		}
		return all, id, nil
	}
	rels, _, err := walk(t)
	if err != nil {
		return err
	}
	if len(rels) != len(a.h.Nodes) {
		return fmt.Errorf("core: tree covers %d of %d relations", len(rels), len(a.h.Nodes))
	}
	for _, c := range a.conjuncts {
		if c.node < 0 {
			return fmt.Errorf("core: conjunct %s never becomes evaluable in tree %s", c.pred, t)
		}
	}
	return nil
}

// build constructs the expression tree bottom-up (step a).
func (a *assigner) build(t *assoctree.Tree) (plan.Node, int, error) {
	a.nextID = 0
	var rec func(t *assoctree.Tree) (plan.Node, map[string]bool, int, error)
	rec = func(t *assoctree.Tree) (plan.Node, map[string]bool, int, error) {
		if t.IsLeaf() {
			id := a.nextID
			a.nextID++
			return plan.NewScan(t.Leaf), map[string]bool{t.Leaf: true}, id, nil
		}
		lNode, lRels, _, err := rec(t.L)
		if err != nil {
			return nil, nil, 0, err
		}
		rNode, rRels, _, err := rec(t.R)
		if err != nil {
			return nil, nil, 0, err
		}
		id := a.nextID
		a.nextID++

		// Partition this node's conjuncts into riders (their edge
		// materializes here) and deferrals (pieces of edges
		// materialized deeper).
		var riders []expr.Pred
		var riderEdges []*hypergraph.Hyperedge
		for _, c := range a.conjuncts {
			if c.node != id {
				continue
			}
			if a.matNode[c.edge.ID] == id {
				riders = append(riders, c.pred)
				riderEdges = append(riderEdges, c.edge)
			} else {
				a.deferred = append(a.deferred, deferredConjunct{pred: c.pred, edge: c.edge})
			}
		}

		// Preservation obligations: see preservedOn.
		lSpec := a.preservedOn(lRels, rRels, riderEdges)
		rSpec := a.preservedOn(rRels, lRels, riderEdges)
		pred := expr.And(riders...)

		node, err := combine(pred, lNode, rNode, lRels, rRels, lSpec, rSpec)
		if err != nil {
			return nil, nil, 0, err
		}
		return node, union(lRels, rRels), id, nil
	}
	node, _, id, err := rec(t)
	return node, id, err
}

// preservedOn computes the set of relations on `side` that must be
// preserved when combining against `other` under the node's rider
// predicates.
//
// An outer join edge e guarantees, in the original query, that
// partial rows over its preserved region survive the failure of any
// predicate those rows never meet. At this tree node, the candidate
// S = presRegion(e) ∩ side is endangered — and must be preserved —
// exactly when
//
//   - some rider belongs to e itself (e's own operator semantics:
//     its preserved side pads instead of dropping), or
//   - some rider belongs to another edge whose original operand
//     scope does not cover S: in the original that predicate never
//     filters S-data, but at this node S-data rides along and an
//     unpreserved combination would lose it (the paper's Q4' MGOJ
//     situation).
//
// With no riders the node performs a cross product, drops nothing,
// and owes nothing.
func (a *assigner) preservedOn(side, other map[string]bool, riderEdges []*hypergraph.Hyperedge) map[string]bool {
	if len(riderEdges) == 0 {
		return nil
	}
	out := make(map[string]bool)
	consider := func(e *hypergraph.Hyperedge, presSide, nullSide map[string]bool) {
		s := intersect(presSide, side)
		if len(s) == 0 || !intersectsSet(nullSide, other) {
			return
		}
		// e's own rider: its operator preserves the whole candidate
		// (the edge's join semantics pad rather than drop).
		for _, re := range riderEdges {
			if re == e {
				for r := range s {
					out[r] = true
				}
				return
			}
		}
		// Other riders legitimately drop the sub-data their original
		// operand scope covered; only the remainder is endangered and
		// must be preserved (partially — the MGOJ case).
		endangered := make(map[string]bool, len(s))
		for r := range s {
			endangered[r] = true
		}
		for _, re := range riderEdges {
			sc := a.scope(re)
			for r := range s {
				if sc[r] {
					delete(endangered, r)
				}
			}
		}
		for r := range endangered {
			out[r] = true
		}
	}
	for _, e := range a.h.Edges {
		switch e.Kind {
		case hypergraph.Directed:
			consider(e, a.h.Region(e.From, e), a.h.Region(e.To, e))
		case hypergraph.BiDirected:
			s1 := a.h.Region(e.From, e)
			s2 := a.h.Region(e.To, e)
			consider(e, s1, s2)
			consider(e, s2, s1)
		}
	}
	return out
}

// scope returns the relations beneath e's operator in the original
// query — the rows its predicate filtered there.
func (a *assigner) scope(e *hypergraph.Hyperedge) map[string]bool {
	if e.Origin == nil {
		// Hand-built hypergraph: fall back to the edge's own nodes.
		return nodeSetOf(e.Nodes())
	}
	if a.scopes == nil {
		a.scopes = make(map[int]map[string]bool)
	}
	if s, ok := a.scopes[e.ID]; ok {
		return s
	}
	s := plan.BaseRelSet(e.Origin)
	a.scopes[e.ID] = s
	return s
}

func nodeSetOf(names []string) map[string]bool {
	out := make(map[string]bool, len(names))
	for _, n := range names {
		out[n] = true
	}
	return out
}

func intersect(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool)
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// combine builds the operator for one tree node from its preservation
// obligations: plain join (none), left/right outer join (one side
// fully preserved), full outer join (both sides fully preserved), or
// MGOJ with partial preservation lists otherwise.
func combine(pred expr.Pred, l, r plan.Node, lRels, rRels, lSpec, rSpec map[string]bool) (plan.Node, error) {
	fullL := len(lSpec) > 0 && len(lSpec) == len(lRels)
	fullR := len(rSpec) > 0 && len(rSpec) == len(rRels)
	switch {
	case len(lSpec) == 0 && len(rSpec) == 0:
		return plan.NewJoin(plan.InnerJoin, pred, l, r), nil
	case fullL && len(rSpec) == 0:
		return plan.NewJoin(plan.LeftJoin, pred, l, r), nil
	case len(lSpec) == 0 && fullR:
		return plan.NewJoin(plan.RightJoin, pred, l, r), nil
	case fullL && fullR:
		return plan.NewJoin(plan.FullJoin, pred, l, r), nil
	default:
		var specs []plan.PreservedSpec
		if len(lSpec) > 0 {
			specs = append(specs, plan.NewPreserved(keysOf(lSpec)...))
		}
		if len(rSpec) > 0 {
			specs = append(specs, plan.NewPreserved(keysOf(rSpec)...))
		}
		return plan.NewMGOJ(pred, specs, l, r), nil
	}
}

// checkSeparation is the dependent-predicate precondition for a
// deferred conjunct's edge (see DeferConjuncts).
func (a *assigner) checkSeparation(e *hypergraph.Hyperedge) error {
	if !separates(a.h, e) {
		return fmt.Errorf("core: edge %s does not separate the query (a relation is reachable from both sides); this association tree requires breaking a dependent predicate", e)
	}
	return nil
}

func union(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func intersectsSet(a, b map[string]bool) bool {
	small, big := a, b
	if len(big) < len(small) {
		small, big = big, small
	}
	for k := range small {
		if big[k] {
			return true
		}
	}
	return false
}

func keysOf(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Package simplify implements outer join simplification ([BHAR95c],
// also [GALI92a]): the preprocessing the paper assumes has already
// happened ("we assume queries have been simplified … so that they do
// not contain any redundant (full) outer join edges; that is, we
// assume queries are simple").
//
// The mechanism is null rejection. A NULL-padded row produced by an
// outer join dies at any ancestor whose null-intolerant predicate
// references a padded attribute; an outer join whose padded rows all
// die can be downgraded — full outer join to one-sided, one-sided to
// inner join — which both shrinks intermediate results and unlocks
// the larger reordering space of inner joins.
package simplify

import (
	"repro/internal/plan"
	"repro/internal/schema"
)

// Simplify rewrites n by downgrading outer joins whose NULL-padded
// rows are rejected upstream. The result is equivalent to n (verified
// by the package tests on randomized databases) and never has more
// outer joins than the input.
func Simplify(n plan.Node) plan.Node {
	return walk(n, nil)
}

// IsSimple reports whether n is its own simplification — the paper's
// standing assumption for Theorem 1. Simplify returns its input
// untouched when nothing changes, so the common answer costs no
// rendering; otherwise the cached fingerprints decide.
func IsSimple(n plan.Node) bool {
	s := Simplify(n)
	return s == n || plan.Key(s) == plan.Key(n)
}

// attrSet is an attribute-level null-rejection set: a row carrying
// NULL in any member attribute cannot reach the query result.
type attrSet map[schema.Attribute]bool

func (s attrSet) add(attrs []schema.Attribute) attrSet {
	if len(attrs) == 0 {
		return s
	}
	out := make(attrSet, len(s)+len(attrs))
	for a := range s {
		out[a] = true
	}
	for _, a := range attrs {
		out[a] = true
	}
	return out
}

// touchesRels reports whether any rejected attribute belongs to a
// relation in rels — i.e. whether rows padded on those relations are
// rejected.
func (s attrSet) touchesRels(rels map[string]bool) bool {
	for a := range s {
		if rels[a.Rel] {
			return true
		}
	}
	return false
}

// restrict keeps only the attributes of relations in rels.
func (s attrSet) restrict(rels map[string]bool) attrSet {
	out := make(attrSet)
	for a := range s {
		if rels[a.Rel] {
			out[a] = true
		}
	}
	return out
}

func walk(n plan.Node, reject attrSet) plan.Node {
	switch m := n.(type) {
	case *plan.Scan:
		return m
	case *plan.Select:
		// The selection's null-intolerant predicate rejects NULLs in
		// every attribute it references.
		childReject := reject.add(m.Pred.Attrs(nil))
		in := walk(m.Input, childReject)
		if in == m.Input {
			return m
		}
		return plan.NewSelect(m.Pred, in)
	case *plan.Join:
		lRels, rRels := plan.BaseRelSet(m.L), plan.BaseRelSet(m.R)
		kind := m.Kind
		// Downgrade the operator when padded rows die upstream.
		switch kind {
		case plan.LeftJoin:
			if reject.touchesRels(rRels) {
				kind = plan.InnerJoin
			}
		case plan.RightJoin:
			if reject.touchesRels(lRels) {
				kind = plan.InnerJoin
			}
		case plan.FullJoin:
			rejL := reject.touchesRels(lRels)
			rejR := reject.touchesRels(rRels)
			switch {
			case rejL && rejR:
				kind = plan.InnerJoin
			case rejR:
				// Rows padded on the right (preserving unmatched left
				// tuples) die, leaving the right outer join.
				kind = plan.RightJoin
			case rejL:
				kind = plan.LeftJoin
			}
		}
		// Propagate rejection into the children. The join predicate
		// itself rejects NULLs only on sides whose rows must match to
		// appear in the output.
		predAttrs := m.Pred.Attrs(nil)
		lReject := reject.restrict(lRels)
		rReject := reject.restrict(rRels)
		switch kind {
		case plan.InnerJoin:
			lReject = lReject.add(filterAttrs(predAttrs, lRels))
			rReject = rReject.add(filterAttrs(predAttrs, rRels))
		case plan.LeftJoin:
			rReject = rReject.add(filterAttrs(predAttrs, rRels))
		case plan.RightJoin:
			lReject = lReject.add(filterAttrs(predAttrs, lRels))
		}
		l := walk(m.L, lReject)
		r := walk(m.R, rReject)
		if kind == m.Kind && l == m.L && r == m.R {
			return m
		}
		return plan.NewJoin(kind, m.Pred, l, r)
	case *plan.GenSel:
		// A generalized selection deliberately preserves rows its
		// predicate rejects, so upstream rejection only survives on
		// the attributes every preserved spec retains. Be
		// conservative: propagate nothing.
		in := walk(m.Input, nil)
		if in == m.Input {
			return m
		}
		return plan.NewGenSel(m.Pred, m.Preserved, in)
	case *plan.MGOJNode:
		l := walk(m.L, nil)
		r := walk(m.R, nil)
		if l == m.L && r == m.R {
			return m
		}
		return plan.NewMGOJ(m.Pred, m.Preserved, l, r)
	case *plan.GroupBy:
		// A rejected group key rejects every row of its group.
		in := walk(m.Input, reject.intersectAttrs(m.Keys))
		if in == m.Input {
			return m
		}
		return plan.NewGroupBy(m.Keys, m.Aggs, in)
	case *plan.Project:
		in := walk(m.Input, reject.intersectAttrs(m.Attrs))
		if in == m.Input {
			return m
		}
		return plan.NewProject(m.Attrs, m.Distinct, in)
	default:
		return n
	}
}

// intersectAttrs keeps only rejected attributes that survive a
// projection/grouping onto attrs.
func (s attrSet) intersectAttrs(attrs []schema.Attribute) attrSet {
	keep := make(map[schema.Attribute]bool, len(attrs))
	for _, a := range attrs {
		keep[a] = true
	}
	out := make(attrSet)
	for a := range s {
		if keep[a] {
			out[a] = true
		}
	}
	return out
}

func filterAttrs(attrs []schema.Attribute, rels map[string]bool) []schema.Attribute {
	var out []schema.Attribute
	for _, a := range attrs {
		if rels[a.Rel] {
			out = append(out, a)
		}
	}
	return out
}

// CountOuterJoins counts one-sided and full outer joins in a plan,
// the metric simplification reduces.
func CountOuterJoins(n plan.Node) int {
	count := 0
	plan.Walk(n, func(m plan.Node) {
		if j, ok := m.(*plan.Join); ok && j.Kind != plan.InnerJoin {
			count++
		}
	})
	return count
}

package core

import (
	"repro/internal/expr"
	"repro/internal/plan"
)

// A Rule proposes equivalent alternatives for a single subtree. Rules
// are expression-level identities: every alternative must evaluate to
// the same relation as the input node on every database, so they may
// be applied at any position of a plan.
type Rule struct {
	Name  string
	Apply func(n plan.Node) []plan.Node
	// Scope declares how deeply Apply inspects the structure of its
	// input, which is what lets the memo explorer apply the rule
	// group-locally: a binding only has to materialize the subtree to
	// the declared depth (anything deeper is an arbitrary member of
	// the corresponding equivalence group). The zero value,
	// ScopeUnknown, keeps undeclared rules sound: the memo cannot
	// bind them, so the optimizer rejects them and only Saturate
	// applies them.
	Scope RuleScope
	// Patterns, which a ScopeChild rule must declare, lists the
	// (root, left input, right input) operator kinds Apply opens with.
	// The memo binds the rule only where one of them matches, so Apply
	// must return nothing on any tree none of them matches.
	Patterns []ChildPattern
}

// OpKind classifies a node's root operator for ScopeChild patterns.
type OpKind uint8

const (
	// KindOther is every operator no pattern names (scans, generalized
	// selections, MGOJ, projections, sorts) and an absent input.
	KindOther OpKind = iota
	KindSelect
	KindGroupBy
	KindInner
	KindLeft
	KindRight
	KindFull
	// KindAny and KindAnyJoin are pattern wildcards, never a node's
	// kind: any kind at all, and any of the four join kinds.
	KindAny
	KindAnyJoin
)

// NumKinds counts the kinds KindOf returns.
const NumKinds = int(KindAny)

// KindOf returns the kind of n's root operator (KindOther for nil).
func KindOf(n plan.Node) OpKind {
	switch x := n.(type) {
	case *plan.Select:
		return KindSelect
	case *plan.GroupBy:
		return KindGroupBy
	case *plan.Join:
		switch x.Kind {
		case plan.InnerJoin:
			return KindInner
		case plan.LeftJoin:
			return KindLeft
		case plan.RightJoin:
			return KindRight
		case plan.FullJoin:
			return KindFull
		}
	}
	return KindOther
}

// covers reports whether the pattern kind p admits the node kind k.
func (p OpKind) covers(k OpKind) bool {
	switch p {
	case KindAny:
		return true
	case KindAnyJoin:
		return k >= KindInner && k <= KindFull
	}
	return p == k
}

// ChildPattern is one combination of operator kinds a ScopeChild
// rule matches: the root's, its left input's and its right input's.
type ChildPattern struct {
	Root, L, R OpKind
}

// Matches reports whether r declares a pattern admitting a root of
// kind root over inputs of kinds left and right.
func (r Rule) Matches(root, left, right OpKind) bool {
	for _, p := range r.Patterns {
		if p.Root.covers(root) && p.L.covers(left) && p.R.covers(right) {
			return true
		}
	}
	return false
}

// RuleScope classifies the structural depth a rule's Apply matches
// on. Predicate-scoping checks (plan.RefsOnly and friends) do not
// count toward the depth: every member of an equivalence group spans
// the same base relations, so any member stands in for the group.
type RuleScope uint8

const (
	// ScopeUnknown is the zero value: the rule has not declared a
	// group-local form. Saturation applies it as always; memo.New
	// refuses it with an error naming the rule.
	ScopeUnknown RuleScope = iota
	// ScopeNode rules inspect only the root operator (kind,
	// predicate) and reuse the children as opaque subtrees —
	// commutativity is the canonical example.
	ScopeNode
	// ScopeChild rules additionally match on the operator of one
	// direct child (associativities, pushdown, merge, MGOJ
	// introduction, aggregation pull-up). The memo binds them once
	// per (expression, child slot, child expression) whose operator
	// kinds one of the rule's Patterns matches, and memo.New refuses
	// one that declares none.
	ScopeChild
	// ScopeGroup rules read the whole subtree but only match pure
	// join-over-scan trees, and what they derive from one depends only
	// on how the conjuncts are placed on the operators — predicate
	// break-up reads the hypergraph, and two join trees with the same
	// placement have the same one: their alternatives are the same
	// alternatives with the subtree below reordered, and the remaining
	// rules derive those. One equivalence group can hold several
	// placements, hence several hypergraphs (select push-down folds a
	// deferred conjunct into a different inner join), and one
	// placement's alternatives do NOT stand for another's. The memo
	// therefore binds such a rule once per distinct placement of the
	// conjuncts on operators within a group, to the first pure join
	// tree it finds with that placement — not once per group.
	ScopeGroup
)

// refsBoth reports whether p references relations on both sides.
func refsBoth(p expr.Pred, a, b plan.Node) bool {
	return plan.RefsSome(p, a) && plan.RefsSome(p, b)
}

// asJoin matches a join of one of the given kinds.
func asJoin(n plan.Node, kinds ...plan.JoinKind) (*plan.Join, bool) {
	j, ok := n.(*plan.Join)
	if !ok {
		return nil, false
	}
	for _, k := range kinds {
		if j.Kind == k {
			return j, true
		}
	}
	return nil, false
}

// RuleCommute swaps the operands of commutative operators:
// A ⋈p B = B ⋈p A and A ↔p B = B ↔p A; a one-sided outer join
// commutes into its mirror: A →p B = B ←p A.
var RuleCommute = Rule{
	Name:  "commute",
	Scope: ScopeNode,
	Apply: func(n plan.Node) []plan.Node {
		j, ok := n.(*plan.Join)
		if !ok {
			return nil
		}
		switch j.Kind {
		case plan.InnerJoin, plan.FullJoin:
			return []plan.Node{plan.NewJoin(j.Kind, j.Pred, j.R, j.L)}
		case plan.LeftJoin:
			return []plan.Node{plan.NewJoin(plan.RightJoin, j.Pred, j.R, j.L)}
		case plan.RightJoin:
			return []plan.Node{plan.NewJoin(plan.LeftJoin, j.Pred, j.R, j.L)}
		}
		return nil
	},
}

// RuleAssocInner is inner join associativity:
// (A ⋈p B) ⋈q C = A ⋈p (B ⋈q C) when q references only B ∪ C (and
// still both operands on each side), in both directions.
var RuleAssocInner = Rule{
	Name:     "assoc-inner",
	Scope:    ScopeChild,
	Patterns: []ChildPattern{{KindInner, KindInner, KindAny}, {KindInner, KindAny, KindInner}},
	Apply: func(n plan.Node) []plan.Node {
		var out []plan.Node
		if top, ok := asJoin(n, plan.InnerJoin); ok {
			if l, ok := asJoin(top.L, plan.InnerJoin); ok {
				// (A ⋈p B) ⋈q C → A ⋈p (B ⋈q C)
				if plan.RefsOnly(top.Pred, l.R, top.R) && refsBoth(top.Pred, l.R, top.R) &&
					plan.RefsSome(l.Pred, l.L) && plan.RefsSome(l.Pred, l.R, top.R) {
					out = append(out, plan.NewJoin(plan.InnerJoin, l.Pred, l.L,
						plan.NewJoin(plan.InnerJoin, top.Pred, l.R, top.R)))
				}
			}
			if r, ok := asJoin(top.R, plan.InnerJoin); ok {
				// A ⋈p (B ⋈q C) → (A ⋈p B) ⋈q C when p ⊆ A∪B.
				if plan.RefsOnly(top.Pred, top.L, r.L) && refsBoth(top.Pred, top.L, r.L) &&
					plan.RefsSome(r.Pred, top.L, r.L) && plan.RefsSome(r.Pred, r.R) {
					out = append(out, plan.NewJoin(plan.InnerJoin, r.Pred,
						plan.NewJoin(plan.InnerJoin, top.Pred, top.L, r.L), r.R))
				}
			}
		}
		return out
	},
}

// RuleAssocLeft is one-sided outer join associativity
// ([GALI92a]/[BHAR95a]; valid because predicates are null
// in-tolerant):
//
//	(A →p B) →q C = A →p (B →q C)   when q references only B ∪ C
//	                                 and references B
//
// in both directions (right-to-left requires p to reference only
// A ∪ B).
var RuleAssocLeft = Rule{
	Name:     "assoc-left",
	Scope:    ScopeChild,
	Patterns: []ChildPattern{{KindLeft, KindLeft, KindAny}, {KindLeft, KindAny, KindLeft}},
	Apply: func(n plan.Node) []plan.Node {
		var out []plan.Node
		if top, ok := asJoin(n, plan.LeftJoin); ok {
			if l, ok := asJoin(top.L, plan.LeftJoin); ok {
				// (A →p B) →q C with q ⊆ B∪C, q refs B → A →p (B →q C)
				if plan.RefsOnly(top.Pred, l.R, top.R) && refsBoth(top.Pred, l.R, top.R) {
					out = append(out, plan.NewJoin(plan.LeftJoin, l.Pred, l.L,
						plan.NewJoin(plan.LeftJoin, top.Pred, l.R, top.R)))
				}
				// (A →p B) →q C with q ⊆ A∪C → (A →q C) →p B
				if plan.RefsOnly(top.Pred, l.L, top.R) && refsBoth(top.Pred, l.L, top.R) {
					out = append(out, plan.NewJoin(plan.LeftJoin, l.Pred,
						plan.NewJoin(plan.LeftJoin, top.Pred, l.L, top.R), l.R))
				}
			}
			if r, ok := asJoin(top.R, plan.LeftJoin); ok {
				// A →p (B →q C) with p ⊆ A∪B → (A →p B) →q C
				if plan.RefsOnly(top.Pred, top.L, r.L) && refsBoth(top.Pred, top.L, r.L) {
					out = append(out, plan.NewJoin(plan.LeftJoin, r.Pred,
						plan.NewJoin(plan.LeftJoin, top.Pred, top.L, r.L), r.R))
				}
			}
		}
		return out
	},
}

// RuleJoinLOJ exchanges an inner join with a left outer join that
// preserves a common side:
//
//	(A →p B) ⋈q C = (A ⋈q C) →p B   when q references only A ∪ C
//
// in both directions. The inner join filters only A tuples, which
// commutes with padding unmatched A tuples on sch(B).
var RuleJoinLOJ = Rule{
	Name:  "join-loj",
	Scope: ScopeChild,
	Patterns: []ChildPattern{
		{KindInner, KindLeft, KindAny}, {KindLeft, KindInner, KindAny}, {KindInner, KindAny, KindLeft},
	},
	Apply: func(n plan.Node) []plan.Node {
		var out []plan.Node
		if top, ok := asJoin(n, plan.InnerJoin); ok {
			if l, ok := asJoin(top.L, plan.LeftJoin); ok {
				if plan.RefsOnly(top.Pred, l.L, top.R) && refsBoth(top.Pred, l.L, top.R) {
					out = append(out, plan.NewJoin(plan.LeftJoin, l.Pred,
						plan.NewJoin(plan.InnerJoin, top.Pred, l.L, top.R), l.R))
				}
			}
		}
		if top, ok := asJoin(n, plan.LeftJoin); ok {
			if l, ok := asJoin(top.L, plan.InnerJoin); ok {
				// (A ⋈q C) →p B → (A →p B) ⋈q C when p ⊆ A∪B.
				if plan.RefsOnly(top.Pred, l.L, top.R) && refsBoth(top.Pred, l.L, top.R) {
					out = append(out, plan.NewJoin(plan.InnerJoin, l.Pred,
						plan.NewJoin(plan.LeftJoin, top.Pred, l.L, top.R), l.R))
				}
				// (A ⋈q C) →p B with p ⊆ C∪B → A ⋈q (C →p B).
				if plan.RefsOnly(top.Pred, l.R, top.R) && refsBoth(top.Pred, l.R, top.R) {
					out = append(out, plan.NewJoin(plan.InnerJoin, l.Pred, l.L,
						plan.NewJoin(plan.LeftJoin, top.Pred, l.R, top.R)))
				}
			}
		}
		if top, ok := asJoin(n, plan.InnerJoin); ok {
			if r, ok := asJoin(top.R, plan.LeftJoin); ok {
				// A ⋈q (C →p B) = (A ⋈q C) →p B when q ⊆ A∪C.
				if plan.RefsOnly(top.Pred, top.L, r.L) && refsBoth(top.Pred, top.L, r.L) {
					out = append(out, plan.NewJoin(plan.LeftJoin, r.Pred,
						plan.NewJoin(plan.InnerJoin, top.Pred, top.L, r.L), r.R))
				}
			}
		}
		return out
	},
}

// RuleAssocFull is full outer join associativity
//
//	(A ↔p B) ↔q C = A ↔p (B ↔q C)
//
// valid when p references only A ∪ B, q references only B ∪ C, and
// both reference B (null in-tolerance then guarantees padded tuples
// never spuriously join) — [GALI92a].
var RuleAssocFull = Rule{
	Name:     "assoc-full",
	Scope:    ScopeChild,
	Patterns: []ChildPattern{{KindFull, KindFull, KindAny}, {KindFull, KindAny, KindFull}},
	Apply: func(n plan.Node) []plan.Node {
		var out []plan.Node
		if top, ok := asJoin(n, plan.FullJoin); ok {
			if l, ok := asJoin(top.L, plan.FullJoin); ok {
				if plan.RefsOnly(top.Pred, l.R, top.R) && refsBoth(top.Pred, l.R, top.R) &&
					plan.RefsOnly(l.Pred, l.L, l.R) {
					out = append(out, plan.NewJoin(plan.FullJoin, l.Pred, l.L,
						plan.NewJoin(plan.FullJoin, top.Pred, l.R, top.R)))
				}
			}
			if r, ok := asJoin(top.R, plan.FullJoin); ok {
				if plan.RefsOnly(top.Pred, top.L, r.L) && refsBoth(top.Pred, top.L, r.L) &&
					plan.RefsOnly(r.Pred, r.L, r.R) {
					out = append(out, plan.NewJoin(plan.FullJoin, r.Pred,
						plan.NewJoin(plan.FullJoin, top.Pred, top.L, r.L), r.R))
				}
			}
		}
		return out
	},
}

// RuleSelectPushdown moves selection conjuncts toward the relations
// they reference: into the inner join's predicate when they span both
// operands, below the operator when they reference only an operand
// that the operator does not NULL-pad (either side of an inner join,
// the preserved side of an outer join). Conjuncts over a
// null-supplying side stay put — removing padded rows is
// simplification's job, not pushdown's.
var RuleSelectPushdown = Rule{
	Name:     "select-pushdown",
	Scope:    ScopeChild,
	Patterns: []ChildPattern{{KindSelect, KindAnyJoin, KindAny}},
	Apply: func(n plan.Node) []plan.Node {
		sel, ok := n.(*plan.Select)
		if !ok {
			return nil
		}
		j, ok := sel.Input.(*plan.Join)
		if !ok {
			return nil
		}
		var toLeft, toRight, toJoin, stay []expr.Pred
		for _, c := range expr.Conjuncts(sel.Pred) {
			switch {
			case plan.RefsOnly(c, j.L) && (j.Kind == plan.InnerJoin || j.Kind == plan.LeftJoin):
				toLeft = append(toLeft, c)
			case plan.RefsOnly(c, j.R) && (j.Kind == plan.InnerJoin || j.Kind == plan.RightJoin):
				toRight = append(toRight, c)
			case j.Kind == plan.InnerJoin && refsBoth(c, j.L, j.R):
				toJoin = append(toJoin, c)
			default:
				stay = append(stay, c)
			}
		}
		if len(toLeft)+len(toRight)+len(toJoin) == 0 {
			return nil
		}
		l, r := j.L, j.R
		if len(toLeft) > 0 {
			l = plan.NewSelect(expr.And(toLeft...), l)
		}
		if len(toRight) > 0 {
			r = plan.NewSelect(expr.And(toRight...), r)
		}
		pred := j.Pred
		if len(toJoin) > 0 {
			pred = expr.And(append([]expr.Pred{pred}, toJoin...)...)
		}
		var out plan.Node = plan.NewJoin(j.Kind, pred, l, r)
		if len(stay) > 0 {
			out = plan.NewSelect(expr.And(stay...), out)
		}
		return []plan.Node{out}
	},
}

// RuleSelectMerge collapses stacked selections; canonical form for
// the dedup key and a prerequisite for further pushdown.
var RuleSelectMerge = Rule{
	Name:     "select-merge",
	Scope:    ScopeChild,
	Patterns: []ChildPattern{{KindSelect, KindSelect, KindAny}},
	Apply: func(n plan.Node) []plan.Node {
		outer, ok := n.(*plan.Select)
		if !ok {
			return nil
		}
		inner, ok := outer.Input.(*plan.Select)
		if !ok {
			return nil
		}
		return []plan.Node{plan.NewSelect(expr.And(outer.Pred, inner.Pred), inner.Input)}
	},
}

// RuleMGOJIntro introduces the modified generalized outer join of
// [BHAR95a], which the paper's Q4' reordering relies on: a one-sided
// outer join over an inner join has no plain reassociation that keeps
// the preserved side intact, but
//
//	A →p (B ⋈q C) = (A →p B) MGOJ_q[rels(A)] C   when p ⊆ A∪B
//	A →p (B ⋈q C) = (A →p C) MGOJ_q[rels(A)] B   when p ⊆ A∪C
//
// — join the outer-join result with the remaining input while
// re-preserving A's tuples that lose their match.
var RuleMGOJIntro = Rule{
	Name:     "mgoj-intro",
	Scope:    ScopeChild,
	Patterns: []ChildPattern{{KindLeft, KindAny, KindInner}},
	Apply: func(n plan.Node) []plan.Node {
		top, ok := asJoin(n, plan.LeftJoin)
		if !ok {
			return nil
		}
		inner, ok := asJoin(top.R, plan.InnerJoin)
		if !ok {
			return nil
		}
		specA := []plan.PreservedSpec{plan.NewPreserved(plan.BaseRels(top.L)...)}
		var out []plan.Node
		if plan.RefsOnly(top.Pred, top.L, inner.L) && refsBoth(top.Pred, top.L, inner.L) {
			out = append(out, plan.NewMGOJ(inner.Pred, specA,
				plan.NewJoin(plan.LeftJoin, top.Pred, top.L, inner.L), inner.R))
		}
		if plan.RefsOnly(top.Pred, top.L, inner.R) && refsBoth(top.Pred, top.L, inner.R) {
			out = append(out, plan.NewMGOJ(inner.Pred, specA,
				plan.NewJoin(plan.LeftJoin, top.Pred, top.L, inner.R), inner.L))
		}
		return out
	},
}

// RuleSplit implements the paper's predicate break-up: every entry of
// a pure join subtree's split table defers one conjunct to a
// compensating generalized selection per Theorem 1.
var RuleSplit = Rule{
	Name:  "split",
	Scope: ScopeGroup,
	Apply: func(n plan.Node) []plan.Node {
		var out []plan.Node
		for _, e := range SplitTable(n) {
			out = append(out, e.Apply(n))
		}
		return out
	},
}

// DefaultRules is the rule set the saturation engine uses: the
// paper's break-up rules plus the [BHAR95a]/[GALI92a] reassociation
// identities the paper builds on.
func DefaultRules() []Rule {
	return []Rule{
		RuleSelectPushdown,
		RuleSelectMerge,
		RuleCommute,
		RuleAssocInner,
		RuleAssocLeft,
		RuleJoinLOJ,
		RuleAssocFull,
		RuleMGOJIntro,
		RuleSplit,
	}
}

// BaselineRules is the rule set without predicate break-up — the
// state of the art the paper improves on ([BHAR95a] without
// generalized selection). Used by the baseline optimizer.
func BaselineRules() []Rule {
	return []Rule{
		RuleSelectPushdown,
		RuleSelectMerge,
		RuleCommute,
		RuleAssocInner,
		RuleAssocLeft,
		RuleJoinLOJ,
		RuleAssocFull,
	}
}

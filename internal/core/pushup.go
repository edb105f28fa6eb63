package core

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/schema"
)

// PushUpGroupBy implements the aggregation push-up of Example 3.1 /
// Section 4 ([BHAR95b]/[GUPT95]): a generalized projection below a
// binary operator is moved above it, which is the prerequisite for
// reordering queries whose predicates reference aggregated columns.
//
// Given j = GP(input) ⊙p other (or the mirrored form), with
// p = p' ∧ p_d where p_d is the set of conjuncts referencing the
// GP's generated columns:
//
//   - the new operator joins input with other on p' directly;
//   - the GP moves to the top, grouping additionally by every
//     attribute (real and virtual) of the other side, so each
//     original (group, partner) pair is one new group — the
//     π_{V3 r3 r1'r2', c=count(r1)} of Example 3.1;
//   - p_d is re-applied above the GP: with a plain selection when the
//     operator was an inner join, and with a generalized selection
//     preserving the operator's preserved side when it was an outer
//     join (the compensation of Theorem 1);
//   - when the GP sat on the null-supplying side, counts become
//     NULL-if-empty so NULL-padded groups reproduce the original
//     padding instead of a spurious zero (the [GANS87] count bug).
//
// Preconditions (checked): p' must reference only the GP's grouping
// columns on the GP side — otherwise groups do not join uniformly —
// and must still reference both operands.
func PushUpGroupBy(j *plan.Join, db plan.Database) (plan.Node, error) {
	if j.Kind == plan.FullJoin {
		return nil, fmt.Errorf("core: push-up through a full outer join is not supported")
	}
	gp, gpOnLeft := j.L.(*plan.GroupBy)
	if !gpOnLeft {
		var ok bool
		gp, ok = j.R.(*plan.GroupBy)
		if !ok {
			return nil, fmt.Errorf("core: neither operand of %s is a generalized projection", j.Kind)
		}
	}
	other := j.R
	if !gpOnLeft {
		other = j.L
	}

	// The GP is on the null-supplying side when the operator
	// preserves the opposite operand.
	nullSupplying := (j.Kind == plan.LeftJoin && !gpOnLeft) || (j.Kind == plan.RightJoin && gpOnLeft)
	preservedOther := j.Kind != plan.InnerJoin

	aggCols := make(map[schema.Attribute]bool, len(gp.Aggs))
	for _, a := range gp.Aggs {
		aggCols[a.Out] = true
	}
	keyCols := make(map[schema.Attribute]bool, len(gp.Keys))
	for _, k := range gp.Keys {
		keyCols[k] = true
	}

	var deferred, direct []expr.Pred
	for _, c := range expr.Conjuncts(j.Pred) {
		refsAgg := false
		for _, a := range c.Attrs(nil) {
			if aggCols[a] {
				refsAgg = true
				break
			}
		}
		if refsAgg {
			deferred = append(deferred, c)
			continue
		}
		// Direct conjuncts must touch the GP side only through its
		// grouping columns.
		gpInputRels := plan.BaseRelSet(gp.Input)
		for _, a := range c.Attrs(nil) {
			if (gpInputRels[a.Rel] || gpSideAttr(gp, a)) && !keyCols[a] {
				return nil, fmt.Errorf("core: conjunct %s references non-grouping column %s", c, a)
			}
		}
		direct = append(direct, c)
	}
	directPred := expr.And(direct...)
	otherRels := plan.BaseRelSet(other)
	gpRels := plan.BaseRelSet(gp.Input)
	if !expr.References(directPred, otherRels) || !expr.References(directPred, gpRels) {
		return nil, fmt.Errorf("core: remaining predicate %s does not reference both operands", directPred)
	}

	// New join: GP's input against other, same kind and operand
	// order.
	var newJoin *plan.Join
	if gpOnLeft {
		newJoin = plan.NewJoin(j.Kind, directPred, gp.Input, other)
	} else {
		newJoin = plan.NewJoin(j.Kind, directPred, other, gp.Input)
	}

	// New GP: original keys plus every attribute of the other side.
	otherSchema, err := other.Schema(db)
	if err != nil {
		return nil, err
	}
	keys := append([]schema.Attribute(nil), gp.Keys...)
	keys = append(keys, otherSchema.Attrs()...)
	aggs := make([]algebra.Aggregate, len(gp.Aggs))
	copy(aggs, gp.Aggs)
	if nullSupplying {
		for i := range aggs {
			switch aggs[i].Func {
			case algebra.Count, algebra.CountDistinct:
				aggs[i].NullIfEmpty = true
			case algebra.CountStar:
				// COUNT(*) would count the padded row itself; convert
				// to a count over a row identifier that is non-NULL
				// in exactly the real input rows.
				rid, ok := nonNullableRID(gp.Input)
				if !ok {
					return nil, fmt.Errorf("core: cannot convert count(*) of %s for null-supplying push-up", gp.Input)
				}
				aggs[i].Func = algebra.Count
				aggs[i].Arg = expr.Col{Attr: rid}
				aggs[i].NullIfEmpty = true
			}
		}
	}
	var out plan.Node = plan.NewGroupBy(keys, aggs, newJoin)

	if len(deferred) > 0 {
		defPred := expr.And(deferred...)
		if !preservedOther && !nullSupplying && j.Kind == plan.InnerJoin {
			out = plan.NewSelect(defPred, out)
		} else {
			// Preserve the operator's preserved side: the GP side for
			// a left join over GP (Example 3.1), the other side when
			// the GP was null-supplying (Example 1.1).
			var spec plan.PreservedSpec
			if nullSupplying {
				spec = plan.NewPreserved(sortedRels(otherRels)...)
			} else {
				// The preserved relation is the GP's own output:
				// group columns plus the generated aggregate columns,
				// which are functionally determined by the group and
				// must survive on padded rows exactly as the original
				// outer join kept them.
				names := relsOfAttrs(gp.Keys)
				for _, a := range gp.Aggs {
					names = append(names, a.Out.Rel)
				}
				spec = plan.NewPreserved(dedupeStrings(names)...)
			}
			out = plan.NewGenSel(defPred, []plan.PreservedSpec{spec}, out)
		}
	} else if j.Kind == plan.InnerJoin {
		// Nothing deferred and nothing to compensate.
	}
	return out, nil
}

// PushUpRule wraps PushUpGroupBy as a saturation rule, so the pull-up
// composes with the join reorderings: an aggregation that becomes
// adjacent to a join only after a rewrite (Query 1's r4 join) still
// gets pulled. The database is needed to resolve the join partner's
// schema for the widened grouping key.
func PushUpRule(db plan.Database) Rule {
	return Rule{
		Name:     "push-up-aggregation",
		Scope:    ScopeChild,
		Patterns: []ChildPattern{{kindAnyJoin, kindGroupBy, kindAny}, {kindAnyJoin, kindAny, kindGroupBy}},
		Apply: func(n plan.Node) []plan.Node {
			j, ok := n.(*plan.Join)
			if !ok {
				return nil
			}
			// Saturation binds every tree, and nearly none has an
			// aggregation to pull; say so before PushUpGroupBy formats an
			// error about it.
			_, gpL := j.L.(*plan.GroupBy)
			_, gpR := j.R.(*plan.GroupBy)
			if !gpL && !gpR {
				return nil
			}
			alt, err := PushUpGroupBy(j, db)
			if err != nil {
				return nil
			}
			return []plan.Node{alt}
		},
	}
}

// nonNullableRID finds the virtual row identifier of a base relation
// that is non-NULL in every row of n's output: a relation on the
// preserved spine of n's operator tree.
func nonNullableRID(n plan.Node) (schema.Attribute, bool) {
	switch m := n.(type) {
	case *plan.Scan:
		return schema.RID(m.Rel), true
	case *plan.Join:
		switch m.Kind {
		case plan.InnerJoin:
			if rid, ok := nonNullableRID(m.L); ok {
				return rid, true
			}
			return nonNullableRID(m.R)
		case plan.LeftJoin:
			return nonNullableRID(m.L)
		case plan.RightJoin:
			return nonNullableRID(m.R)
		}
	case *plan.Select:
		return nonNullableRID(m.Input)
	}
	return schema.Attribute{}, false
}

// gpSideAttr reports whether a is produced by the generalized
// projection (one of its keys or generated columns).
func gpSideAttr(gp *plan.GroupBy, a schema.Attribute) bool {
	for _, k := range gp.Keys {
		if k == a {
			return true
		}
	}
	for _, g := range gp.Aggs {
		if g.Out == a {
			return true
		}
	}
	return false
}

func relsOfAttrs(attrs []schema.Attribute) []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range attrs {
		if !seen[a.Rel] {
			seen[a.Rel] = true
			out = append(out, a.Rel)
		}
	}
	return out
}

func dedupeStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func sortedRels(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	return out
}

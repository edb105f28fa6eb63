package core

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// CountFilter is one correlated filter "LHS θ (SELECT COUNT(*) FROM
// Sub.Rel WHERE Sub.Corr …)" as in the join-aggregate queries of
// Section 1.1. LHS may reference any enclosing query block.
type CountFilter struct {
	LHS expr.Scalar
	Op  value.CmpOp
	Sub *CountQuery
}

// CountQuery is a correlated COUNT(*) subquery block: scan Rel, keep
// the tuples satisfying Corr (which may reference enclosing blocks)
// and every nested CountFilter, and return how many survive.
type CountQuery struct {
	Rel     string
	Corr    expr.Pred
	Filters []CountFilter
}

// JoinAggregateQuery is the outermost block of a nested
// join-aggregate query:
//
//	SELECT Proj FROM Rel WHERE Local AND <Filters>
//
// mirroring the Section 1.1 example
//
//	Select r1.a From r1
//	Where r1.b θ1 (Select count(*) From r2
//	               Where r2.c = r1.c and r2.d θ2 (Select count(*) From r3
//	                                              Where r2.e = r3.e and r1.f = r3.f))
type JoinAggregateQuery struct {
	Rel     string
	Proj    []schema.Attribute
	Local   expr.Pred // optional uncorrelated predicate; nil means true
	Filters []CountFilter
}

// TIS evaluates the query with Tuple Iteration Semantics — the
// nested-loops strategy Section 1.1 attributes to the majority of
// commercial RDBMS: for every outer tuple, each correlated subquery
// is re-evaluated from scratch. It is the reference semantics the
// unnested plan must match, and the baseline of experiment E8. Each
// relation is boxed once per call (tisRows) and re-scanned from there.
func (q *JoinAggregateQuery) TIS(db plan.Database) (*relation.Relation, error) {
	outer, ok := db[q.Rel]
	if !ok {
		return nil, fmt.Errorf("core: unknown relation %q", q.Rel)
	}
	out := relation.New(schema.New(q.Proj...))
	idx := make([]int, len(q.Proj))
	for i, a := range q.Proj {
		idx[i] = outer.Schema().IndexOf(a)
		if idx[i] < 0 {
			return nil, fmt.Errorf("core: projection %s not in %q", a, q.Rel)
		}
	}
	rows := tisRows{db: db, boxed: map[string][]relation.Tuple{}}
	for _, t := range outer.Tuples() {
		env := expr.TupleEnv{Schema: outer.Schema(), Tuple: t}
		if q.Local != nil && !q.Local.Eval(env).Holds() {
			continue
		}
		ok, err := rows.filters(q.Filters, env)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		row := make(relation.Tuple, len(idx))
		for i, j := range idx {
			row[i] = t[j]
		}
		out.Append(row)
	}
	return out, nil
}

// tisRows is one TIS evaluation's view of db: each relation's rows,
// boxed the first time a subquery scans it.
type tisRows struct {
	db    plan.Database
	boxed map[string][]relation.Tuple
}

func (tr tisRows) filters(filters []CountFilter, env expr.Env) (bool, error) {
	for _, f := range filters {
		cnt, err := tr.count(f.Sub, env)
		if err != nil {
			return false, err
		}
		lhs := f.LHS.Eval(env)
		if !value.Apply(f.Op, lhs, value.NewInt(cnt)).Holds() {
			return false, nil
		}
	}
	return true, nil
}

func (tr tisRows) count(cq *CountQuery, outerEnv expr.Env) (int64, error) {
	rel, ok := tr.db[cq.Rel]
	if !ok {
		return 0, fmt.Errorf("core: unknown relation %q", cq.Rel)
	}
	ts, ok := tr.boxed[cq.Rel]
	if !ok {
		ts = rel.Tuples()
		tr.boxed[cq.Rel] = ts
	}
	var n int64
	for _, t := range ts {
		env := expr.ChainEnv{
			Inner: expr.TupleEnv{Schema: rel.Schema(), Tuple: t},
			Outer: outerEnv,
		}
		if cq.Corr != nil && !cq.Corr.Eval(env).Holds() {
			continue
		}
		ok, err := tr.filters(cq.Filters, env)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue
		}
		n++
	}
	return n, nil
}

// Unnest rewrites a tree of correlated COUNT subqueries into the
// outer-join + group-by form of [GANS87]/[MURA92] (Queries 2 and 3 of
// Section 1.1), with one refinement: the HAVING step of every
// non-outermost level is a *generalized selection* preserving the
// enclosing relations, which closes the classic count bug — tuples
// all of whose partners fail a θ filter survive NULL-padded, so the
// next level counts them as zero exactly as tuple iteration semantics
// does. This is the paper's point that GS is the primitive that makes
// such plans (and their reorderings) expressible.
//
// Filters may nest arbitrarily and a block may carry several filters;
// each is attached, recursively unnested, collapsed with a per-group
// count and filtered in sequence.
func (q *JoinAggregateQuery) Unnest(db plan.Database) (plan.Node, error) {
	var node plan.Node = plan.NewScan(q.Rel)
	if q.Local != nil {
		node = plan.NewSelect(q.Local, node)
	}
	u := &unnester{db: db}
	node, err := u.block(node, []string{q.Rel}, q.Filters, true)
	if err != nil {
		return nil, err
	}
	return plan.NewProject(q.Proj, false, node), nil
}

type unnester struct {
	db  plan.Database
	seq int
}

// block processes the filters of one query block. node carries the
// block's (and its ancestors') attributes; enclosing lists the
// relations whose rows must survive failing filters (everything up to
// and including the block's own relation). top marks the outermost
// block, whose comparisons filter outright (Query 3's HAVING).
func (u *unnester) block(node plan.Node, enclosing []string, filters []CountFilter, top bool) (plan.Node, error) {
	for _, f := range filters {
		if f.Sub == nil {
			return nil, fmt.Errorf("core: filter without a subquery")
		}
		if f.Sub.Corr == nil {
			return nil, fmt.Errorf("core: count subquery over %q has no correlation predicate", f.Sub.Rel)
		}
		sub := f.Sub.Rel
		// The grouping keys of this filter's collapse are exactly the
		// attributes in scope before the subquery attaches: one row
		// per (enclosing entity, partner) pair. Columns generated
		// inside the recursion below are per-partner values and must
		// not become keys.
		before, err := node.Schema(u.db)
		if err != nil {
			return nil, err
		}
		keys := before.Attrs()
		// Attach the subquery's relation with its correlation
		// predicate (possibly complex, as in Section 1.1's
		// r2.e = r3.e and r1.f = r3.f).
		node = plan.NewJoin(plan.LeftJoin, f.Sub.Corr, node, plan.NewScan(sub))
		// Recursively unnest the subquery's own filters; within them
		// the subquery's relation is also enclosing.
		inner, err := u.block(node, append(append([]string(nil), enclosing...), sub), f.Sub.Filters, false)
		if err != nil {
			return nil, err
		}
		node = inner
		u.seq++
		cntAttr := schema.Attr(fmt.Sprintf("q%d", u.seq), "cnt")
		node = plan.NewGroupBy(keys, []algebra.Aggregate{
			{Func: algebra.Count, Arg: expr.Col{Attr: schema.RID(sub)}, Out: cntAttr},
		}, node)
		having := expr.Cmp{Op: f.Op, L: f.LHS, R: expr.Col{Attr: cntAttr}}
		if top {
			// Outermost comparison: a plain selection, as in Query 3.
			node = plan.NewSelect(having, node)
		} else {
			// Preserve the enclosing relations so failing groups
			// NULL-pad instead of disappearing (count-bug
			// compensation). The block's own relation is excluded:
			// a partner failing the filter must not count.
			spec := plan.NewPreserved(enclosing[:len(enclosing)-1]...)
			node = plan.NewGenSel(having, []plan.PreservedSpec{spec}, node)
		}
	}
	return node, nil
}

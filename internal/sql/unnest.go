package sql

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/value"
)

// lowerJoinAggregate handles SELECT blocks whose WHERE clause
// contains correlated COUNT subqueries (the join-aggregate queries of
// Section 1.1). The block is modelled as a core.JoinAggregateQuery
// and unnested into the outer-join + group-by + generalized-selection
// plan, instead of the tuple-iteration-semantics evaluation a naive
// engine would use.
func (l *lowerer) lowerJoinAggregate(stmt *SelectStmt, parent *scope, top bool) (*lowered, error) {
	if len(stmt.From) != 1 || stmt.From[0].Sub != nil {
		return nil, fmt.Errorf("sql: correlated COUNT unnesting requires a single base table in FROM")
	}
	if stmt.Distinct || len(stmt.GroupBy) > 0 || stmt.Having != nil {
		return nil, fmt.Errorf("sql: correlated COUNT unnesting does not support DISTINCT/GROUP BY/HAVING")
	}
	alias := stmt.From[0].As
	if alias == "" {
		alias = stmt.From[0].Table
	}
	if alias != stmt.From[0].Table {
		return nil, fmt.Errorf("sql: table aliases are not supported in unnested blocks")
	}
	sc := newScope(parent)
	cols, err := l.baseCols(stmt.From[0].Table, alias)
	if err != nil {
		return nil, err
	}
	if err := sc.add(alias, cols); err != nil {
		return nil, err
	}

	q := &core.JoinAggregateQuery{Rel: stmt.From[0].Table}
	out := &lowered{cols: make(map[string]schema.Attribute)}
	for _, it := range stmt.Items {
		c, ok := it.Expr.(ColRef)
		if !ok || it.Star {
			return nil, fmt.Errorf("sql: unnested blocks support plain column projections only")
		}
		a, err := sc.resolve(c)
		if err != nil {
			return nil, err
		}
		q.Proj = append(q.Proj, a)
		name := it.As
		if name == "" {
			name = c.Column
		}
		out.cols[name] = a
		out.order = append(out.order, name)
	}

	local, filters, err := l.splitCountFilters(stmt.Where, sc)
	if err != nil {
		return nil, err
	}
	q.Local = local
	q.Filters = filters

	node, err := q.Unnest(l.db)
	if err != nil {
		return nil, err
	}
	out.node = node
	return out, nil
}

// splitCountFilters partitions a WHERE expression into plain
// conjuncts (returned as one predicate) and correlated COUNT filters.
func (l *lowerer) splitCountFilters(e Expr, sc *scope) (expr.Pred, []core.CountFilter, error) {
	var plain []expr.Pred
	var filters []core.CountFilter
	var walk func(e Expr) error
	walk = func(e Expr) error {
		b, ok := e.(binExpr)
		if !ok {
			return fmt.Errorf("sql: expected predicate, got %s", e)
		}
		if b.Op == "and" {
			if err := walk(b.L); err != nil {
				return err
			}
			return walk(b.R)
		}
		lSub, lIsSub := b.L.(subqueryExpr)
		rSub, rIsSub := b.R.(subqueryExpr)
		switch {
		case lIsSub && rIsSub:
			return fmt.Errorf("sql: comparing two subqueries is not supported")
		case rIsSub:
			f, err := l.lowerCountFilter(b.L, b.Op, rSub.Stmt, sc, false)
			if err != nil {
				return err
			}
			filters = append(filters, f)
		case lIsSub:
			f, err := l.lowerCountFilter(b.R, b.Op, lSub.Stmt, sc, true)
			if err != nil {
				return err
			}
			filters = append(filters, f)
		default:
			p, err := l.lowerPred(b, sc, nil)
			if err != nil {
				return err
			}
			plain = append(plain, p)
		}
		return nil
	}
	if e != nil {
		if err := walk(e); err != nil {
			return nil, nil, err
		}
	}
	if len(plain) == 0 {
		return nil, filters, nil
	}
	return expr.And(plain...), filters, nil
}

// lowerCountFilter lowers "lhs θ (SELECT count(*) FROM …)" (flip set
// when the subquery was on the left).
func (l *lowerer) lowerCountFilter(lhs Expr, op string, sub *SelectStmt, sc *scope, flip bool) (core.CountFilter, error) {
	var f core.CountFilter
	s, err := l.lowerScalar(lhs, sc, nil)
	if err != nil {
		return f, err
	}
	f.LHS = s
	cmp, err := cmpOpOf(op)
	if err != nil {
		return f, err
	}
	if flip {
		cmp = cmp.Flip()
	}
	f.Op = cmp
	cq, err := l.lowerCountQuery(sub, sc)
	if err != nil {
		return f, err
	}
	f.Sub = cq
	return f, nil
}

// lowerCountQuery lowers one COUNT(*) subquery block.
func (l *lowerer) lowerCountQuery(stmt *SelectStmt, parent *scope) (*core.CountQuery, error) {
	if len(stmt.Items) != 1 || stmt.Items[0].Star {
		return nil, fmt.Errorf("sql: count subquery must select exactly count(*)")
	}
	call, ok := stmt.Items[0].Expr.(aggCall)
	if !ok || call.Func != "count" || !call.Star {
		return nil, fmt.Errorf("sql: count subquery must select count(*), got %s", stmt.Items[0].Expr)
	}
	if len(stmt.From) != 1 || stmt.From[0].Sub != nil || len(stmt.GroupBy) > 0 {
		return nil, fmt.Errorf("sql: count subquery must scan a single base table")
	}
	alias := stmt.From[0].As
	if alias != "" && alias != stmt.From[0].Table {
		return nil, fmt.Errorf("sql: table aliases are not supported in count subqueries")
	}
	table := stmt.From[0].Table
	sc := newScope(parent)
	cols, err := l.baseCols(table, table)
	if err != nil {
		return nil, err
	}
	if err := sc.add(table, cols); err != nil {
		return nil, err
	}
	corr, filters, err := l.splitCountFilters(stmt.Where, sc)
	if err != nil {
		return nil, err
	}
	return &core.CountQuery{Rel: table, Corr: corr, Filters: filters}, nil
}

func cmpOpOf(op string) (value.CmpOp, error) {
	switch op {
	case "=":
		return value.EQ, nil
	case "<>":
		return value.NE, nil
	case "<":
		return value.LT, nil
	case "<=":
		return value.LE, nil
	case ">":
		return value.GT, nil
	case ">=":
		return value.GE, nil
	}
	return 0, fmt.Errorf("sql: unsupported comparison %q", op)
}

// ParseAndLower is the one-call front door: parse SQL and lower it to
// a logical plan against db.
func ParseAndLower(query string, db plan.Database) (plan.Node, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Lower(stmt, db)
}

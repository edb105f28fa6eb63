package sql

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/value"
)

// Lower translates a parsed SELECT into a logical plan over db's
// schemas. Derived tables are merged (their columns resolve through
// to the underlying attributes rather than being hidden behind an
// opaque boundary), aggregated views become generalized projections,
// and correlated COUNT subqueries in WHERE are unnested via
// core.JoinAggregateQuery into the outer-join + group-by +
// generalized-selection form of Section 1.1.
func Lower(stmt *SelectStmt, db plan.Database) (plan.Node, error) {
	l := &lowerer{db: db}
	out, err := l.lowerBlock(stmt, nil, true)
	if err != nil {
		return nil, err
	}
	return out.node, nil
}

// lowered is a lowered SELECT block: its plan plus the mapping from
// output column names to underlying attributes.
type lowered struct {
	node plan.Node
	cols map[string]schema.Attribute
	// order preserves the select-list order for projections.
	order []string
}

type lowerer struct {
	db      plan.Database
	aggSeq  int
	blockID int
}

// scope resolves column references against the relations in view.
type scope struct {
	byQual map[string]map[string]schema.Attribute
	order  []string
	parent *scope
}

func newScope(parent *scope) *scope {
	return &scope{byQual: make(map[string]map[string]schema.Attribute), parent: parent}
}

func (s *scope) add(alias string, cols map[string]schema.Attribute) error {
	if _, dup := s.byQual[alias]; dup {
		return fmt.Errorf("sql: duplicate relation name %q in FROM", alias)
	}
	s.byQual[alias] = cols
	s.order = append(s.order, alias)
	return nil
}

// resolve maps a column reference to an attribute, searching enclosing
// scopes for correlated references.
func (s *scope) resolve(c ColRef) (schema.Attribute, error) {
	for sc := s; sc != nil; sc = sc.parent {
		if c.Qualifier != "" {
			if cols, ok := sc.byQual[c.Qualifier]; ok {
				if a, ok := cols[c.Column]; ok {
					return a, nil
				}
				return schema.Attribute{}, fmt.Errorf("sql: relation %q has no column %q", c.Qualifier, c.Column)
			}
			continue
		}
		var found schema.Attribute
		matches := 0
		for _, alias := range sc.order {
			if a, ok := sc.byQual[alias][c.Column]; ok {
				found = a
				matches++
			}
		}
		if matches > 1 {
			return schema.Attribute{}, fmt.Errorf("sql: ambiguous column %q", c.Column)
		}
		if matches == 1 {
			return found, nil
		}
	}
	return schema.Attribute{}, fmt.Errorf("sql: unknown column %s", c)
}

// baseCols lists a base relation's real columns, requalified by the
// alias.
func (l *lowerer) baseCols(table, alias string) (map[string]schema.Attribute, error) {
	rel, ok := l.db[table]
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", table)
	}
	cols := make(map[string]schema.Attribute)
	s := rel.Schema()
	for i := 0; i < s.Len(); i++ {
		a := s.At(i)
		if a.Virtual {
			continue
		}
		cols[a.Col] = schema.Attr(alias, a.Col)
	}
	return cols, nil
}

// lowerBlock lowers one SELECT block. top marks the outermost block,
// which gets a final projection; derived blocks stay unprojected so
// the enclosing query can reorder across them (view merging).
func (l *lowerer) lowerBlock(stmt *SelectStmt, parent *scope, top bool) (*lowered, error) {
	l.blockID++
	sc := newScope(parent)

	// Correlated-count unnesting path: WHERE contains a subquery.
	if containsSubquery(stmt.Where) {
		return l.lowerJoinAggregate(stmt, parent, top)
	}

	// FROM clause.
	var node plan.Node
	var commaItems []plan.Node
	for _, f := range stmt.From {
		var itemNode plan.Node
		alias := f.As
		if f.Sub != nil {
			sub, err := l.lowerBlock(f.Sub, parent, false)
			if err != nil {
				return nil, err
			}
			cols := make(map[string]schema.Attribute, len(sub.cols))
			for k, v := range sub.cols {
				cols[k] = v
			}
			if err := sc.add(alias, cols); err != nil {
				return nil, err
			}
			itemNode = sub.node
		} else {
			if alias == "" {
				alias = f.Table
			}
			cols, err := l.baseCols(f.Table, alias)
			if err != nil {
				return nil, err
			}
			if err := sc.add(alias, cols); err != nil {
				return nil, err
			}
			if alias == f.Table {
				itemNode = plan.NewScan(f.Table)
			} else {
				itemNode = plan.NewScanAs(f.Table, alias)
			}
		}
		switch {
		case f.Join.Kind != "":
			on, err := l.lowerPred(f.Join.On, sc, nil)
			if err != nil {
				return nil, err
			}
			kind := map[string]plan.JoinKind{
				"join": plan.InnerJoin, "left": plan.LeftJoin,
				"right": plan.RightJoin, "full": plan.FullJoin,
			}[f.Join.Kind]
			if node == nil {
				return nil, fmt.Errorf("sql: JOIN without a left-hand side")
			}
			node = plan.NewJoin(kind, on, node, itemNode)
		case node == nil:
			node = itemNode
		default:
			commaItems = append(commaItems, itemNode)
		}
	}

	// WHERE: split conjuncts into join predicates (for comma-joined
	// items) and filters.
	var filters []expr.Pred
	if stmt.Where != nil {
		p, err := l.lowerPred(stmt.Where, sc, nil)
		if err != nil {
			return nil, err
		}
		filters = expr.Conjuncts(p)
	}
	node, filters = attachCommaJoins(node, commaItems, filters)
	// Push single-subtree filters onto the tree top (the optimizer's
	// rules handle further movement).
	if rest := expr.And(filters...); !isTrue(rest) {
		node = plan.NewSelect(rest, node)
	}

	// SELECT list and aggregation.
	return l.finishBlock(stmt, sc, node, top)
}

// attachCommaJoins greedily joins comma-separated FROM items using
// the WHERE conjuncts that connect them, leaving the used conjuncts
// out of the returned filter list.
func attachCommaJoins(node plan.Node, items []plan.Node, filters []expr.Pred) (plan.Node, []expr.Pred) {
	remaining := append([]plan.Node(nil), items...)
	for len(remaining) > 0 {
		attached := false
		for i, item := range remaining {
			cur := plan.BaseRelSet(node)
			itemRels := plan.BaseRelSet(item)
			var joinPreds, rest []expr.Pred
			for _, f := range filters {
				rels := expr.RelSet(f)
				refsCur, refsItem, refsOther := false, false, false
				for r := range rels {
					switch {
					case cur[r]:
						refsCur = true
					case itemRels[r]:
						refsItem = true
					default:
						refsOther = true
					}
				}
				if refsCur && refsItem && !refsOther {
					joinPreds = append(joinPreds, f)
				} else {
					rest = append(rest, f)
				}
			}
			if len(joinPreds) > 0 {
				node = plan.NewJoin(plan.InnerJoin, expr.And(joinPreds...), node, item)
				filters = rest
				remaining = append(remaining[:i], remaining[i+1:]...)
				attached = true
				break
			}
		}
		if !attached {
			// No connecting predicate: cartesian product via an
			// always-true join (kept as a filterless inner join).
			node = plan.NewJoin(plan.InnerJoin, expr.True{}, node, remaining[0])
			remaining = remaining[1:]
		}
	}
	return node, filters
}

// finishBlock applies grouping, HAVING, projection and DISTINCT.
func (l *lowerer) finishBlock(stmt *SelectStmt, sc *scope, node plan.Node, top bool) (*lowered, error) {
	hasAgg := false
	for _, it := range stmt.Items {
		if _, ok := it.Expr.(AggCall); ok {
			hasAgg = true
		}
	}
	out := &lowered{cols: make(map[string]schema.Attribute)}

	if hasAgg || len(stmt.GroupBy) > 0 {
		var keys []schema.Attribute
		for _, g := range stmt.GroupBy {
			a, err := sc.resolve(g)
			if err != nil {
				return nil, err
			}
			keys = append(keys, a)
		}
		var aggs []algebra.Aggregate
		addAgg := func(call AggCall, name string) (schema.Attribute, error) {
			l.aggSeq++
			outAttr := schema.Attr(fmt.Sprintf("q%d", l.blockID), name)
			agg := algebra.Aggregate{Out: outAttr}
			switch {
			case call.Func == "count" && call.Star:
				agg.Func = algebra.CountStar
			case call.Func == "count" && call.Distinct:
				agg.Func = algebra.CountDistinct
			case call.Func == "count":
				agg.Func = algebra.Count
			case call.Func == "sum" && call.Distinct:
				agg.Func = algebra.SumDistinct
			case call.Func == "sum":
				agg.Func = algebra.Sum
			case call.Func == "min":
				agg.Func = algebra.Min
			case call.Func == "max":
				agg.Func = algebra.Max
			case call.Func == "avg" && call.Distinct:
				agg.Func = algebra.AvgDistinct
			case call.Func == "avg":
				agg.Func = algebra.Avg
			default:
				return schema.Attribute{}, fmt.Errorf("sql: unsupported aggregate %q", call.Func)
			}
			if call.Arg != nil {
				s, err := l.lowerScalar(call.Arg, sc, nil)
				if err != nil {
					return schema.Attribute{}, err
				}
				agg.Arg = s
			}
			aggs = append(aggs, agg)
			return outAttr, nil
		}
		// Select list: group keys and aggregates.
		for _, it := range stmt.Items {
			if it.Star {
				return nil, fmt.Errorf("sql: SELECT * is not valid with GROUP BY")
			}
			switch e := it.Expr.(type) {
			case AggCall:
				name := it.As
				if name == "" {
					name = fmt.Sprintf("%s_%d", e.Func, l.aggSeq+1)
				}
				a, err := addAgg(e, name)
				if err != nil {
					return nil, err
				}
				out.cols[name] = a
				out.order = append(out.order, name)
			case ColRef:
				a, err := sc.resolve(e)
				if err != nil {
					return nil, err
				}
				if !attrIn(keys, a) {
					return nil, fmt.Errorf("sql: column %s is not in GROUP BY", e)
				}
				name := it.As
				if name == "" {
					name = e.Column
				}
				out.cols[name] = a
				out.order = append(out.order, name)
			default:
				return nil, fmt.Errorf("sql: unsupported select item %s with GROUP BY", it.Expr)
			}
		}
		// HAVING may introduce further aggregates.
		var having expr.Pred
		if stmt.Having != nil {
			p, err := l.lowerPredWithAggs(stmt.Having, sc, addAgg)
			if err != nil {
				return nil, err
			}
			having = p
		}
		node = plan.NewGroupBy(keys, aggs, node)
		if having != nil {
			node = plan.NewSelect(having, node)
		}
	} else {
		// Plain select list: column references only.
		for _, it := range stmt.Items {
			if it.Star {
				for _, alias := range sc.order {
					cols := sc.byQual[alias]
					names := make([]string, 0, len(cols))
					for col := range cols {
						names = append(names, col)
					}
					sort.Strings(names) // map order would make SELECT * differ from run to run
					for _, col := range names {
						a := cols[col]
						name := col
						if _, dup := out.cols[name]; dup {
							name = alias + "_" + col
						}
						out.cols[name] = a
						out.order = append(out.order, name)
					}
				}
				continue
			}
			c, ok := it.Expr.(ColRef)
			if !ok {
				return nil, fmt.Errorf("sql: unsupported select item %s (only columns and aggregates)", it.Expr)
			}
			a, err := sc.resolve(c)
			if err != nil {
				return nil, err
			}
			name := it.As
			if name == "" {
				name = c.Column
			}
			if _, dup := out.cols[name]; dup {
				return nil, fmt.Errorf("sql: duplicate output column %q (add AS aliases)", name)
			}
			out.cols[name] = a
			out.order = append(out.order, name)
		}
	}

	if stmt.Distinct {
		attrs := make([]schema.Attribute, 0, len(out.order))
		for _, name := range out.order {
			attrs = append(attrs, out.cols[name])
		}
		node = plan.NewGroupBy(attrs, nil, node)
	} else if top {
		attrs := make([]schema.Attribute, 0, len(out.order))
		for _, name := range out.order {
			attrs = append(attrs, out.cols[name])
		}
		node = plan.NewProject(attrs, false, node)
	}
	if len(stmt.OrderBy) > 0 || stmt.Limit >= 0 {
		if !top {
			return nil, fmt.Errorf("sql: ORDER BY / LIMIT only at the outermost query")
		}
		var keys []plan.SortKey
		for _, o := range stmt.OrderBy {
			a, err := out.resolveOutput(o.Col, sc)
			if err != nil {
				return nil, err
			}
			keys = append(keys, plan.SortKey{Attr: a, Desc: o.Desc})
		}
		// Tag the root sort as query-required: the optimizer's memo
		// path strips a limitless one into a physical order property
		// and may satisfy it without any sort at all.
		node = plan.NewSortOrigin(keys, stmt.Limit, node, plan.SortOriginQuery)
	}
	out.node = node
	return out, nil
}

// resolveOutput maps an ORDER BY column to an attribute of the final
// projection: output aliases first, then scope resolution, in both
// cases requiring membership in the projected columns.
func (lo *lowered) resolveOutput(c ColRef, sc *scope) (schema.Attribute, error) {
	if c.Qualifier == "" {
		if a, ok := lo.cols[c.Column]; ok {
			return a, nil
		}
	}
	a, err := sc.resolve(c)
	if err != nil {
		return schema.Attribute{}, err
	}
	for _, name := range lo.order {
		if lo.cols[name] == a {
			return a, nil
		}
	}
	return schema.Attribute{}, fmt.Errorf("sql: ORDER BY column %s is not in the select list", c)
}

func attrIn(attrs []schema.Attribute, a schema.Attribute) bool {
	for _, x := range attrs {
		if x == a {
			return true
		}
	}
	return false
}

func isTrue(p expr.Pred) bool {
	_, ok := p.(expr.True)
	return ok
}

// lowerScalar lowers a scalar expression; aggOut, when non-nil, maps
// aggregate calls encountered in HAVING to generated columns.
func (l *lowerer) lowerScalar(e Expr, sc *scope, aggOut func(AggCall, string) (schema.Attribute, error)) (expr.Scalar, error) {
	switch x := e.(type) {
	case ColRef:
		a, err := sc.resolve(x)
		if err != nil {
			return nil, err
		}
		return expr.Col{Attr: a}, nil
	case Lit:
		return expr.Const{Val: x.Val}, nil
	case Param:
		return expr.Param{Idx: x.Idx}, nil
	case AggCall:
		if aggOut == nil {
			return nil, fmt.Errorf("sql: aggregate %s not allowed here", x)
		}
		l.aggSeq++
		a, err := aggOut(x, fmt.Sprintf("%s_%d", x.Func, l.aggSeq))
		if err != nil {
			return nil, err
		}
		return expr.Col{Attr: a}, nil
	case BinExpr:
		var op expr.ArithOp
		switch x.Op {
		case "+":
			op = expr.Add
		case "-":
			op = expr.Sub
		case "*":
			op = expr.Mul
		case "/":
			op = expr.Div
		default:
			return nil, fmt.Errorf("sql: %q is not a scalar operator", x.Op)
		}
		lh, err := l.lowerScalar(x.L, sc, aggOut)
		if err != nil {
			return nil, err
		}
		rh, err := l.lowerScalar(x.R, sc, aggOut)
		if err != nil {
			return nil, err
		}
		return expr.Arith{Op: op, L: lh, R: rh}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported scalar expression %s", e)
	}
}

// lowerPred lowers a boolean expression into a conjunctive predicate.
func (l *lowerer) lowerPred(e Expr, sc *scope, aggOut func(AggCall, string) (schema.Attribute, error)) (expr.Pred, error) {
	if u, ok := e.(UnaryExpr); ok && u.Op == "not" {
		inner, err := l.lowerPred(u.E, sc, aggOut)
		if err != nil {
			return nil, err
		}
		return expr.Not{P: inner}, nil
	}
	b, ok := e.(BinExpr)
	if !ok {
		return nil, fmt.Errorf("sql: expected a predicate, got %s", e)
	}
	if b.Op == "or" {
		lp, err := l.lowerPred(b.L, sc, aggOut)
		if err != nil {
			return nil, err
		}
		rp, err := l.lowerPred(b.R, sc, aggOut)
		if err != nil {
			return nil, err
		}
		return expr.Or(lp, rp), nil
	}
	if b.Op == "and" {
		lp, err := l.lowerPred(b.L, sc, aggOut)
		if err != nil {
			return nil, err
		}
		rp, err := l.lowerPred(b.R, sc, aggOut)
		if err != nil {
			return nil, err
		}
		return expr.And(lp, rp), nil
	}
	var op value.CmpOp
	switch b.Op {
	case "=":
		op = value.EQ
	case "<>":
		op = value.NE
	case "<":
		op = value.LT
	case "<=":
		op = value.LE
	case ">":
		op = value.GT
	case ">=":
		op = value.GE
	default:
		return nil, fmt.Errorf("sql: unsupported predicate operator %q", b.Op)
	}
	lh, err := l.lowerScalar(b.L, sc, aggOut)
	if err != nil {
		return nil, err
	}
	rh, err := l.lowerScalar(b.R, sc, aggOut)
	if err != nil {
		return nil, err
	}
	return expr.Cmp{Op: op, L: lh, R: rh}, nil
}

// lowerPredWithAggs is lowerPred with HAVING aggregate support.
func (l *lowerer) lowerPredWithAggs(e Expr, sc *scope, aggOut func(AggCall, string) (schema.Attribute, error)) (expr.Pred, error) {
	return l.lowerPred(e, sc, aggOut)
}

func containsSubquery(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case SubqueryExpr:
		return true
	case BinExpr:
		return containsSubquery(x.L) || containsSubquery(x.R)
	default:
		return false
	}
}

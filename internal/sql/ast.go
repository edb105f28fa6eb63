package sql

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// SelectStmt is one SELECT block.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Where    Expr // nil = true
	GroupBy  []ColRef
	Having   Expr // nil = none
	OrderBy  []OrderItem
	Limit    int // -1 = none
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Col  ColRef
	Desc bool
}

// SelectItem is one output column: an expression with an optional
// alias. Star marks SELECT *.
type SelectItem struct {
	Star bool
	Expr Expr
	As   string
}

// FromItem is one FROM-clause element: either a base table (Table
// set) or a derived table (Sub set), optionally joined to the
// previous tree with an explicit join.
type FromItem struct {
	Table string
	Sub   *SelectStmt
	As    string
	// Join links this item to the accumulated FROM tree; empty for
	// comma-separated items (inner joined through WHERE).
	Join JoinSpec
}

// JoinSpec describes an explicit JOIN … ON ….
type JoinSpec struct {
	Kind string // "", "join", "left", "right", "full"
	On   Expr
}

// Expr is a parsed scalar or boolean expression.
type Expr interface{ String() string }

// ColRef references [qualifier.]column.
type ColRef struct {
	Qualifier string // may be empty
	Column    string
}

// String implements Expr.
func (c ColRef) String() string {
	if c.Qualifier == "" {
		return c.Column
	}
	return c.Qualifier + "." + c.Column
}

// Lit is a literal. Tok is one more than the index of the token the
// parser read it from (Tokens.Params reads it back through
// ParameterizeSlots' slot map); 0 marks a literal built in code.
type Lit struct {
	Val value.Value
	Tok int
}

// String implements Expr.
func (l Lit) String() string { return l.Val.GoString() }

// BinExpr is a binary operation: comparison, AND, or arithmetic.
type BinExpr struct {
	Op   string // "and", "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/"
	L, R Expr
}

// String implements Expr.
func (b BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// AggCall is an aggregate invocation in a SELECT list or HAVING.
type AggCall struct {
	Func     string // "count", "sum", "min", "max", "avg"
	Star     bool   // count(*)
	Distinct bool
	Arg      Expr // nil when Star
}

// String implements Expr.
func (a AggCall) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	d := ""
	if a.Distinct {
		d = "distinct "
	}
	return fmt.Sprintf("%s(%s%s)", a.Func, d, arg)
}

// UnaryExpr is a prefix operator, currently only NOT.
type UnaryExpr struct {
	Op string
	E  Expr
}

// String implements Expr.
func (u UnaryExpr) String() string { return u.Op + " (" + u.E.String() + ")" }

// SubqueryExpr is a scalar subquery in an expression position; the
// supported form is a (possibly correlated) single-aggregate SELECT.
type SubqueryExpr struct{ Stmt *SelectStmt }

// String implements Expr.
func (s SubqueryExpr) String() string { return "(" + s.Stmt.String() + ")" }

// String renders the statement approximately as SQL.
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("select ")
	if s.Distinct {
		b.WriteString("distinct ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteString("*")
			continue
		}
		b.WriteString(it.Expr.String())
		if it.As != "" {
			b.WriteString(" as " + it.As)
		}
	}
	b.WriteString(" from ")
	for i, f := range s.From {
		if i > 0 {
			if f.Join.Kind == "" {
				b.WriteString(", ")
			} else {
				b.WriteString(" " + f.Join.Kind + " join ")
			}
		}
		if f.Sub != nil {
			b.WriteString("(" + f.Sub.String() + ")")
		} else {
			b.WriteString(f.Table)
		}
		if f.As != "" {
			b.WriteString(" as " + f.As)
		}
		if f.Join.On != nil {
			b.WriteString(" on " + f.Join.On.String())
		}
	}
	if s.Where != nil {
		b.WriteString(" where " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" group by ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" having " + s.Having.String())
	}
	for i, o := range s.OrderBy {
		if i == 0 {
			b.WriteString(" order by ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(o.Col.String())
		if o.Desc {
			b.WriteString(" desc")
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " limit %d", s.Limit)
	}
	return b.String()
}

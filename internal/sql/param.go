package sql

import "repro/internal/value"

// param is a parameter slot "$n" (1-based) in a parameterized AST. It
// is produced by Parameterize, never by the parser: client SQL always
// carries inline literals, and the service normalizes them so queries
// differing only in constants share one plan-cache entry.
type param struct{ Idx int }

// String implements Expr.
func (p param) String() string { return "$" + itoa(p.Idx) }

// itoa avoids strconv for this tiny hot path (Idx is small and
// positive).
func itoa(n int) string {
	if n < 10 {
		return string([]byte{byte('0' + n)})
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Parameterize returns a deep copy of stmt with every literal replaced
// by a numbered Param slot, plus the extracted literals in slot order
// (params[i] binds $i+1). The walk order is deterministic — select
// list, FROM (derived tables and join conditions in clause order),
// WHERE, then HAVING — so the same query text always produces the same
// template and the same binding vector. LIMIT is part of the template
// (it is plan structure, not a scalar), as are GROUP BY and ORDER BY
// columns, which cannot hold literals.
//
// Lowering commutes with parameterization: Lower(template) with $n
// later bound to params[n-1] is structurally identical to lowering the
// original statement, because lowering decides structure from
// attribute references alone. The fuzz suite asserts this.
func Parameterize(stmt *SelectStmt) (*SelectStmt, []value.Value) {
	out, params, _ := ParameterizeSlots(stmt)
	return out, params
}

// ParameterizeSlots is Parameterize that also returns the template's
// slot map: slots[i] is the index of the token the literal binding
// $i+1 was parsed from, so Tokens.Params(slots) of any statement with
// the same shape yields that statement's parameters. A literal read
// once may bind several slots (BETWEEN's left operand is compared
// twice, IN's once per alternative); each slot names the same token.
// slots is nil when some literal was not parsed from text (Lit.Tok 0).
func ParameterizeSlots(stmt *SelectStmt) (*SelectStmt, []value.Value, []int) {
	p := &paramizer{slots: []int{}}
	out := p.stmt(stmt)
	for _, at := range p.slots {
		if at < 0 {
			return out, p.params, nil
		}
	}
	return out, p.params, p.slots
}

type paramizer struct {
	params []value.Value
	slots  []int
}

func (p *paramizer) slot(l lit) param {
	p.params = append(p.params, l.Val)
	p.slots = append(p.slots, l.Tok-1)
	return param{Idx: len(p.params)}
}

func (p *paramizer) stmt(s *SelectStmt) *SelectStmt {
	out := *s
	out.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		out.Items[i] = it
		if it.Expr != nil {
			out.Items[i].Expr = p.expr(it.Expr)
		}
	}
	out.From = make([]FromItem, len(s.From))
	for i, f := range s.From {
		out.From[i] = f
		if f.Sub != nil {
			out.From[i].Sub = p.stmt(f.Sub)
		}
		if f.Join.On != nil {
			out.From[i].Join.On = p.expr(f.Join.On)
		}
	}
	if s.Where != nil {
		out.Where = p.expr(s.Where)
	}
	out.GroupBy = append([]ColRef(nil), s.GroupBy...)
	if s.Having != nil {
		out.Having = p.expr(s.Having)
	}
	out.OrderBy = append([]OrderItem(nil), s.OrderBy...)
	return &out
}

func (p *paramizer) expr(e Expr) Expr {
	switch x := e.(type) {
	case lit:
		return p.slot(x)
	case binExpr:
		return binExpr{Op: x.Op, L: p.expr(x.L), R: p.expr(x.R)}
	case unaryExpr:
		return unaryExpr{Op: x.Op, E: p.expr(x.E)}
	case aggCall:
		out := x
		if x.Arg != nil {
			out.Arg = p.expr(x.Arg)
		}
		return out
	case subqueryExpr:
		return subqueryExpr{Stmt: p.stmt(x.Stmt)}
	default:
		// ColRef, Param: no literals underneath.
		return e
	}
}

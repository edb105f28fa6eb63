// Package expr implements scalar expressions and the conjunctive,
// null in-tolerant predicates the paper's operators are specified
// with (footnotes 1–2 in Section 1.1).
//
// A predicate p has a schema sch(p) — the attributes it references.
// Predicates referencing exactly two relations are *simple*;
// predicates referencing more than two are *complex* (Section 1.2),
// and it is complex predicates that the association identities of
// Section 3.1 break up.
package expr

import (
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/value"
)

// Env resolves attribute references during evaluation. Lookup returns
// (value, true) when the attribute is bound. Environments chain for
// correlated (tuple-iteration-semantics) evaluation.
type Env interface {
	Lookup(a schema.Attribute) (value.Value, bool)
}

// TupleEnv binds a tuple against its schema.
type TupleEnv struct {
	Schema *schema.Schema
	Tuple  []value.Value
}

// Lookup implements Env.
func (e TupleEnv) Lookup(a schema.Attribute) (value.Value, bool) {
	i := e.Schema.IndexOf(a)
	if i < 0 {
		return value.Null, false
	}
	return e.Tuple[i], true
}

// ChainEnv resolves against Inner first, then Outer; it implements
// the correlation scoping of nested subqueries.
type ChainEnv struct {
	Inner Env
	Outer Env
}

// Lookup implements Env.
func (e ChainEnv) Lookup(a schema.Attribute) (value.Value, bool) {
	if v, ok := e.Inner.Lookup(a); ok {
		return v, true
	}
	if e.Outer != nil {
		return e.Outer.Lookup(a)
	}
	return value.Null, false
}

// Scalar is a side-effect-free scalar expression.
type Scalar interface {
	// Eval computes the expression's value; unresolvable column
	// references and arithmetic on NULL yield NULL.
	Eval(env Env) value.Value
	// Attrs appends the referenced attributes to dst and returns it.
	Attrs(dst []schema.Attribute) []schema.Attribute
	// String renders the expression canonically.
	String() string
}

// Col references an attribute.
type Col struct{ Attr schema.Attribute }

// Column is shorthand for a column reference rel.col.
func Column(rel, col string) Col { return Col{Attr: schema.Attr(rel, col)} }

// Eval implements Scalar.
func (c Col) Eval(env Env) value.Value {
	v, _ := env.Lookup(c.Attr)
	return v
}

// Attrs implements Scalar.
func (c Col) Attrs(dst []schema.Attribute) []schema.Attribute { return append(dst, c.Attr) }

// String implements Scalar.
func (c Col) String() string { return c.Attr.String() }

// Const is a literal value.
type Const struct{ Val value.Value }

// Int is shorthand for an integer literal.
func Int(v int64) Const { return Const{Val: value.NewInt(v)} }

// Str is shorthand for a string literal.
func Str(v string) Const { return Const{Val: value.NewString(v)} }

// Eval implements Scalar.
func (c Const) Eval(Env) value.Value { return c.Val }

// Attrs implements Scalar.
func (c Const) Attrs(dst []schema.Attribute) []schema.Attribute { return dst }

// String implements Scalar.
func (c Const) String() string { return c.Val.GoString() }

// ArithOp enumerates binary arithmetic operators.
type ArithOp uint8

// The arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String renders the operator symbol.
func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	default:
		return "?"
	}
}

// Arith is a binary arithmetic expression; NULL operands propagate to
// a NULL result, and non-numeric operands also yield NULL.
type Arith struct {
	Op   ArithOp
	L, R Scalar
}

// Eval implements Scalar.
func (a Arith) Eval(env Env) value.Value {
	l, r := a.L.Eval(env), a.R.Eval(env)
	if l.IsNull() || r.IsNull() || !l.IsNumeric() || !r.IsNumeric() {
		return value.Null
	}
	if l.Kind() == value.KindInt && r.Kind() == value.KindInt && a.Op != Div {
		li, ri := l.Int(), r.Int()
		switch a.Op {
		case Add:
			return value.NewInt(li + ri)
		case Sub:
			return value.NewInt(li - ri)
		case Mul:
			return value.NewInt(li * ri)
		}
	}
	lf, rf := l.Float(), r.Float()
	switch a.Op {
	case Add:
		return value.NewFloat(lf + rf)
	case Sub:
		return value.NewFloat(lf - rf)
	case Mul:
		return value.NewFloat(lf * rf)
	case Div:
		if rf == 0 {
			return value.Null
		}
		return value.NewFloat(lf / rf)
	}
	return value.Null
}

// Attrs implements Scalar.
func (a Arith) Attrs(dst []schema.Attribute) []schema.Attribute {
	return a.R.Attrs(a.L.Attrs(dst))
}

// String implements Scalar. Concatenation, not fmt: scalar strings
// are on the plan-fingerprint hot path.
func (a Arith) String() string {
	return "(" + a.L.String() + " " + a.Op.String() + " " + a.R.String() + ")"
}

// Pred is a three-valued-logic predicate. All predicates built from
// Cmp atoms are null in-tolerant: a NULL in any referenced attribute
// makes the atom Unknown, which never Holds.
type Pred interface {
	Eval(env Env) value.Tristate
	Attrs(dst []schema.Attribute) []schema.Attribute
	String() string
}

// True is the always-true predicate (used for cartesian products).
type True struct{}

// Eval implements Pred.
func (True) Eval(Env) value.Tristate { return value.True }

// Attrs implements Pred.
func (True) Attrs(dst []schema.Attribute) []schema.Attribute { return dst }

// String implements Pred.
func (True) String() string { return "true" }

// Cmp is a comparison atom l θ r.
type Cmp struct {
	Op   value.CmpOp
	L, R Scalar
}

// Eq builds the equality atom l = r.
func Eq(l, r Scalar) Cmp { return Cmp{Op: value.EQ, L: l, R: r} }

// EqCols builds the equi-join atom rel1.col1 = rel2.col2.
func EqCols(rel1, col1, rel2, col2 string) Cmp {
	return Eq(Column(rel1, col1), Column(rel2, col2))
}

// Eval implements Pred.
func (c Cmp) Eval(env Env) value.Tristate {
	return value.Apply(c.Op, c.L.Eval(env), c.R.Eval(env))
}

// Attrs implements Pred.
func (c Cmp) Attrs(dst []schema.Attribute) []schema.Attribute {
	return c.R.Attrs(c.L.Attrs(dst))
}

// String implements Pred. Concatenation, not fmt: predicate strings
// are rendered once per candidate plan the enumerator generates.
func (c Cmp) String() string {
	return c.L.String() + " " + c.Op.String() + " " + c.R.String()
}

// Conj is the conjunction p1 ∧ … ∧ pn. An empty conjunction is true.
type Conj struct{ Preds []Pred }

// Eval implements Pred.
func (c Conj) Eval(env Env) value.Tristate {
	out := value.True
	for _, p := range c.Preds {
		out = out.And(p.Eval(env))
		if out == value.False {
			return value.False
		}
	}
	return out
}

// Attrs implements Pred.
func (c Conj) Attrs(dst []schema.Attribute) []schema.Attribute {
	for _, p := range c.Preds {
		dst = p.Attrs(dst)
	}
	return dst
}

// String implements Pred.
func (c Conj) String() string {
	if len(c.Preds) == 0 {
		return "true"
	}
	parts := make([]string, len(c.Preds))
	for i, p := range c.Preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " and ")
}

// And conjoins predicates, flattening nested conjunctions and
// dropping True atoms. It returns True{} for an empty result and the
// single atom unwrapped for a singleton.
func And(preds ...Pred) Pred {
	var flat []Pred
	var walk func(p Pred)
	walk = func(p Pred) {
		switch q := p.(type) {
		case nil:
		case True:
		case Conj:
			for _, sub := range q.Preds {
				walk(sub)
			}
		default:
			flat = append(flat, p)
		}
	}
	for _, p := range preds {
		walk(p)
	}
	switch len(flat) {
	case 0:
		return True{}
	case 1:
		return flat[0]
	}
	return Conj{Preds: flat}
}

// Conjuncts returns the flat list of atomic conjuncts of p; True
// yields an empty list.
func Conjuncts(p Pred) []Pred {
	var out []Pred
	var walk func(p Pred)
	walk = func(p Pred) {
		switch q := p.(type) {
		case nil:
		case True:
		case Conj:
			for _, sub := range q.Preds {
				walk(sub)
			}
		default:
			out = append(out, p)
		}
	}
	walk(p)
	return out
}

// Rels returns the sorted set of relation names referenced by p
// (sch(p) grouped by qualifier).
func Rels(p Pred) []string {
	set := make(map[string]bool)
	for _, a := range p.Attrs(nil) {
		set[a.Rel] = true
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// RelSet returns the set of relation names referenced by p.
func RelSet(p Pred) map[string]bool {
	set := make(map[string]bool)
	for _, a := range p.Attrs(nil) {
		set[a.Rel] = true
	}
	return set
}

// References reports whether p references any attribute of a relation
// in rels.
func References(p Pred, rels map[string]bool) bool {
	for _, a := range p.Attrs(nil) {
		if rels[a.Rel] {
			return true
		}
	}
	return false
}

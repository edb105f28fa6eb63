package expr

import (
	"strconv"

	"repro/internal/schema"
	"repro/internal/value"
)

// Param is a parameter slot "$n" (1-based) in a parameterized
// expression tree. Parameterization replaces every literal of a query
// with a slot so that queries differing only in their constants share
// one canonical plan fingerprint — and therefore one cached optimized
// plan. A Param is bound back to a Const (plan.BindParams) before
// execution; an unbound slot evaluates to NULL, which under
// three-valued logic never satisfies a predicate, so a plan that
// escapes binding fails closed instead of returning wrong rows.
type Param struct{ Idx int }

// Eval implements Scalar. Unbound parameters are NULL.
func (p Param) Eval(Env) value.Value { return value.Null }

// Attrs implements Scalar: a parameter references no attributes, so
// rules that reason about sch(p) treat parameterized predicates
// exactly like their constant-bearing originals.
func (p Param) Attrs(dst []schema.Attribute) []schema.Attribute { return dst }

// String implements Scalar. The "$n" rendering is what lands in
// plan.Key, making the fingerprint literal-independent; genuine string
// literals render quoted (value.GoString), so a slot can never collide
// with a constant that happens to spell "$1".
func (p Param) String() string { return "$" + strconv.Itoa(p.Idx) }

// RewriteScalar rebuilds s bottom-up, replacing each leaf with f(leaf)
// and reporting whether anything changed. Interior nodes are rebuilt
// only on a changed branch, so untouched subtrees keep their identity.
func RewriteScalar(s Scalar, f func(Scalar) Scalar) (Scalar, bool) {
	switch x := s.(type) {
	case Arith:
		l, lc := RewriteScalar(x.L, f)
		r, rc := RewriteScalar(x.R, f)
		if !lc && !rc {
			return x, false
		}
		return Arith{Op: x.Op, L: l, R: r}, true
	default:
		if out := f(s); out != s {
			return out, true
		}
		return s, false
	}
}

// RewritePred rebuilds p with every scalar leaf passed through f,
// reporting whether anything changed. Unchanged predicates return as
// they were handed in, preserving sharing.
func RewritePred(p Pred, f func(Scalar) Scalar) (Pred, bool) {
	switch x := p.(type) {
	case Cmp:
		l, lc := RewriteScalar(x.L, f)
		r, rc := RewriteScalar(x.R, f)
		if !lc && !rc {
			return x, false
		}
		return Cmp{Op: x.Op, L: l, R: r}, true
	case Conj:
		return rewritePreds(x.Preds, f, func(ps []Pred) Pred { return Conj{Preds: ps} }, x)
	case disj:
		return rewritePreds(x.Preds, f, func(ps []Pred) Pred { return disj{Preds: ps} }, x)
	case Not:
		inner, c := RewritePred(x.P, f)
		if !c {
			return x, false
		}
		return Not{P: inner}, true
	default:
		return p, false
	}
}

// rewritePreds maps RewritePred over a predicate list, rebuilding the
// container through rebuild only when some element changed.
func rewritePreds(preds []Pred, f func(Scalar) Scalar, rebuild func([]Pred) Pred, orig Pred) (Pred, bool) {
	changed := false
	out := make([]Pred, len(preds))
	for i, sub := range preds {
		p, c := RewritePred(sub, f)
		out[i] = p
		changed = changed || c
	}
	if !changed {
		return orig, false
	}
	return rebuild(out), true
}

// WalkScalars calls f on every scalar leaf of p (left to right,
// depth-first) — the traversal parameter extraction and slot counting
// are built on.
func WalkScalars(p Pred, f func(Scalar)) {
	switch x := p.(type) {
	case Cmp:
		walkScalar(x.L, f)
		walkScalar(x.R, f)
	case Conj:
		for _, sub := range x.Preds {
			WalkScalars(sub, f)
		}
	case disj:
		for _, sub := range x.Preds {
			WalkScalars(sub, f)
		}
	case Not:
		WalkScalars(x.P, f)
	}
}

// WalkScalarLeaves calls f on every leaf of a scalar tree.
func WalkScalarLeaves(s Scalar, f func(Scalar)) { walkScalar(s, f) }

func walkScalar(s Scalar, f func(Scalar)) {
	if a, ok := s.(Arith); ok {
		walkScalar(a.L, f)
		walkScalar(a.R, f)
		return
	}
	f(s)
}

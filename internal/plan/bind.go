package plan

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/value"
)

// BindParams returns a copy of n with every expr.Param{Idx: i}
// replaced by expr.Const{Val: params[i-1]}. This is the hit path of
// the plan cache: the optimizer runs once on the parameterized
// template and each request rebinds its own constants into the cached
// winner. Only the spine above a changed predicate is rebuilt —
// untouched subtrees (and their cached fingerprints) are shared with
// the template. A rebuilt node shares its template node's shape cell
// (shape.go): binding changes no schema, so the output schemas, key
// splits and column names derived for the template hold for every
// binding — except for a join whose own predicate changed, whose
// residual holds this request's constants.
//
// A slot index outside 1..len(params) is an error: executing a plan
// with an unbound parameter would silently compare against NULL.
func BindParams(n Node, params []value.Value) (Node, error) {
	var bindErr error
	leaf := func(s expr.Scalar) expr.Scalar {
		p, ok := s.(expr.Param)
		if !ok {
			return s
		}
		if p.Idx < 1 || p.Idx > len(params) {
			if bindErr == nil {
				bindErr = fmt.Errorf("plan: parameter $%d out of range (have %d)", p.Idx, len(params))
			}
			return s
		}
		return expr.Const{Val: params[p.Idx-1]}
	}
	out, _ := bindNode(n, leaf)
	if bindErr != nil {
		return nil, bindErr
	}
	return out, nil
}

// ParamCount returns the highest parameter slot index referenced
// anywhere in n (0 for an unparameterized plan).
func ParamCount(n Node) int {
	max := 0
	note := func(s expr.Scalar) {
		if p, ok := s.(expr.Param); ok && p.Idx > max {
			max = p.Idx
		}
	}
	walkNodeScalars(n, note)
	return max
}

// bindNode rewrites one node bottom-up, reporting whether anything
// under it changed.
func bindNode(n Node, leaf func(expr.Scalar) expr.Scalar) (Node, bool) {
	switch x := n.(type) {
	case *Scan:
		return x, false
	case *Join:
		p, pc := expr.RewritePred(x.Pred, leaf)
		l, lc := bindNode(x.L, leaf)
		r, rc := bindNode(x.R, leaf)
		if !pc && !lc && !rc {
			return x, false
		}
		out := NewJoin(x.Kind, p, l, r)
		if !pc {
			out.shareShape(&x.fpCache)
		}
		return out, true
	case *Select:
		p, pc := expr.RewritePred(x.Pred, leaf)
		in, ic := bindNode(x.Input, leaf)
		if !pc && !ic {
			return x, false
		}
		out := NewSelect(p, in)
		out.shareShape(&x.fpCache)
		return out, true
	case *GenSel:
		p, pc := expr.RewritePred(x.Pred, leaf)
		in, ic := bindNode(x.Input, leaf)
		if !pc && !ic {
			return x, false
		}
		out := &GenSel{Pred: p, Preserved: x.Preserved, Input: in}
		out.shareShape(&x.fpCache)
		return out, true
	case *MGOJNode:
		p, pc := expr.RewritePred(x.Pred, leaf)
		l, lc := bindNode(x.L, leaf)
		r, rc := bindNode(x.R, leaf)
		if !pc && !lc && !rc {
			return x, false
		}
		out := &MGOJNode{Pred: p, Preserved: x.Preserved, L: l, R: r}
		if !pc {
			out.shareShape(&x.fpCache)
		}
		return out, true
	case *GroupBy:
		aggs, ac := bindAggs(x.Aggs, leaf)
		in, ic := bindNode(x.Input, leaf)
		if !ac && !ic {
			return x, false
		}
		out := NewGroupBy(x.Keys, aggs, in)
		out.shareShape(&x.fpCache)
		return out, true
	case *Project:
		in, ic := bindNode(x.Input, leaf)
		if !ic {
			return x, false
		}
		out := NewProject(x.Attrs, x.Distinct, in)
		out.shareShape(&x.fpCache)
		return out, true
	case *Sort:
		in, ic := bindNode(x.Input, leaf)
		if !ic {
			return x, false
		}
		out := NewSortOrigin(x.Keys, x.Limit, in, x.Origin)
		out.shareShape(&x.fpCache)
		return out, true
	default:
		// Unknown node kinds pass through children generically.
		ch := n.Children()
		if len(ch) == 0 {
			return n, false
		}
		changed := false
		out := make([]Node, len(ch))
		for i, c := range ch {
			nc, cc := bindNode(c, leaf)
			out[i] = nc
			changed = changed || cc
		}
		if !changed {
			return n, false
		}
		return n.WithChildren(out), true
	}
}

func bindAggs(aggs []algebra.Aggregate, leaf func(expr.Scalar) expr.Scalar) ([]algebra.Aggregate, bool) {
	changed := false
	out := make([]algebra.Aggregate, len(aggs))
	for i, a := range aggs {
		out[i] = a
		if a.Arg != nil {
			s, c := expr.RewriteScalar(a.Arg, leaf)
			out[i].Arg = s
			changed = changed || c
		}
	}
	if !changed {
		return aggs, false
	}
	return out, true
}

// walkNodeScalars visits every scalar leaf in every predicate and
// aggregate argument of the tree.
func walkNodeScalars(n Node, f func(expr.Scalar)) {
	switch x := n.(type) {
	case *Join:
		expr.WalkScalars(x.Pred, f)
	case *Select:
		expr.WalkScalars(x.Pred, f)
	case *GenSel:
		expr.WalkScalars(x.Pred, f)
	case *MGOJNode:
		expr.WalkScalars(x.Pred, f)
	case *GroupBy:
		for _, a := range x.Aggs {
			if a.Arg != nil {
				expr.WalkScalarLeaves(a.Arg, f)
			}
		}
	}
	for _, c := range n.Children() {
		walkNodeScalars(c, f)
	}
}

// Package algebra implements the paper's relational operators over
// in-memory relations: selection σ, cartesian product ×, inner join
// ⋈, left/right/full outer join →/←/↔, anti join ▷, the novel
// generalized selection σ* (Definition 2.1), generalized projection
// π_{X,f(Y)} for GROUP BY aggregation, and MGOJ, the modified
// generalized outer join of [BHAR95a] used during partial
// reorderings.
//
// These are *reference* implementations: straightforward nested-loop
// definitions that mirror the paper's set-theoretic definitions
// exactly. The executor package provides faster physical operators;
// its results are cross-checked against this package in tests.
package algebra

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Select returns σ_p(r): the tuples of r for which p evaluates to
// True (Unknown filters out, making predicates null in-tolerant).
func Select(p expr.Pred, r *relation.Relation) *relation.Relation {
	out := relation.New(r.Schema())
	r.Each(func(t relation.Tuple) {
		if p.Eval(expr.TupleEnv{Schema: r.Schema(), Tuple: t}).Holds() {
			out.Append(t)
		}
	})
	return out
}

// Product returns the cartesian product r1 × r2. The schemas must be
// disjoint (relations renamed apart, footnote 5).
func Product(r1, r2 *relation.Relation) *relation.Relation {
	s := r1.Schema().Concat(r2.Schema())
	out := relation.New(s)
	t2s := r2.Tuples()
	t := make(relation.Tuple, s.Len())
	r1.Each(func(t1 relation.Tuple) {
		n1 := copy(t, t1)
		for _, t2 := range t2s {
			copy(t[n1:], t2)
			out.Append(t)
		}
	})
	return out
}

// Join returns the inner join r1 ⋈_p r2.
func Join(p expr.Pred, r1, r2 *relation.Relation) *relation.Relation {
	s := r1.Schema().Concat(r2.Schema())
	out := relation.New(s)
	t2s := r2.Tuples()
	t := make(relation.Tuple, s.Len())
	r1.Each(func(t1 relation.Tuple) {
		n1 := copy(t, t1)
		for _, t2 := range t2s {
			copy(t[n1:], t2)
			if p.Eval(expr.TupleEnv{Schema: s, Tuple: t}).Holds() {
				out.Append(t)
			}
		}
	})
	return out
}

// LeftOuter returns r1 →_p r2: the union of r1 ⋈_p r2 and r1 ▷_p r2,
// with unmatched r1 tuples NULL-padded on sch(r2). r1 is the
// preserved relation, r2 the null-supplying relation.
func LeftOuter(p expr.Pred, r1, r2 *relation.Relation) *relation.Relation {
	s := r1.Schema().Concat(r2.Schema())
	out := relation.New(s)
	t2s := r2.Tuples()
	t := make(relation.Tuple, s.Len())
	r1.Each(func(t1 relation.Tuple) {
		n1 := copy(t, t1)
		matched := false
		for _, t2 := range t2s {
			copy(t[n1:], t2)
			if p.Eval(expr.TupleEnv{Schema: s, Tuple: t}).Holds() {
				out.Append(t)
				matched = true
			}
		}
		if !matched {
			nullFill(t[n1:])
			out.Append(t)
		}
	})
	return out
}

// RightOuter returns r1 ←_p r2, preserving r2.
func RightOuter(p expr.Pred, r1, r2 *relation.Relation) *relation.Relation {
	// r1 ← r2 has schema R1R2 but preserves r2; compute as the
	// mirrored left outer join and restore column order.
	s := r1.Schema().Concat(r2.Schema())
	return LeftOuter(p, r2, r1).Reorder(s)
}

// FullOuter returns r1 ↔_p r2: matched pairs plus both sides'
// unmatched tuples, NULL-padded.
func FullOuter(p expr.Pred, r1, r2 *relation.Relation) *relation.Relation {
	s := r1.Schema().Concat(r2.Schema())
	out := relation.New(s)
	n1 := r1.Schema().Len()
	t2s := r2.Tuples()
	rightMatched := make([]bool, len(t2s))
	t := make(relation.Tuple, s.Len())
	r1.Each(func(t1 relation.Tuple) {
		copy(t, t1)
		matched := false
		for j, t2 := range t2s {
			copy(t[n1:], t2)
			if p.Eval(expr.TupleEnv{Schema: s, Tuple: t}).Holds() {
				out.Append(t)
				matched = true
				rightMatched[j] = true
			}
		}
		if !matched {
			nullFill(t[n1:])
			out.Append(t)
		}
	})
	nullFill(t[:n1])
	for j, t2 := range t2s {
		if !rightMatched[j] {
			copy(t[n1:], t2)
			out.Append(t)
		}
	}
	return out
}

// nullFill sets every value of t to NULL.
func nullFill(t relation.Tuple) {
	for i := range t {
		t[i] = value.Null
	}
}

// resolvePreserved maps a preserved-relation specification (a set of
// base relation names, e.g. the "r1r2" of σ*_{p}[r1r2]) to the
// attributes of the input schema belonging to those relations.
func resolvePreserved(s *schema.Schema, spec map[string]bool) ([]schema.Attribute, error) {
	attrs := s.AttrsOfRels(spec)
	if len(attrs) == 0 {
		return nil, fmt.Errorf("algebra: preserved relations %v have no attributes in schema %s", keys(spec), s)
	}
	return attrs, nil
}

func allNull(t relation.Tuple) bool {
	for _, v := range t {
		if !v.IsNull() {
			return false
		}
	}
	return true
}

func keys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out
}

// GenSelect implements generalized selection σ*_p[r_1,…,r_n](r)
// (Definition 2.1):
//
//	E' = σ_p(r) ⊎_{1≤i≤n} { π_{R_iV_i}(r) − π_{R_iV_i}(σ_p(r)) }
//
// Each preserved relation is specified as the set of base relation
// names whose attributes it spans (e.g. {"r1","r2"} for the combined
// relation r1r2); the projection π_{R_iV_i} includes both real and
// virtual attributes, so duplicates in the preserved relation survive
// exactly as the paper intends. The preserved tuples are padded with
// NULLs for the remaining attributes of r.
func GenSelect(p expr.Pred, preserved []map[string]bool, r *relation.Relation) (*relation.Relation, error) {
	return GenSelectWith(Select(p, r), preserved, r)
}

// GenSelectWith is GenSelect over a precomputed sel = σ_p(r): it
// appends the preserved-projection compensation to sel's tuples. The
// executor's columnar walker computes σ_p(r) with its own selection
// kernel and pads through this entry point.
func GenSelectWith(sel *relation.Relation, preserved []map[string]bool, r *relation.Relation) (*relation.Relation, error) {
	var pads []relation.Tuple
	for _, spec := range preserved {
		attrs, err := resolvePreserved(r.Schema(), spec)
		if err != nil {
			return nil, err
		}
		all := r.Project(attrs, true)
		kept := sel.Project(attrs, true)
		missing := all.Minus(kept)
		for _, t := range missing.PadTo(r.Schema()).Tuples() {
			// A projection that is entirely NULL (including the
			// virtual row identifiers) arises only from tuples of r
			// that were themselves NULL-padded on the preserved
			// relation's attributes; it represents no actual tuple
			// of r_i and is not preserved.
			if allNull(t) {
				continue
			}
			pads = append(pads, t)
		}
	}
	return withRows(sel, r.Schema(), pads), nil
}

// withRows returns the rows of r, under schema s (r's attributes in
// r's order), followed by extra. r's columns are shared, not copied.
func withRows(r *relation.Relation, s *schema.Schema, extra []relation.Tuple) *relation.Relation {
	cols, n := r.Columns()
	out := relation.FromColumns(s, cols, n)
	out.AppendAll(extra)
	return out
}

// MustGenSelect is GenSelect that panics on specification errors; it
// is used in tests and examples where the specs are static.
func MustGenSelect(p expr.Pred, preserved []map[string]bool, r *relation.Relation) *relation.Relation {
	out, err := GenSelect(p, preserved, r)
	if err != nil {
		panic(err)
	}
	return out
}

// MGOJ implements the modified generalized outer join of [BHAR95a]:
// join r1 and r2 on p while preserving, for every listed
// specification P_i, the distinct P_i-projections that found no join
// partner, NULL-padded on the remaining attributes. The paper notes
// (Section 4) that MGOJ and generalized selection have the same
// implementation shape: for non-empty inputs
//
//	MGOJ_p[P_1,…,P_n](r1, r2) = σ*_p[P_1,…,P_n](r1 × r2).
//
// Unlike the literal cartesian-product form, the preserved
// projections here are drawn from the input that carries them, so an
// empty opposite side still preserves correctly (matching the outer
// joins MGOJ generalizes). A specification spanning both inputs falls
// back to projecting the product.
func MGOJ(p expr.Pred, preserved []map[string]bool, r1, r2 *relation.Relation) (*relation.Relation, error) {
	return MGOJWith(Join(p, r1, r2), preserved, r1, r2)
}

// MGOJWith is MGOJ over a precomputed inner join of r1 and r2: it
// appends the preserved-projection compensation to join's tuples, as
// GenSelectWith does for generalized selection. The executor joins
// with its own kernels and compensates through this entry point.
func MGOJWith(join *relation.Relation, preserved []map[string]bool, r1, r2 *relation.Relation) (*relation.Relation, error) {
	s := join.Schema()
	var pads []relation.Tuple
	for _, spec := range preserved {
		attrs, err := resolvePreserved(s, spec)
		if err != nil {
			return nil, err
		}
		var source *relation.Relation
		switch {
		case containsAllAttrs(r1.Schema(), attrs):
			source = r1
		case containsAllAttrs(r2.Schema(), attrs):
			source = r2
		default:
			source = Product(r1, r2)
		}
		all := source.Project(attrs, true)
		kept := join.Project(attrs, true)
		for _, t := range all.Minus(kept).PadTo(s).Tuples() {
			if !allNull(t) {
				pads = append(pads, t)
			}
		}
	}
	return withRows(join, s, pads), nil
}

func containsAllAttrs(s *schema.Schema, attrs []schema.Attribute) bool {
	for _, a := range attrs {
		if !s.Contains(a) {
			return false
		}
	}
	return true
}

// RelSet builds a relation-name set from names; a convenience for
// writing preserved specifications.
func RelSet(names ...string) map[string]bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

// Package algebra implements the paper's relational operators over
// in-memory relations: selection σ, cartesian product ×, inner join
// ⋈, left/right/full outer join →/←/↔, anti join ▷, the novel
// generalized selection σ* (Definition 2.1), generalized projection
// π_{X,f(Y)} for GROUP BY aggregation, and MGOJ, the modified
// generalized outer join of [BHAR95a] used during partial
// reorderings.
//
// These are *reference* implementations that mirror the paper's
// set-theoretic definitions: plan.Node.Eval runs a plan on them, and
// the executor's columnar engine is checked against that evaluation.
// The joins are the nested loop's definition, row for row, with the
// pairs an equality conjunct rules out skipped by hashing
// (join_test.go keeps the nested loop and holds them to it).
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
	return join(expr.True{}, r1, r2, false, false)
}

// Join returns the inner join r1 ⋈_p r2.
func Join(p expr.Pred, r1, r2 *relation.Relation) *relation.Relation {
	return join(p, r1, r2, false, false)
}

// LeftOuter returns r1 →_p r2: the union of r1 ⋈_p r2 and r1 ▷_p r2,
// with unmatched r1 tuples NULL-padded on sch(r2). r1 is the
// preserved relation, r2 the null-supplying relation.
func LeftOuter(p expr.Pred, r1, r2 *relation.Relation) *relation.Relation {
	return join(p, r1, r2, true, false)
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
	return join(p, r1, r2, true, true)
}

// join is the one loop behind the joins above. It emits, for each r1
// tuple in order, its concatenation with every r2 tuple on which p
// holds, in r2's order — the nested loop's output, row for row. With
// padLeft an r1 tuple that matched nothing follows as itself NULL-padded
// on sch(r2); with padRight the r2 tuples no r1 tuple matched follow
// last, in order, NULL-padded on sch(r1).
//
// Only the pairs it tries differ from the nested loop's. When p has
// conjuncts r1.a = r2.b, r2's tuples are bucketed by the hash of those
// columns and an r1 tuple tries only its own bucket: a pair outside it
// fails one of the conjuncts (value.Equal values hash alike), and so
// fails p, as does a tuple with a NULL key, which goes in no bucket.
// p itself is evaluated on every pair tried.
func join(p expr.Pred, r1, r2 *relation.Relation, padLeft, padRight bool) *relation.Relation {
	s := r1.Schema().Concat(r2.Schema())
	out := relation.New(s)
	n1 := r1.Schema().Len()
	t2s := r2.Tuples()
	k1, k2 := equiKeys(p, s, n1)
	var every []int
	var buckets map[uint64][]int
	if len(k1) == 0 {
		every = make([]int, len(t2s))
		for j := range every {
			every[j] = j
		}
	} else {
		buckets = make(map[uint64][]int, len(t2s))
		for j, t2 := range t2s {
			if h, ok := t2.HashOn(k2); ok {
				buckets[h] = append(buckets[h], j)
			}
		}
	}
	matched2 := make([]bool, len(t2s))
	t := make(relation.Tuple, s.Len())
	env := expr.TupleEnv{Schema: s, Tuple: t}
	r1.Each(func(t1 relation.Tuple) {
		cands := every
		if len(k1) > 0 {
			h, ok := t1.HashOn(k1)
			if cands = nil; ok {
				cands = buckets[h]
			}
		}
		copy(t, t1)
		matched := false
		for _, j := range cands {
			copy(t[n1:], t2s[j])
			if p.Eval(&env).Holds() {
				out.Append(t)
				matched, matched2[j] = true, true
			}
		}
		if padLeft && !matched {
			nullFill(t[n1:])
			out.Append(t)
		}
	})
	if padRight {
		nullFill(t[:n1])
		for j, t2 := range t2s {
			if !matched2[j] {
				copy(t[n1:], t2)
				out.Append(t)
			}
		}
	}
	return out
}

// equiKeys returns the columns of p's conjuncts r1.a = r2.b as
// positions in r1's tuples (k1) and in r2's (k2), k1[i] paired with
// k2[i]. Columns resolve in s, the joined schema whose first n1
// attributes are r1's, exactly as p's evaluation resolves them.
func equiKeys(p expr.Pred, s *schema.Schema, n1 int) (k1, k2 []int) {
	for _, c := range expr.Conjuncts(p) {
		eq, ok := c.(expr.Cmp)
		if !ok || eq.Op != value.EQ {
			continue
		}
		l, lok := eq.L.(expr.Col)
		r, rok := eq.R.(expr.Col)
		if !lok || !rok {
			continue
		}
		i, j := s.IndexOf(l.Attr), s.IndexOf(r.Attr)
		if j < i {
			i, j = j, i
		}
		if i >= 0 && i < n1 && j >= n1 {
			k1, k2 = append(k1, i), append(k2, j-n1)
		}
	}
	return k1, k2
}

// nullFill sets every value of t to NULL.
func nullFill(t relation.Tuple) {
	for i := range t {
		t[i] = value.Null
	}
}

func allNull(t relation.Tuple) bool {
	for _, v := range t {
		if !v.IsNull() {
			return false
		}
	}
	return true
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
	return compensate(Select(p, r), preserved, func([]schema.Attribute) *relation.Relation { return r })
}

// compensate returns kept's rows followed, for each preserved
// specification, by the distinct projections onto its attributes of
// the relation source returns for them that kept's projection lacks,
// NULL-padded on kept's other attributes. kept's columns are shared,
// not copied.
func compensate(kept *relation.Relation, preserved []map[string]bool, source func([]schema.Attribute) *relation.Relation) (*relation.Relation, error) {
	s := kept.Schema()
	var pads []relation.Tuple
	for _, spec := range preserved {
		attrs := s.AttrsOfRels(spec)
		if len(attrs) == 0 {
			return nil, fmt.Errorf("algebra: preserved relations %v have no attributes in schema %s", spec, s)
		}
		missing := source(attrs).Project(attrs, true).Minus(kept.Project(attrs, true))
		for _, t := range missing.PadTo(s).Tuples() {
			// A projection that is entirely NULL (including the
			// virtual row identifiers) arises only from tuples that
			// were themselves NULL-padded on the preserved relation's
			// attributes; it represents no actual tuple of it and is
			// not preserved.
			if !allNull(t) {
				pads = append(pads, t)
			}
		}
	}
	cols, n := kept.Columns()
	out := relation.FromColumns(s, cols, n)
	out.AppendAll(pads)
	return out, nil
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
// joins MGOJ generalizes). A specification spanning both inputs
// projects the product.
func MGOJ(p expr.Pred, preserved []map[string]bool, r1, r2 *relation.Relation) (*relation.Relation, error) {
	return compensate(Join(p, r1, r2), preserved, func(attrs []schema.Attribute) *relation.Relation {
		switch {
		case containsAllAttrs(r1.Schema(), attrs):
			return r1
		case containsAllAttrs(r2.Schema(), attrs):
			return r2
		}
		return Product(r1, r2)
	})
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

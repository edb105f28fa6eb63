package core

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/simplify"
	"repro/internal/value"
)

// q5 is the Section 3 example with two *independent* complex
// predicates:
//
//	Q5 = (r1 ↔(p12∧p13) (r2 →p23 r3)) →p24 (r4 →(p45∧p46) (r5 ⋈p56 r6))
func q5() plan.Node {
	p12 := eqX("r1", "r2")
	p13 := eqY("r1", "r3")
	p23 := eqX("r2", "r3")
	p24 := eqY("r2", "r4")
	p45 := eqX("r4", "r5")
	p46 := eqY("r4", "r6")
	p56 := eqX("r5", "r6")
	left := plan.NewJoin(plan.FullJoin, expr.And(p12, p13),
		plan.NewScan("r1"),
		plan.NewJoin(plan.LeftJoin, p23, plan.NewScan("r2"), plan.NewScan("r3")))
	right := plan.NewJoin(plan.LeftJoin, expr.And(p45, p46),
		plan.NewScan("r4"),
		plan.NewJoin(plan.InnerJoin, p56, plan.NewScan("r5"), plan.NewScan("r6")))
	return plan.NewJoin(plan.LeftJoin, p24, left, right)
}

// q6 is the Section 3 example with *dependent* complex predicates:
//
//	Q6 = r1 ↔(p12∧p14) (r2 →(p23∧p24) (r3 →p34 r4))
func q6() plan.Node {
	p12 := eqX("r1", "r2")
	p14 := eqY("r1", "r4")
	p23 := eqX("r2", "r3")
	p24 := eqY("r2", "r4")
	p34 := eqX("r3", "r4")
	return plan.NewJoin(plan.FullJoin, expr.And(p12, p14),
		plan.NewScan("r1"),
		plan.NewJoin(plan.LeftJoin, expr.And(p23, p24),
			plan.NewScan("r2"),
			plan.NewJoin(plan.LeftJoin, p34, plan.NewScan("r3"), plan.NewScan("r4"))))
}

// splitTwice breaks one conjunct of the outer complex predicate and
// then one conjunct of the inner one, mirroring the paper's Q6
// procedure (independent predicate first, then its dependents),
// re-wrapping the intermediate generalized selection.
func splitTwice(t *testing.T, q plan.Node, outerIdx, innerIdx int) plan.Node {
	t.Helper()
	// Q6 as printed is not simple (its innermost outer join is
	// removable; see DESIGN.md §4a) — the paper's machinery assumes
	// simplified input, so split the simplified, equivalent form.
	q = simplify.Simplify(q)
	top := q.(*plan.Join)
	first, err := DeferConjuncts(q, top, []int{outerIdx})
	if err != nil {
		t.Fatal(err)
	}
	gs, ok := first.(*plan.GenSel)
	if !ok {
		t.Fatalf("first split should produce a generalized selection, got %s", first)
	}
	innerTree := gs.Input
	// Find the join that still carries two conjuncts.
	var target *plan.Join
	plan.Walk(innerTree, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && len(expr.Conjuncts(j.Pred)) == 2 {
			target = j
		}
	})
	if target == nil {
		t.Fatalf("no remaining complex predicate in %s", innerTree)
	}
	second, err := DeferConjuncts(innerTree, target, []int{innerIdx})
	if err != nil {
		t.Fatal(err)
	}
	return first.WithChildren([]plan.Node{second})
}

// TestQ6RecursiveSplit is experiment E6's dependent-predicate half:
// all four double-split forms of Q6 are generated and equivalent to
// the original.
func TestQ6RecursiveSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	q := q6()
	for outer := 0; outer < 2; outer++ {
		for inner := 0; inner < 2; inner++ {
			alt := splitTwice(t, q, outer, inner)
			// The root must be a GS over a GS (the paper's
			// σ*_{p}[…]σ*_{p'}[r1r2](…) shape).
			gs1, ok := alt.(*plan.GenSel)
			if !ok {
				t.Fatalf("outer=%d inner=%d: root is %T", outer, inner, alt)
			}
			if _, ok := gs1.Input.(*plan.GenSel); !ok {
				t.Fatalf("outer=%d inner=%d: expected nested generalized selections:\n%s",
					outer, inner, plan.Indent(alt))
			}
			for trial := 0; trial < 20; trial++ {
				db := randDB(rng, 4, 3, "r1", "r2", "r3", "r4")
				mustEquivalent(t, q, alt, db, "Q6 double split")
			}
		}
	}
}

// TestQ6DependentPredicateRejected pins the paper's dependent-
// predicate rule (end of Section 3): in Q6 the top predicate
// p12∧p14 spans the middle edge's two regions (it references r4
// inside the null-supplying side), so breaking the *inner* complex
// predicate before the outer one is rejected — the independent
// predicate must be broken first.
func TestQ6DependentPredicateRejected(t *testing.T) {
	q := simplify.Simplify(q6())
	var target *plan.Join
	plan.Walk(q, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && j.Kind == plan.LeftJoin && len(expr.Conjuncts(j.Pred)) == 2 {
			target = j
		}
	})
	if _, err := DeferConjuncts(q, target, []int{0}); err == nil {
		t.Fatal("breaking the dependent inner predicate first should be rejected")
	}
}

// TestQ6PaperOrderCounterexample is the concrete database showing why
// the rejection above is necessary: deferring p23 while p14 still
// rides on the full outer join preserves an (r1,r2) combination that
// the original query never produces. The double-split (outer first)
// handles the same database correctly.
func TestQ6PaperOrderCounterexample(t *testing.T) {
	mk := func(x, y int64) []value.Value { return []value.Value{value.NewInt(x), value.NewInt(y)} }
	db := plan.Database{
		"r1": newBuilder("r1", []string{"x", "y"}).Row(mk(1, 5)...).Relation(),
		"r2": newBuilder("r2", []string{"x", "y"}).Row(mk(1, 5)...).Relation(),
		"r3": newBuilder("r3", []string{"x", "y"}).Row(mk(9, 0)...).Relation(),
		"r4": newBuilder("r4", []string{"x", "y"}).Row(mk(9, 5)...).Relation(),
	}
	q := q6()
	want, err := q.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	// p23 (r2.x = r3.x) fails while p24, p34, p12, p14 all hold: the
	// original query pads r1 and preserves r2 separately.
	if want.Len() != 2 {
		t.Fatalf("expected the padded 2-row result, got:\n%s", want.String())
	}
	// The outer-first double split is equivalent on this database.
	for outer := 0; outer < 2; outer++ {
		alt := splitTwice(t, q, outer, 0)
		mustEquivalent(t, q, alt, db, "Q6 outer-first double split")
	}
}

// TestQ5IndependentSplits is E6's independent half: Q5's two complex
// predicates split independently and in either order, all variants
// equivalent.
func TestQ5IndependentSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	q := q5()
	// Collect the two complex-predicate joins.
	var targets []*plan.Join
	plan.Walk(q, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && len(expr.Conjuncts(j.Pred)) == 2 {
			targets = append(targets, j)
		}
	})
	if len(targets) != 2 {
		t.Fatalf("expected two complex predicates, found %d", len(targets))
	}
	for _, tgt := range targets {
		for idx := 0; idx < 2; idx++ {
			alt, err := DeferConjuncts(q, tgt, []int{idx})
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 15; trial++ {
				db := randDB(rng, 4, 3, "r1", "r2", "r3", "r4", "r5", "r6")
				mustEquivalent(t, q, alt, db, "Q5 single split")
			}
		}
	}
	// Both splits applied (independent predicates: order must not
	// matter for equivalence).
	first, err := DeferConjuncts(q, targets[0], []int{0})
	if err != nil {
		t.Fatal(err)
	}
	gs := first.(*plan.GenSel)
	var second *plan.Join
	plan.Walk(gs.Input, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && len(expr.Conjuncts(j.Pred)) == 2 {
			second = j
		}
	})
	inner, err := DeferConjuncts(gs.Input, second, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	both := first.WithChildren([]plan.Node{inner})
	for trial := 0; trial < 15; trial++ {
		db := randDB(rng, 4, 3, "r1", "r2", "r3", "r4", "r5", "r6")
		mustEquivalent(t, q, both, db, "Q5 double split")
	}
}

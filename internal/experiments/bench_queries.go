package experiments

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/plan"
)

// Q5 is the Section 3 example with two independent complex predicates:
//
//	Q5 = (r1 ↔(p12∧p13) (r2 →p23 r3)) →p24 (r4 →(p45∧p46) (r5 ⋈p56 r6))
//
// Its closure under the full rule set has 2752 members, which makes it
// the standard saturation workload (BenchmarkSaturateQ5 in
// internal/core).
func Q5() plan.Node {
	eqX := func(a, c string) expr.Pred { return expr.EqCols(a, "x", c, "x") }
	eqY := func(a, c string) expr.Pred { return expr.EqCols(a, "y", c, "y") }
	left := plan.NewJoin(plan.FullJoin, expr.And(eqX("r1", "r2"), eqY("r1", "r3")),
		plan.NewScan("r1"),
		plan.NewJoin(plan.LeftJoin, eqX("r2", "r3"), plan.NewScan("r2"), plan.NewScan("r3")))
	right := plan.NewJoin(plan.LeftJoin, expr.And(eqX("r4", "r5"), eqY("r4", "r6")),
		plan.NewScan("r4"),
		plan.NewJoin(plan.InnerJoin, eqX("r5", "r6"), plan.NewScan("r5"), plan.NewScan("r6")))
	return plan.NewJoin(plan.LeftJoin, eqY("r2", "r4"), left, right)
}

// Q6 is the Section 3 example with dependent complex predicates:
//
//	Q6 = r1 ↔(p12∧p14) (r2 →(p23∧p24) (r3 →p34 r4))
func Q6() plan.Node {
	eqX := func(a, c string) expr.Pred { return expr.EqCols(a, "x", c, "x") }
	eqY := func(a, c string) expr.Pred { return expr.EqCols(a, "y", c, "y") }
	return plan.NewJoin(plan.FullJoin, expr.And(eqX("r1", "r2"), eqY("r1", "r4")),
		plan.NewScan("r1"),
		plan.NewJoin(plan.LeftJoin, expr.And(eqX("r2", "r3"), eqY("r2", "r4")),
			plan.NewScan("r2"),
			plan.NewJoin(plan.LeftJoin, eqX("r3", "r4"), plan.NewScan("r3"), plan.NewScan("r4"))))
}

// StarQuery builds an n-relation inner-join star: r1 is the hub and
// r2..rn join it on x, with the last edge additionally carrying a
// complex conjunct between the two outermost satellites. Inner joins
// commute and associate freely, so the star's closure exercises the
// enumeration's join-order space (and the complex predicate gives the
// break-up rule something to defer); it is the memo property suite's
// bushy-space workload.
func StarQuery(n int) plan.Node {
	rel := func(i int) string { return fmt.Sprintf("r%d", i) }
	var node plan.Node = plan.NewScan(rel(1))
	for i := 2; i <= n; i++ {
		var pred expr.Pred = expr.EqCols(rel(1), "x", rel(i), "x")
		if i == n && n > 2 {
			pred = expr.And(pred, expr.EqCols(rel(n-1), "y", rel(n), "y"))
		}
		node = plan.NewJoin(plan.InnerJoin, pred, node, plan.NewScan(rel(i)))
	}
	return node
}

// ChainQuery builds an n-relation left-outer-join chain whose final
// edge carries a complex predicate referencing r1. Its closure grows
// fast enough with n to hit any realistic MaxPlans cap (n=7 exceeds
// 10000 plans), exercising the enumeration at scale.
func ChainQuery(n int) plan.Node {
	rel := func(i int) string { return fmt.Sprintf("r%d", i) }
	var node plan.Node = plan.NewScan(rel(1))
	for i := 2; i < n; i++ {
		node = plan.NewJoin(plan.LeftJoin, expr.EqCols(rel(i-1), "x", rel(i), "x"),
			node, plan.NewScan(rel(i)))
	}
	last := expr.And(
		expr.EqCols(rel(1), "y", rel(n), "y"),
		expr.EqCols(rel(n-1), "x", rel(n), "x"),
	)
	return plan.NewJoin(plan.LeftJoin, last, node, plan.NewScan(rel(n)))
}

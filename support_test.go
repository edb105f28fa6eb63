package reorder

import (
	"fmt"
	"math/rand"

	"repro/internal/expr"
	"repro/internal/plan"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// chainQuery builds an n-relation left-outer-join chain whose final
// edge carries a complex predicate referencing r1, exercising the
// break-up machinery during enumeration benchmarks.
func chainQuery(n int) plan.Node {
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

// countNodes returns the number of operators in the tree.
func countNodes(n plan.Node) int {
	count := 0
	plan.Walk(n, func(plan.Node) { count++ })
	return count
}

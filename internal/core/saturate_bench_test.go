package core

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
)

// chainQ is an n-relation left-outer-join chain whose final edge
// carries a complex predicate referencing r1 (the
// experiments.ChainQuery shape); n=7 exceeds a 10000-plan cap.
func chainQ(n int) plan.Node {
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

func benchSaturate(b *testing.B, q plan.Node, maxPlans int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Saturate(q, SaturateOptions{MaxPlans: maxPlans})
	}
}

// BenchmarkSaturateQ5 enumerates Q5's full closure (2752 plans) under
// a 10000-plan cap; the seed implementation took 204.7ms and 1.49M
// allocations per run.
func BenchmarkSaturateQ5(b *testing.B) {
	benchSaturate(b, q5(), 10000)
}

// BenchmarkSaturateChain7 runs the 7-relation chain, which hits the
// 10000-plan cap mid-enumeration — the capped regime large queries
// live in.
func BenchmarkSaturateChain7(b *testing.B) {
	benchSaturate(b, chainQ(7), 10000)
}

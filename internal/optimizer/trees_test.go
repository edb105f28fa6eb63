package optimizer

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/stats"
)

// query2LOJ is (r1 →p12 r2) →(p13∧p23) r3.
func query2LOJ() plan.Node {
	p12 := expr.EqCols("r1", "x", "r2", "x")
	p13 := expr.EqCols("r1", "y", "r3", "y")
	p23 := expr.EqCols("r2", "x", "r3", "x")
	return plan.NewJoin(plan.LeftJoin, expr.And(p13, p23),
		plan.NewJoin(plan.LeftJoin, p12, plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewScan("r3"))
}

func TestOptimizeTreesQuery2(t *testing.T) {
	db := dpDB()
	est := stats.NewEstimator(stats.FromDatabase(db))
	q := query2LOJ()
	res, err := New(est).OptimizeTrees(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// Query 2 has three association trees and none require dependent
	// breaking.
	if res.Considered != 3 {
		t.Errorf("considered = %d, want 3 (one plan per association tree)", res.Considered)
	}
	for _, r := range res.Plans {
		ok, err := plan.Equivalent(q, r.Plan, db)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("tree-assigned plan not equivalent:\n%s", plan.Indent(r.Plan))
		}
	}
	// The tree enumeration's best must come close to the rule-based
	// optimizer's (the tree path has one canonical plan per order; the
	// memo explores the same orders).
	mem, err := New(est).Optimize(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost > mem.Best.Cost*1.05 {
		t.Errorf("tree best %.1f much worse than memo best %.1f", res.Best.Cost, mem.Best.Cost)
	}
}

func TestOptimizeTreesInnerJoins(t *testing.T) {
	db := dpDB()
	est := stats.NewEstimator(stats.FromDatabase(db))
	q := joinChain("r1", "r2", "r3", "r4")
	res, err := New(est).OptimizeTrees(q, db)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := New(est).OptimizeDP(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// Tree enumeration must match the DP's best cost on pure joins.
	if res.Best.Cost != dp.Best.Cost {
		t.Errorf("tree best %.1f != DP best %.1f\ntree:\n%s\ndp:\n%s",
			res.Best.Cost, dp.Best.Cost, plan.Indent(res.Best.Plan), plan.Indent(dp.Best.Plan))
	}
	ok, err := plan.Equivalent(q, res.Best.Plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("tree best not equivalent")
	}
}

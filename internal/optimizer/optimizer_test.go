package optimizer

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/value"
)

// buildRel creates a relation with columns x, y filled from the given
// generator.
func buildRel(name string, rows int, gen func(i int) (int64, int64)) *relation.Relation {
	b := relation.NewBuilder(name, "x", "y")
	for i := 0; i < rows; i++ {
		x, y := gen(i)
		b.Row(value.NewInt(x), value.NewInt(y))
	}
	return b.Relation()
}

// query2 is (r1 →p12 r2) →(p13∧p23) r3 as in Section 1.1 / 2.
func query2() plan.Node {
	p12 := expr.EqCols("r1", "x", "r2", "x")
	p13 := expr.EqCols("r1", "y", "r3", "y")
	p23 := expr.EqCols("r2", "x", "r3", "x")
	return plan.NewJoin(plan.LeftJoin, expr.And(p13, p23),
		plan.NewJoin(plan.LeftJoin, p12, plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewScan("r3"))
}

func TestOptimizeSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		db := plan.Database{}
		for _, name := range []string{"r1", "r2", "r3"} {
			db[name] = buildRel(name, 1+rng.Intn(8), func(int) (int64, int64) {
				return int64(rng.Intn(3)), int64(rng.Intn(3))
			})
		}
		est := stats.NewEstimator(stats.FromDatabase(db))
		q := query2()
		res, err := New(est).Optimize(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Cost > res.Original.Cost {
			t.Errorf("best cost %f exceeds original %f", res.Best.Cost, res.Original.Cost)
		}
		ok, err := plan.Equivalent(q, res.Best.Plan, db)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("chosen plan is not equivalent to the query:\n%s", plan.Indent(res.Best.Plan))
		}
	}
}

// TestBreakupWidensPlanSpace is experiment E9's enumeration half: the
// full rule set strictly widens the plan space of Query 2, and the
// chosen plan never costs more than the baseline's choice.
func TestBreakupWidensPlanSpace(t *testing.T) {
	db := plan.Database{
		"r1": buildRel("r1", 300, func(i int) (int64, int64) { return int64(i % 5), int64(i) }),
		"r2": buildRel("r2", 200, func(i int) (int64, int64) { return int64(i % 5), int64(i % 3) }),
		"r3": buildRel("r3", 100, func(i int) (int64, int64) { return int64(i % 4), int64(i + 500) }),
	}
	est := stats.NewEstimator(stats.FromDatabase(db))
	q := query2()

	full, err := New(est).Optimize(q, db)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewBaseline(est).Optimize(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if full.Considered <= base.Considered {
		t.Errorf("break-up should enumerate more plans: full %d, baseline %d", full.Considered, base.Considered)
	}
	if full.Best.Cost > base.Best.Cost {
		t.Errorf("break-up best (%.1f) should not exceed baseline best (%.1f)", full.Best.Cost, base.Best.Cost)
	}
	ok, err := plan.Equivalent(q, full.Best.Plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("best plan not equivalent:\n%s", plan.Indent(full.Best.Plan))
	}
}

// TestPushUpBeatsBaseline is experiment E7's cost half (Example 1.1):
// when the outer side of the join is tiny (few BANKRUPT suppliers)
// and the aggregated detail relation is huge and indexed, pulling the
// aggregation above the join beats aggregating first — the paper's
// "reduction of cardinality through grouping … as a good alternative
// to the potential reduction through join", read in reverse.
func TestPushUpBeatsBaseline(t *testing.T) {
	aggCol := schema.Attr("v3", "cnt")
	buildQuery := func() plan.Node {
		gp := plan.NewGroupBy(
			[]schema.Attribute{schema.Attr("detail", "x")},
			[]algebra.Aggregate{{Func: algebra.CountStar, Out: aggCol}},
			plan.NewScan("detail"))
		pred := expr.And(
			expr.EqCols("v2", "x", "detail", "x"),
			expr.Cmp{Op: value.LT, L: expr.Column("v2", "y"),
				R: expr.Arith{Op: expr.Mul, L: expr.Int(2), R: expr.Col{Attr: aggCol}}},
		)
		return plan.NewJoin(plan.LeftJoin, pred, plan.NewScan("v2"), gp)
	}
	db := plan.Database{
		// v2: the few suppliers surviving the BANKRUPT filter.
		"v2": buildRel("v2", 8, func(i int) (int64, int64) { return int64(i * 50), int64(i) }),
		// detail: the large 95DETAIL-like relation.
		"detail": buildRel("detail", 4000, func(i int) (int64, int64) { return int64(i % 400), int64(i) }),
	}
	est := stats.NewEstimator(stats.FromDatabase(db))
	q := buildQuery()

	full, err := New(est).Optimize(q, db)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewBaseline(est).Optimize(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if full.Best.Cost >= base.Best.Cost {
		t.Errorf("push-up best (%.1f) should beat aggregate-first baseline (%.1f)",
			full.Best.Cost, base.Best.Cost)
	}
	// The winning plan joins first: its aggregation sits above the
	// join.
	joinBelowGP := false
	plan.Walk(full.Best.Plan, func(n plan.Node) {
		if gb, ok := n.(*plan.GroupBy); ok {
			if _, ok := gb.Input.(*plan.Join); ok {
				joinBelowGP = true
			}
		}
	})
	if !joinBelowGP {
		t.Errorf("winning plan should aggregate after the join:\n%s", plan.Indent(full.Best.Plan))
	}
	ok, err := plan.Equivalent(q, full.Best.Plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("best plan not equivalent:\n%s", plan.Indent(full.Best.Plan))
	}
}

// TestPushUpSeeding checks that a query with an aggregation below a
// join (the Example 1.1 shape) gets pull-up variants in its plan
// space and that the chosen plan stays correct.
func TestPushUpSeeding(t *testing.T) {
	aggCol := schema.Attr("v", "agg")
	gp := plan.NewGroupBy(
		[]schema.Attribute{schema.Attr("r2", "x")},
		[]algebra.Aggregate{{Func: algebra.CountStar, Out: aggCol}},
		plan.NewScan("r2"))
	pred := expr.And(
		expr.EqCols("r1", "x", "r2", "x"),
		expr.Cmp{Op: value.LT, L: expr.Column("r1", "y"), R: expr.Col{Attr: aggCol}},
	)
	q := plan.NewJoin(plan.LeftJoin, pred, plan.NewScan("r1"), gp)

	db := plan.Database{
		"r1": buildRel("r1", 30, func(i int) (int64, int64) { return int64(i % 10), int64(i % 4) }),
		"r2": buildRel("r2", 50, func(i int) (int64, int64) { return int64(i % 10), int64(i % 6) }),
	}
	// The plan space must include a pulled-up variant (a GroupBy
	// above the join). The memo keeps the class implicit, so read the
	// closure under the optimizer's rules directly.
	closure := core.Saturate(q, core.SaturateOptions{Rules: append(core.DefaultRules(), core.PushUpRule(db))})
	foundPulled := false
	for _, p := range closure {
		if gs, ok := p.(*plan.GenSel); ok {
			if _, ok := gs.Input.(*plan.GroupBy); ok {
				foundPulled = true
				break
			}
		}
	}
	if !foundPulled {
		t.Errorf("no pulled-up aggregation variant among %d plans", len(closure))
	}
	res, err := New(stats.NewEstimator(stats.FromDatabase(db))).Optimize(q, db)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := plan.Equivalent(q, res.Best.Plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("best plan not equivalent:\n%s", plan.Indent(res.Best.Plan))
	}
}

// TestBaselineRulesSubset ensures the baseline truly is a subset: the
// closure of Query 2 under the baseline rules lies strictly inside its
// closure under the full rule set.
func TestBaselineRulesSubset(t *testing.T) {
	q := query2()
	full := map[string]bool{}
	for _, p := range core.Saturate(q, core.SaturateOptions{Rules: core.DefaultRules()}) {
		full[plan.Key(p)] = true
	}
	base := core.Saturate(q, core.SaturateOptions{Rules: core.BaselineRules()})
	for _, p := range base {
		if !full[plan.Key(p)] {
			t.Errorf("baseline plan missing from full space: %s", p)
		}
	}
	if len(base) >= len(full) {
		t.Errorf("baseline closure has %d plans, full %d: break-up should widen it", len(base), len(full))
	}
}

// TestExplain smoke-tests the textual report.
func TestExplain(t *testing.T) {
	db := plan.Database{
		"r1": buildRel("r1", 5, func(i int) (int64, int64) { return int64(i), int64(i) }),
		"r2": buildRel("r2", 5, func(i int) (int64, int64) { return int64(i), int64(i) }),
		"r3": buildRel("r3", 5, func(i int) (int64, int64) { return int64(i), int64(i) }),
	}
	est := stats.NewEstimator(stats.FromDatabase(db))
	res, err := New(est).Optimize(query2(), db)
	if err != nil {
		t.Fatal(err)
	}
	s := Explain(res)
	if s == "" || len(s) < 40 {
		t.Errorf("explain output too short: %q", s)
	}
}

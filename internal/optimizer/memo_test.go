// The memo property suite lives in the external test package because
// it drives the seed queries of internal/experiments, which itself
// imports the optimizer.
package optimizer_test

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/value"
)

// memoBuildRel creates a relation with columns x, y filled from the
// given generator (the external-package twin of buildRel).
func memoBuildRel(name string, rows int, gen func(i int) (int64, int64)) *relation.Relation {
	b := relation.NewBuilder(name, "x", "y")
	for i := 0; i < rows; i++ {
		x, y := gen(i)
		b.Row(value.NewInt(x), value.NewInt(y))
	}
	return b.Relation()
}

// memoQuery2 is (r1 →p12 r2) →(p13∧p23) r3 as in Section 1.1 / 2.
func memoQuery2() plan.Node {
	p12 := expr.EqCols("r1", "x", "r2", "x")
	p13 := expr.EqCols("r1", "y", "r3", "y")
	p23 := expr.EqCols("r2", "x", "r3", "x")
	return plan.NewJoin(plan.LeftJoin, expr.And(p13, p23),
		plan.NewJoin(plan.LeftJoin, p12, plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewScan("r3"))
}

// memoTestDB builds r1..rn with varied sizes and skew, small enough
// that plan.Equivalent can evaluate outer-join closures directly.
func memoTestDB(n int) plan.Database {
	db := plan.Database{}
	for i := 1; i <= n; i++ {
		name := "r" + string(rune('0'+i))
		rows := 3 + (i*5)%7
		mod := 2 + i%3
		db[name] = memoBuildRel(name, rows, func(j int) (int64, int64) {
			return int64(j % mod), int64((j + i) % 3)
		})
	}
	return db
}

// pushUpQuery is the Example 1.1 shape: an aggregation below an outer
// join whose predicate references the aggregate column.
func pushUpQuery() plan.Node {
	aggCol := schema.Attr("v", "agg")
	gp := plan.NewGroupBy(
		[]schema.Attribute{schema.Attr("r2", "x")},
		[]algebra.Aggregate{{Func: algebra.CountStar, Out: aggCol}},
		plan.NewScan("r2"))
	pred := expr.And(
		expr.EqCols("r1", "x", "r2", "x"),
		expr.Cmp{Op: value.LT, L: expr.Column("r1", "y"), R: expr.Col{Attr: aggCol}},
	)
	return plan.NewJoin(plan.LeftJoin, pred, plan.NewScan("r1"), gp)
}

// memoSeeds are the property suite's queries: the paper's Section 3
// examples, an outer-join chain, an inner-join star, the Section 1.1
// outer-join query and the aggregation push-up shape.
func memoSeeds() []struct {
	name string
	q    plan.Node
	rels int
} {
	return []struct {
		name string
		q    plan.Node
		rels int
	}{
		{"query2", memoQuery2(), 3},
		{"Q5", experiments.Q5(), 6},
		{"Q6", experiments.Q6(), 4},
		{"chain4", experiments.ChainQuery(4), 4},
		{"chain5", experiments.ChainQuery(5), 5},
		{"star4", experiments.StarQuery(4), 4},
		{"pushup", pushUpQuery(), 2},
	}
}

// optimizeWith runs one optimization with the given worker count on a
// fresh registry, returning the result and the registry snapshot.
func optimizeWith(t *testing.T, q plan.Node, db plan.Database, workers int) (*optimizer.Result, map[string]int64) {
	t.Helper()
	reg := obs.NewRegistry()
	est := stats.NewEstimator(stats.FromDatabase(db))
	o := optimizer.New(est)
	o.Opts.Workers = workers
	o.Opts.Obs = reg
	res, err := o.Optimize(q, db)
	if err != nil {
		t.Fatalf("optimize (workers=%d): %v", workers, err)
	}
	return res, reg.Snapshot().Counters
}

// TestMemoMatchesSaturate is the correctness pin for the memo engine:
// for every seed query, extraction from the memo returns the same
// best cost as the exhaustive saturate-and-rank oracle
// (saturationRanking), and the same best plan (modulo cost ties, where
// the memo's winner must be one of the oracle's plans sharing the
// minimal cost). Run under -race by make race.
func TestMemoMatchesSaturate(t *testing.T) {
	for _, tc := range memoSeeds() {
		t.Run(tc.name, func(t *testing.T) {
			db := memoTestDB(tc.rels)
			mem, counters := optimizeWith(t, tc.q, db, 1)
			sat, ranked := saturationRanking(t, tc.q, db, 20000)
			if counters["optimizer.memo_runs"] != 1 {
				t.Fatalf("memo engine did not run (counters %v)", counters)
			}
			if mem.Best.Cost != sat.Best.Cost {
				t.Fatalf("memo best cost %.6f != saturate best cost %.6f\nmemo: %s\nsat:  %s",
					mem.Best.Cost, sat.Best.Cost, mem.Best.Plan, sat.Best.Plan)
			}
			if plan.Key(mem.Best.Plan) != plan.Key(sat.Best.Plan) {
				// Cost tie: the memo may surface a different minimal
				// plan, but it must be one saturation also found at
				// exactly the best cost.
				tied := map[string]bool{}
				for _, r := range ranked {
					if r.Cost == sat.Best.Cost {
						tied[plan.Key(r.Plan)] = true
					}
				}
				if !tied[plan.Key(mem.Best.Plan)] {
					t.Fatalf("memo best is not among saturation's minimal-cost plans:\n%s", plan.Indent(mem.Best.Plan))
				}
			}
			if mem.Original.Cost != sat.Original.Cost {
				t.Errorf("original cost differs: memo %.6f, saturate %.6f", mem.Original.Cost, sat.Original.Cost)
			}
			if verr := plan.Validate(mem.Best.Plan, db); verr != nil {
				t.Fatalf("memo best plan fails validation: %v\n%s", verr, plan.Indent(mem.Best.Plan))
			}
			ok, err := plan.Equivalent(tc.q, mem.Best.Plan, db)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("memo best plan is not equivalent to the query:\n%s", plan.Indent(mem.Best.Plan))
			}
			if len(mem.RuleFirings) == 0 {
				t.Error("memo path reported no rule firings")
			}
			if counters["optimizer.plans_enumerated"] != int64(mem.Considered) {
				t.Errorf("plans_enumerated %d != Considered %d", counters["optimizer.plans_enumerated"], mem.Considered)
			}
		})
	}
}

// TestMemoWorkersDeterministic: parallel memo exploration produces
// the identical memo — same expression count, same winner, same cost,
// same rule firings — for any worker count.
func TestMemoWorkersDeterministic(t *testing.T) {
	for _, tc := range memoSeeds() {
		t.Run(tc.name, func(t *testing.T) {
			db := memoTestDB(tc.rels)
			serial, _ := optimizeWith(t, tc.q, db, 1)
			for _, w := range []int{2, 4, -1} {
				par, _ := optimizeWith(t, tc.q, db, w)
				if par.Considered != serial.Considered {
					t.Fatalf("workers=%d considered %d exprs, serial %d", w, par.Considered, serial.Considered)
				}
				if plan.Key(par.Best.Plan) != plan.Key(serial.Best.Plan) || par.Best.Cost != serial.Best.Cost {
					t.Fatalf("workers=%d best (%s, %.4f) != serial (%s, %.4f)",
						w, plan.Key(par.Best.Plan), par.Best.Cost, plan.Key(serial.Best.Plan), serial.Best.Cost)
				}
				for r, n := range serial.RuleFirings {
					if par.RuleFirings[r] != n {
						t.Fatalf("workers=%d firing count for %s: %d vs serial %d", w, r, par.RuleFirings[r], n)
					}
				}
			}
		})
	}
}

// TestMemoPrunes: branch-and-bound extraction must actually prune on
// a workload with a non-trivial group structure.
func TestMemoPrunes(t *testing.T) {
	db := memoTestDB(6)
	_, counters := optimizeWith(t, experiments.Q5(), db, 1)
	if counters["memo.pruned"] == 0 {
		t.Error("extraction reported no branch-and-bound prunes on Q5")
	}
	if counters["memo.groups"] == 0 || counters["memo.exprs"] == 0 {
		t.Errorf("memo counters missing: %v", counters)
	}
	if counters["memo.extract_ns"] == 0 {
		t.Error("memo.extract_ns not reported")
	}
}

// TestMemoDerivationReplays: the derivation chain the memo attaches
// to the winner is non-trivial whenever the winner differs from the
// query, and every named rule exists in the rule set.
func TestMemoDerivationReplays(t *testing.T) {
	db := memoTestDB(6)
	q := experiments.Q5()
	res, _ := optimizeWith(t, q, db, 1)
	if plan.Key(res.Best.Plan) != plan.Key(q) && len(res.Best.Derivation) == 0 {
		t.Fatal("winner differs from the query but has an empty derivation chain")
	}
	known := map[string]bool{"simplify-outer-joins": true, "push-up-aggregation": true}
	for _, r := range coreDefaultRuleNames() {
		known[r] = true
	}
	for _, step := range res.Best.Derivation {
		if !known[step] {
			t.Errorf("derivation step %q is not a known rule", step)
		}
	}
}

// TestMemoRejectsUnscopedRule: a rule that declares no group-local
// scope is an error naming the rule, not a silent switch to another
// engine.
func TestMemoRejectsUnscopedRule(t *testing.T) {
	db := memoTestDB(3)
	o := optimizer.New(stats.NewEstimator(stats.FromDatabase(db)))
	o.Opts.Obs = obs.NewRegistry()
	o.Opts.Rules = []core.Rule{{Name: "unscoped-commute", Apply: core.RuleCommute.Apply}}
	if _, err := o.Optimize(memoQuery2(), db); err == nil || !strings.Contains(err.Error(), `"unscoped-commute"`) {
		t.Fatalf("Optimize err = %v, want an error naming the unscoped rule", err)
	}
}

// TestMemoRejectsUnpatternedChildRule: a ScopeChild rule that declares
// no operator-kind patterns is an error naming the rule, not a rule
// bound to every child binding.
func TestMemoRejectsUnpatternedChildRule(t *testing.T) {
	db := memoTestDB(3)
	o := optimizer.New(stats.NewEstimator(stats.FromDatabase(db)))
	o.Opts.Obs = obs.NewRegistry()
	o.Opts.Rules = []core.Rule{{Name: "unpatterned-assoc", Scope: core.ScopeChild, Apply: core.RuleAssocLeft.Apply}}
	if _, err := o.Optimize(memoQuery2(), db); err == nil || !strings.Contains(err.Error(), `"unpatterned-assoc"`) {
		t.Fatalf("Optimize err = %v, want an error naming the rule without patterns", err)
	}
}

func coreDefaultRuleNames() []string {
	return []string{"commute", "assoc-inner", "assoc-left", "join-loj", "assoc-full",
		"select-pushdown", "select-merge", "mgoj-intro", "split"}
}

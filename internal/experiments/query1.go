package experiments

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/value"
)

// V1Count is view V_1's generated column c (a count).
var V1Count = schema.Attr("v1", "c")

// Query1 builds the paper's very first example (Section 1.1):
//
//	View V1: Select r1.c as a, r2.d as b, c = count(r1)
//	         From r1, r2 Where r1.b θ1 r2.b Groupby r1.c, r2.d
//	Query 1: Select r3.a, r4.b, V1.b
//	         From (Select * from V1 LeftOuterJoin r3 On r3.b θ2 V1.c), r4
//	         Where r4.b = V1.b
//
// The outer join predicate references the aggregated column c, which
// is why no prior algorithm could reorder the query: "if predicate
// r4.b = V1.b is highly filtering then it may be beneficial to
// perform this join first, before performing the aggregation".
func Query1() plan.Node {
	v1 := plan.NewGroupBy(
		[]schema.Attribute{schema.Attr("r1", "c"), schema.Attr("r2", "d")},
		[]algebra.Aggregate{algebra.CountRel("r1", V1Count)},
		plan.NewJoin(plan.InnerJoin, expr.EqCols("r1", "b", "r2", "b"),
			plan.NewScan("r1"), plan.NewScan("r2")))
	loj := plan.NewJoin(plan.LeftJoin,
		expr.Cmp{Op: value.GE, L: expr.Column("r3", "b"), R: expr.Col{Attr: V1Count}},
		v1, plan.NewScan("r3"))
	return plan.NewJoin(plan.InnerJoin,
		expr.EqCols("r4", "b", "r2", "d"), // r4.b = V1.b, resolved through the view
		loj, plan.NewScan("r4"))
}

// e14Sizes are the |r4| E14 sweeps.
var e14Sizes = []int{2, 20, 200}

// E14 reproduces Query 1: the optimizer pushes the aggregation above
// both joins and reorders the highly filtering r4 join below it, as
// the paper's introduction promises.
func E14() string {
	var b strings.Builder
	b.WriteString("E14 — Query 1 (Section 1.1): outer join over an aggregated column\n\n")
	q := Query1()
	b.WriteString("as written:\n" + plan.Indent(q) + "\n")
	for _, r4Rows := range e14Sizes {
		db := Query1DB(r4Rows)
		est := stats.NewEstimator(stats.FromDatabase(db))
		full, err := optimizer.New(est).Optimize(q, db)
		if err != nil {
			return err.Error()
		}
		base, err := optimizer.NewBaseline(est).Optimize(q, db)
		if err != nil {
			return err.Error()
		}
		want, err := executor.Run(q, db)
		if err != nil {
			return err.Error()
		}
		got, err := executor.Run(full.Best.Plan, db)
		if err != nil {
			return err.Error()
		}
		equal := got.EqualAsSets(want)
		tAsIs := timeRun(q, db)
		tBest := timeRun(full.Best.Plan, db)
		fmt.Fprintf(&b, "|r4|=%-4d plans %4d (baseline %d)  cost %8.0f -> %8.0f  time %10s -> %10s  equal=%v\n",
			r4Rows, full.Considered, base.Considered, base.Best.Cost, full.Best.Cost, tAsIs, tBest, equal)
	}
	db := Query1DB(2)
	est := stats.NewEstimator(stats.FromDatabase(db))
	full, err := optimizer.New(est).Optimize(q, db)
	if err != nil {
		return err.Error()
	}
	b.WriteString("\nchosen plan for |r4|=2 (aggregation last, r4 joined early):\n")
	b.WriteString(plan.Indent(full.Best.Plan))
	if len(full.Best.Derivation) > 0 {
		b.WriteString("derivation: " + strings.Join(full.Best.Derivation, " -> ") + "\n")
	}
	return b.String()
}

// Query1DB generates the Query 1 workload; r4Rows controls how
// filtering the r4 join is.
func Query1DB(r4Rows int) plan.Database {
	rng := newSeeded(141)
	db := plan.Database{}
	mk := func(name string, cols []string, rows, domain int) {
		bld := relation.NewBuilder(name, cols...)
		for i := 0; i < rows; i++ {
			vals := make([]value.Value, len(cols))
			for j := range cols {
				vals[j] = value.NewInt(int64(rng.Intn(domain)))
			}
			bld.Row(vals...)
		}
		db[name] = bld.Relation()
	}
	// r1 ⋈ r2 fans out heavily; r3 is small so the outer join's
	// range predicate does not dominate; r4's selectivity is the
	// experiment's sweep variable.
	mk("r1", []string{"b", "c"}, 3000, 50)
	mk("r2", []string{"b", "d"}, 3000, 50)
	mk("r3", []string{"a", "b"}, 10, 5000)
	mk("r4", []string{"b"}, r4Rows, 50)
	return db
}

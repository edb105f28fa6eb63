package optimizer

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/stats"
)

// parTestDB gives query2's relations enough skew that the closure has
// a clear, unique cost minimum.
func parTestDB() plan.Database {
	return plan.Database{
		"r1": buildRel("r1", 240, func(i int) (int64, int64) { return int64(i % 6), int64(i) }),
		"r2": buildRel("r2", 160, func(i int) (int64, int64) { return int64(i % 6), int64(i % 4) }),
		"r3": buildRel("r3", 90, func(i int) (int64, int64) { return int64(i % 5), int64(i % 4) }),
	}
}

// inner4Loj is the cold_plan template inner4_loj lowered over its
// 7-relation chain, a shape whose exploration merges groups.
func inner4Loj(t *testing.T) (plan.Node, plan.Database) {
	t.Helper()
	db := datagen.Chain(7, datagen.UniformConfig{Rows: 300, Domain: 150, NullFrac: 0.05}, 1996)
	stmt, err := sql.Parse("select r1.y, r5.x from r1 join r2 on r1.x = r2.x join r3 on r2.y = r3.y join r4 on r3.x = r4.x " +
		"left join r5 on r4.y = r5.y where r1.x = 7")
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Lower(stmt, db)
	if err != nil {
		t.Fatal(err)
	}
	return q, db
}

// TestOptimizeWorkersDeterministic: exploration is serial, so every
// run is observationally identical to the first — same expression
// count, same best plan and cost, same rule firings — on query2 and on
// a shape whose groups merge (inner4_loj), where merges happen
// mid-wave.
func TestOptimizeWorkersDeterministic(t *testing.T) {
	q4l, db4l := inner4Loj(t)
	for _, tc := range []struct {
		name string
		q    plan.Node
		db   plan.Database
	}{{"query2", query2(), parTestDB()}, {"inner4_loj", q4l, db4l}} {
		t.Run(tc.name, func(t *testing.T) { checkWorkersDeterministic(t, tc.q, tc.db, tc.name == "inner4_loj") })
	}
}

func checkWorkersDeterministic(t *testing.T, q plan.Node, db plan.Database, merges bool) {
	run := func() *Result {
		est := stats.NewEstimator(stats.FromDatabase(db))
		o := New(est)
		o.Opts.Obs = obs.NewRegistry()
		res, err := o.Optimize(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if n := o.Opts.Obs.Counter("memo.merges").Value(); merges && n == 0 {
			t.Fatal("no groups merged")
		}
		return res
	}
	first := run()
	for i := 2; i <= 4; i++ {
		again := run()
		if again.Considered != first.Considered {
			t.Fatalf("run %d considered %d plans, first %d", i, again.Considered, first.Considered)
		}
		pb, sb := again.Best, first.Best
		if plan.Key(pb.Plan) != plan.Key(sb.Plan) || pb.Cost != sb.Cost || pb.Rows != sb.Rows {
			t.Fatalf("run %d best (%s, %.4f, %.1f rows) != first (%s, %.4f, %.1f rows)",
				i, plan.Key(pb.Plan), pb.Cost, pb.Rows, plan.Key(sb.Plan), sb.Cost, sb.Rows)
		}
		if len(again.RuleFirings) != len(first.RuleFirings) {
			t.Fatalf("run %d rule firings differ: %v vs %v", i, again.RuleFirings, first.RuleFirings)
		}
		for r, n := range first.RuleFirings {
			if again.RuleFirings[r] != n {
				t.Fatalf("run %d firing count for %s: %d vs first %d", i, r, again.RuleFirings[r], n)
			}
		}
	}
}

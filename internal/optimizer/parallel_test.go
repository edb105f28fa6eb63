package optimizer

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
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

// TestOptimizeWorkersDeterministic: a parallel optimization run is
// observationally identical to the serial run — same expression count,
// same best plan and cost, same rule firings.
func TestOptimizeWorkersDeterministic(t *testing.T) {
	db := parTestDB()
	q := query2()
	run := func(workers int) *Result {
		est := stats.NewEstimator(stats.FromDatabase(db))
		o := New(est)
		o.Opts.Workers = workers
		o.Opts.Obs = obs.NewRegistry()
		res, err := o.Optimize(q, db)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, w := range []int{2, 4, -1} {
		par := run(w)
		if par.Considered != serial.Considered {
			t.Fatalf("workers=%d considered %d plans, serial %d", w, par.Considered, serial.Considered)
		}
		pb, sb := par.Best, serial.Best
		if plan.Key(pb.Plan) != plan.Key(sb.Plan) || pb.Cost != sb.Cost || pb.Rows != sb.Rows {
			t.Fatalf("workers=%d best (%s, %.4f, %.1f rows) != serial (%s, %.4f, %.1f rows)",
				w, plan.Key(pb.Plan), pb.Cost, pb.Rows, plan.Key(sb.Plan), sb.Cost, sb.Rows)
		}
		if len(par.RuleFirings) != len(serial.RuleFirings) {
			t.Fatalf("workers=%d rule firings differ: %v vs %v", w, par.RuleFirings, serial.RuleFirings)
		}
		for r, n := range serial.RuleFirings {
			if par.RuleFirings[r] != n {
				t.Fatalf("workers=%d firing count for %s: %d vs serial %d", w, r, par.RuleFirings[r], n)
			}
		}
	}
}

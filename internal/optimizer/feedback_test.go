package optimizer

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/stats/feedback"
)

// TestFeedbackCorrectsWholeGroup: a feedback correction is recorded
// under the key Result.Estimates reports for a memo group — its
// representative's — and replaces the estimate of the whole group,
// whichever member wins. Here the query is written (r1 ⋈ r2) ⋈ r3 but
// the winner brackets it otherwise, so the correction must reach a
// member whose own plan.Key is not the one it was recorded under.
func TestFeedbackCorrectsWholeGroup(t *testing.T) {
	db := plan.Database{
		"r1": buildRel("r1", 400, func(i int) (int64, int64) { return int64(i % 40), int64(i % 7) }),
		"r2": buildRel("r2", 400, func(i int) (int64, int64) { return int64(i % 40), int64(i % 50) }),
		"r3": buildRel("r3", 3, func(i int) (int64, int64) { return int64(i), int64(i) }),
	}
	q := plan.NewJoin(plan.InnerJoin, expr.EqCols("r2", "y", "r3", "y"),
		plan.NewJoin(plan.InnerJoin, expr.EqCols("r1", "x", "r2", "x"), plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewScan("r3"))
	fb := feedback.New(feedback.Options{})
	optimize := func() *Result {
		o := New(stats.NewEstimator(stats.FromDatabase(db)))
		o.Opts.Feedback = fb
		res, err := o.Optimize(q, db)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := optimize()
	root := first.Estimates[first.Best.Plan]
	if root.Key != plan.Key(q) {
		t.Fatalf("the query's group is keyed %q, want its representative's %q", root.Key, plan.Key(q))
	}
	if plan.Key(first.Best.Plan) == root.Key {
		t.Fatalf("the winner is the representative itself; the test needs another member:\n%s", plan.Indent(first.Best.Plan))
	}
	if first.FeedbackCorrections != 0 {
		t.Fatalf("a cold store corrected %d estimates", first.FeedbackCorrections)
	}
	const actual = 5000
	if err := fb.Record(root.Key, root.Rows, actual); err != nil {
		t.Fatal(err)
	}
	again := optimize()
	if got := again.Estimates[again.Best.Plan]; got.Rows != actual || got.Key != root.Key {
		t.Errorf("re-optimized winner %s is estimated at (%v rows, key %q), want the correction (%v rows, key %q)",
			again.Best.Plan, got.Rows, got.Key, float64(actual), root.Key)
	}
	if again.Best.Rows != actual {
		t.Errorf("Best.Rows = %v, want the correction %v", again.Best.Rows, float64(actual))
	}
	if again.FeedbackCorrections == 0 {
		t.Error("FeedbackCorrections = 0 after a correction of the query's group")
	}
	for n, est := range again.Estimates {
		if len(n.Children()) > 0 && est.Key == "" {
			t.Errorf("composite node %s has no feedback key", n)
		}
	}
}

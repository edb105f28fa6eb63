// Fault-injection property suite for the optimizer: every registered
// guard point that fires during an optimization, when armed to fail or
// panic, must surface as a typed guard error or a degraded-but-valid
// plan — never a hang, an uncontained panic, or a silently wrong
// result. Runs under -race via make race.
package optimizer_test

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/stats/feedback"
)

// faultMaxPlans bounds each enumeration so the full
// point × mode × arm × worker matrix stays fast.
const faultMaxPlans = 1500

// faultSeeds is the injection matrix's query set: the Section 1.1/2
// outer-join query, the paper's Q5 and Q6, a seven-relation chain and
// a four-relation star.
func faultSeeds() []struct {
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
		{"chain7", experiments.ChainQuery(7), 7},
		{"star4", experiments.StarQuery(4), 4},
	}
}

// faultArms are the optimizer paths the fault suites cover: the plain
// memo run; "ordered", a root ORDER BY, so extraction runs its order
// contexts; and "feedback", a feedback store attached, so
// feedback.lookup fires inside extraction.
var faultArms = []string{"memo", "ordered", "feedback"}

// faultRun is one guarded optimization configuration.
type faultRun struct {
	arm     string // one of faultArms
	workers int
	ctx     context.Context // nil means context.Background()
	limits  *guard.Limits   // nil means no budget threaded at all
}

// query is q as the arm optimizes it: on the ordered arm, sorted on
// its first non-virtual column.
func (fr faultRun) query(t *testing.T, q plan.Node, db plan.Database) plan.Node {
	t.Helper()
	if fr.arm != "ordered" {
		return q
	}
	s, err := q.Schema(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range s.Attrs() {
		if !a.Virtual {
			return plan.NewSort([]plan.SortKey{{Attr: a}}, -1, q)
		}
	}
	t.Fatalf("no sortable column in %s", q)
	return nil
}

// optimize runs q under the configuration on a fresh registry and
// returns the result, the registry's counters and the error — unlike
// optimizeWith it never fails the test itself, so callers can assert
// on the error classification.
func (fr faultRun) optimize(q plan.Node, db plan.Database) (*optimizer.Result, map[string]int64, error) {
	reg := obs.NewRegistry()
	est := stats.NewEstimator(stats.FromDatabase(db))
	o := optimizer.New(est)
	o.Opts.Workers = fr.workers
	if fr.arm == "feedback" {
		o.Opts.Feedback = feedback.New(feedback.Options{Obs: reg})
	}
	o.Opts.Obs = reg
	o.Opts.MaxPlans = faultMaxPlans
	if fr.limits != nil {
		ctx := fr.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		o.Opts.Budget = guard.New(ctx, *fr.limits, reg)
	}
	res, err := o.Optimize(q, db)
	return res, reg.Snapshot().Counters, err
}

// firedPoints runs one clean optimization with counting hooks armed at
// every registered point and returns the points that actually fired
// for this (query, arm, workers) combination.
func firedPoints(t *testing.T, fr faultRun, q plan.Node, db plan.Database) []guard.Point {
	t.Helper()
	counts := map[guard.Point]*atomic.Int64{}
	for _, p := range guard.Points() {
		c := &atomic.Int64{}
		counts[p] = c
		guard.Inject(p, func(guard.Point) error { c.Add(1); return nil })
	}
	defer guard.Clear()
	if _, _, err := fr.optimize(q, db); err != nil {
		t.Fatalf("recording run failed: %v", err)
	}
	var fired []guard.Point
	for _, p := range guard.Points() {
		if counts[p].Load() > 0 {
			fired = append(fired, p)
		}
	}
	if len(fired) == 0 {
		t.Fatal("no guard points fired during a full optimization")
	}
	return fired
}

// TestOptimizerFaultMatrix: for every seed query, arm and worker
// count (Options.Workers is ignored, so w4 must behave as w1 does),
// discover which guard points the run crosses, then arm each
// one to (a) fail with a typed error and (b) panic, and assert the
// outcome is always classified: an injected error surfaces as
// guard.ErrInjected, a panic as *guard.PanicError, and a nil error
// only ever comes with a structurally valid plan.
func TestOptimizerFaultMatrix(t *testing.T) {
	defer guard.Clear()
	lim := &guard.Limits{}
	for _, tc := range faultSeeds() {
		for _, arm := range faultArms {
			for _, workers := range []int{1, 4} {
				fr := faultRun{arm: arm, workers: workers, limits: lim}
				name := tc.name + "/" + arm + "/w" + string(rune('0'+workers))
				t.Run(name, func(t *testing.T) {
					db := memoTestDB(tc.rels)
					q := fr.query(t, tc.q, db)
					for _, p := range firedPoints(t, fr, q, db) {
						t.Run(string(p)+"/error", func(t *testing.T) {
							guard.InjectError(p)
							defer guard.Clear()
							res, _, err := fr.optimize(q, db)
							assertFaultOutcome(t, res, err, db, guard.IsInjected, "injected error")
						})
						t.Run(string(p)+"/panic", func(t *testing.T) {
							guard.InjectPanic(p)
							defer guard.Clear()
							res, _, err := fr.optimize(q, db)
							assertFaultOutcome(t, res, err, db, guard.IsPanic, "contained panic")
						})
					}
				})
			}
		}
	}
}

// assertFaultOutcome encodes the suite's invariant: either the run
// failed with exactly the expected typed error, or it completed with a
// plan that passes the structural invariant checker.
func assertFaultOutcome(t *testing.T, res *optimizer.Result, err error, db plan.Database, typed func(error) bool, want string) {
	t.Helper()
	if err != nil {
		if !typed(err) {
			t.Fatalf("error is not a %s: %v", want, err)
		}
		return
	}
	if res == nil || res.Best.Plan == nil {
		t.Fatal("nil error but no plan")
	}
	if verr := plan.Validate(res.Best.Plan, db); verr != nil {
		t.Fatalf("fault survived with an invalid plan: %v\n%s", verr, plan.Indent(res.Best.Plan))
	}
}

// TestOptimizerCancelledContext: a context cancelled before the run
// starts aborts every arm with guard.ErrCancelled before exploration,
// and the registry records the cancellation.
func TestOptimizerCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db := memoTestDB(6)
	for _, arm := range faultArms {
		t.Run(arm, func(t *testing.T) {
			fr := faultRun{arm: arm, workers: 1, ctx: ctx, limits: &guard.Limits{}}
			_, counters, err := fr.optimize(fr.query(t, experiments.Q5(), db), db)
			if !guard.IsCancelled(err) {
				t.Fatalf("err = %v, want guard.ErrCancelled", err)
			}
			if counters["guard.cancelled"] == 0 {
				t.Errorf("guard.cancelled counter not bumped: %v", counters)
			}
		})
	}
}

// TestOptimizerBudgetDegrades: a tight expression budget must not fail
// the run — it degrades to a best-effort plan that is structurally
// valid and semantically equivalent to the query, with the trip and
// the degradation visible in the counters.
func TestOptimizerBudgetDegrades(t *testing.T) {
	for _, tc := range faultSeeds() {
		for _, arm := range faultArms {
			t.Run(tc.name+"/"+arm, func(t *testing.T) {
				db := memoTestDB(tc.rels)
				fr := faultRun{arm: arm, workers: 1, limits: &guard.Limits{MaxExprs: 3}}
				q := fr.query(t, tc.q, db)
				res, counters, err := fr.optimize(q, db)
				if err != nil {
					t.Fatalf("budget trip must degrade, not fail: %v", err)
				}
				if res.Degraded == "" {
					t.Fatal("MaxExprs=3 run did not report degradation")
				}
				if counters["guard.budget_trips.exprs"] == 0 {
					t.Errorf("guard.budget_trips.exprs not bumped: %v", counters)
				}
				if counters["guard.degraded"] == 0 {
					t.Errorf("guard.degraded not bumped: %v", counters)
				}
				if verr := plan.Validate(res.Best.Plan, db); verr != nil {
					t.Fatalf("degraded plan fails validation: %v\n%s", verr, plan.Indent(res.Best.Plan))
				}
				ok, eqErr := plan.Equivalent(q, res.Best.Plan, db)
				if eqErr != nil {
					t.Fatal(eqErr)
				}
				if !ok {
					t.Fatalf("degraded plan is not equivalent to the query:\n%s", plan.Indent(res.Best.Plan))
				}
			})
		}
	}
}

// TestOptimizerBudgetUntrippedDeterministic is the determinism gate:
// threading a budget that never trips must not change the outcome —
// same expression count, same winner, same cost as the unbudgeted run,
// at any value of the ignored Options.Workers.
func TestOptimizerBudgetUntrippedDeterministic(t *testing.T) {
	huge := &guard.Limits{MaxExprs: 1 << 40}
	for _, tc := range faultSeeds() {
		for _, arm := range faultArms {
			t.Run(tc.name+"/"+arm, func(t *testing.T) {
				db := memoTestDB(tc.rels)
				bare := faultRun{arm: arm, workers: 1}
				q := bare.query(t, tc.q, db)
				base, _, err := bare.optimize(q, db)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					fr := faultRun{arm: arm, workers: workers, limits: huge}
					res, counters, err := fr.optimize(q, db)
					if err != nil {
						t.Fatal(err)
					}
					// chain7 stops at MaxPlans with or without a budget.
					if res.Degraded != base.Degraded {
						t.Fatalf("untripped budget degraded: %q, unbudgeted %q", res.Degraded, base.Degraded)
					}
					if counters["guard.budget_trips.exprs"] != 0 {
						t.Fatalf("untripped budget recorded a trip: %v", counters)
					}
					if res.Considered != base.Considered {
						t.Errorf("workers=%d considered %d, unbudgeted %d", workers, res.Considered, base.Considered)
					}
					if plan.Key(res.Best.Plan) != plan.Key(base.Best.Plan) || res.Best.Cost != base.Best.Cost {
						t.Errorf("workers=%d best (%s, %.4f) != unbudgeted (%s, %.4f)",
							workers, plan.Key(res.Best.Plan), res.Best.Cost,
							plan.Key(base.Best.Plan), base.Best.Cost)
					}
				}
			})
		}
	}
}

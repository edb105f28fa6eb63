package reorder

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/guard"
	"repro/internal/plan"
)

// skewQuery is the workload whose static estimate is catastrophically
// wrong, so the static optimizer picks the wrong join order. fact.k is
// zipfian and k = 2 is not one of its heavy hitters: the statistics
// estimate it at the mean share of the values their list omits, well
// below its real share. fact.v is a pure function of fact.k, so the
// product of the two conjuncts' selectivities is wrong again. The query
// binds k = 2 rather than the heavy hitter k = 0, whose exact fraction
// the list holds and the estimator reads.
const skewQuery = "select fact.k, count(*) as n from fact, d1, d2 " +
	"where fact.j = d1.j and d1.a = d2.a and fact.k = 2 and fact.v = 2 and d2.tag = 0 group by fact.k"

// testSkewConfig is a scaled-down DefaultSkewConfig for unit-test
// runtimes; it preserves the q-error (zipf share vs uniform share is
// size-independent).
var testSkewConfig = datagen.SkewConfig{
	FactRows: 4000, DimRows: 8000, TagRows: 400,
	Keys: 100, ZipfS: 1.2, CorrMod: 10,
	JoinDomain: 400, ADomain: 400, TagDomain: 10, Seed: 7,
}

func feedbackService(t *testing.T, feedback bool, replanAfter int) *Service {
	t.Helper()
	svc, err := NewService(ServiceConfig{
		DB:             datagen.Skewed(testSkewConfig),
		Feedback:       feedback,
		ReplanQError:   10,
		ReplanAfter:    replanAfter,
		DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestServiceFeedbackConvergence is the feedback loop end to end: the
// first execution's q-error trips the drift detector, a re-plan lands
// within 5 requests, and by the end of the run the corrected plan's
// estimates hold (q-error back under the threshold) with every
// transition visible in the counters.
func TestServiceFeedbackConvergence(t *testing.T) {
	svc := feedbackService(t, true, 2)
	ctx := context.Background()
	var resps []*Response
	for i := 0; i < 12; i++ {
		resp, err := svc.Query(ctx, Request{SQL: skewQuery})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		resps = append(resps, resp)
	}
	if resps[0].MaxQError < 10 {
		t.Fatalf("first run MaxQError = %.1f, want ≥ 10 (the workload must misestimate)", resps[0].MaxQError)
	}
	replanBy := -1
	for i, r := range resps {
		if r.Replanned {
			replanBy = i
			break
		}
	}
	if replanBy < 0 || replanBy > 4 {
		t.Fatalf("first replan at request %d, want within 5 requests", replanBy)
	}
	last := resps[len(resps)-1]
	if last.MaxQError >= 10 {
		t.Fatalf("steady-state MaxQError = %.1f, want < 10 (corrected plan's estimates must hold)", last.MaxQError)
	}
	if last.PlanKey == resps[0].PlanKey {
		t.Fatal("re-planning never changed the plan")
	}
	if last.ReplanGen == 0 {
		t.Fatal("ReplanGen = 0 after replans")
	}
	if last.FeedbackCorrections == 0 {
		t.Fatal("steady-state plan reports no feedback corrections")
	}
	// All results identical across plan generations.
	for i, r := range resps[1:] {
		if len(r.Rows) != len(resps[0].Rows) {
			t.Fatalf("run %d returned %d rows, run 0 returned %d", i+1, len(r.Rows), len(resps[0].Rows))
		}
	}
	snap := svc.Observer().Registry.Snapshot()
	for _, c := range []string{"feedback.corrections", "feedback.drift_trips", "feedback.replans", "plancache.refreshes"} {
		if snap.Counters[c] == 0 {
			t.Fatalf("counter %s = 0, want > 0", c)
		}
	}
	// The flight recorder carries the feedback counters per request.
	recs := svc.Observer().Flight.Snapshot()
	found := false
	for _, rec := range recs {
		if rec.Counters["feedback.replans"] > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no flight record carries feedback.replans")
	}
}

// TestServiceFeedbackQErrorHistogram: a feedback-mode request observes
// each composite operator's q-error into executor.qerror_milli{op}, so
// the service's /metrics carries the histogram after one query.
func TestServiceFeedbackQErrorHistogram(t *testing.T) {
	svc := feedbackService(t, true, 100)
	if _, err := svc.Query(context.Background(), Request{SQL: skewQuery}); err != nil {
		t.Fatal(err)
	}
	var n int64
	for name, h := range svc.Observer().Registry.Snapshot().Histograms {
		if strings.HasPrefix(name, "executor.qerror_milli{op=") {
			n += h.Count
		}
	}
	if n == 0 {
		t.Fatal("no executor.qerror_milli observation after a feedback-mode query")
	}
}

// TestServiceFeedbackOffStable: with feedback off (the default) the
// serving path never replans, reports no feedback metadata, and
// returns the same rows the feedback-on service converges to.
func TestServiceFeedbackOffStable(t *testing.T) {
	off := feedbackService(t, false, 2)
	on := feedbackService(t, true, 2)
	ctx := context.Background()
	var offResp, onResp *Response
	for i := 0; i < 6; i++ {
		var err error
		if offResp, err = off.Query(ctx, Request{SQL: skewQuery}); err != nil {
			t.Fatal(err)
		}
		if onResp, err = on.Query(ctx, Request{SQL: skewQuery}); err != nil {
			t.Fatal(err)
		}
	}
	if offResp.MaxQError != 0 || offResp.Replanned || offResp.ReplanGen != 0 || offResp.FeedbackCorrections != 0 {
		t.Fatalf("feedback-off response carries feedback metadata: %+v", offResp)
	}
	if len(offResp.Rows) != len(onResp.Rows) {
		t.Fatalf("feedback changed results: off %d rows, on %d rows", len(offResp.Rows), len(onResp.Rows))
	}
	snap := off.Observer().Registry.Snapshot()
	for _, c := range []string{"feedback.corrections", "feedback.replans", "feedback.drift_trips", "plancache.refreshes"} {
		if snap.Counters[c] != 0 {
			t.Fatalf("feedback-off counter %s = %d, want 0", c, snap.Counters[c])
		}
	}
}

// TestServiceFeedbackFaultPoints: feedback.record and feedback.lookup
// armed to error surface as typed request failures; an injected
// plancache.replan fault is swallowed (the request already has its
// results), counted on feedback.replan_errors, and the old plan keeps
// serving — after the fault clears, the replan goes through.
func TestServiceFeedbackFaultPoints(t *testing.T) {
	defer guard.Clear()

	t.Run("lookup", func(t *testing.T) {
		svc := feedbackService(t, true, 2)
		guard.InjectError(guard.PointFeedbackLookup)
		defer guard.Clear()
		_, err := svc.Query(context.Background(), Request{SQL: skewQuery})
		se := asServeError(t, err)
		if se.Code != "injected" {
			t.Fatalf("code = %s, want injected", se.Code)
		}
	})

	t.Run("record", func(t *testing.T) {
		svc := feedbackService(t, true, 2)
		guard.InjectError(guard.PointFeedbackRecord)
		defer guard.Clear()
		_, err := svc.Query(context.Background(), Request{SQL: skewQuery})
		se := asServeError(t, err)
		if se.Code != "injected" {
			t.Fatalf("code = %s, want injected", se.Code)
		}
	})

	t.Run("replan", func(t *testing.T) {
		svc := feedbackService(t, true, 1)
		ctx := context.Background()
		guard.InjectError(guard.PointCacheReplan)
		defer guard.Clear()
		// First run drifts and trips an (injected-faulted) replan; the
		// request itself must still succeed with the old plan's rows.
		resp, err := svc.Query(ctx, Request{SQL: skewQuery})
		if err != nil {
			t.Fatalf("request failed on a replan fault: %v", err)
		}
		if resp.Replanned || resp.ReplanGen != 0 {
			t.Fatalf("replan reported despite injected fault: %+v", resp)
		}
		if got := svc.Observer().Registry.Snapshot().Counters["feedback.replan_errors"]; got == 0 {
			t.Fatal("feedback.replan_errors = 0, want > 0")
		}
		firstPlan := resp.PlanKey
		guard.Clear()
		// With the fault cleared the next drifted run replans for real.
		var replanned bool
		for i := 0; i < 6 && !replanned; i++ {
			resp, err = svc.Query(ctx, Request{SQL: skewQuery})
			if err != nil {
				t.Fatal(err)
			}
			replanned = resp.Replanned
		}
		if !replanned {
			t.Fatal("no replan after fault cleared")
		}
		resp, err = svc.Query(ctx, Request{SQL: skewQuery})
		if err != nil {
			t.Fatal(err)
		}
		if resp.PlanKey == firstPlan {
			t.Fatal("plan unchanged after post-fault replan")
		}
	})
}

// TestServiceCacheDebug: /debug/cache's payload carries per-template
// feedback state — last q-error, corrections, replan generation.
func TestServiceCacheDebug(t *testing.T) {
	svc := feedbackService(t, true, 2)
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, err := svc.Query(ctx, Request{SQL: skewQuery}); err != nil {
			t.Fatal(err)
		}
	}
	d := svc.CacheDebug()
	if len(d.Plans) != 1 {
		t.Fatalf("CacheDebug plans = %d, want 1", len(d.Plans))
	}
	p := d.Plans[0]
	if p.Key == "" || p.PlanKey == "" {
		t.Fatalf("missing keys: %+v", p)
	}
	if p.LastQError <= 0 {
		t.Fatalf("LastQError = %v, want > 0", p.LastQError)
	}
	if p.Corrections == 0 {
		t.Fatal("Corrections = 0, want > 0")
	}
	if p.ReplanGen == 0 {
		t.Fatal("ReplanGen = 0, want > 0 after drift")
	}
	if d.Stats.Refreshes == 0 {
		t.Fatal("Stats.Refreshes = 0, want > 0")
	}
}

// TestServiceFeedbackStateEvictedWithPlan: a template's drift
// bookkeeping lives on its cache entry. With room for one template,
// two served alternately evict each other on every request; the cache
// then holds only the template just served, and its feedback state is
// that one run's — the evicted lineage left nothing behind for the next
// miss to resume (no accumulated corrections, no carried drift streak,
// no re-plan).
func TestServiceFeedbackStateEvictedWithPlan(t *testing.T) {
	svc, err := NewService(ServiceConfig{
		DB:             datagen.Skewed(testSkewConfig),
		CacheBytes:     1, // the newest entry only
		Feedback:       true,
		ReplanQError:   10,
		ReplanAfter:    2,
		DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	other := "select fact.k, count(*) as n from fact, d1 where fact.j = d1.j and fact.k = 3 group by fact.k"
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		q := []string{skewQuery, other}[i%2]
		resp, err := svc.Query(ctx, Request{SQL: q})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if resp.CacheStatus != "miss" || resp.Replanned || resp.ReplanGen != 0 {
			t.Fatalf("run %d: cache=%s replanned=%v gen=%d, want a fresh miss", i, resp.CacheStatus, resp.Replanned, resp.ReplanGen)
		}
		d := svc.CacheDebug()
		if len(d.Plans) != 1 {
			t.Fatalf("run %d: CacheDebug lists %d plans, want 1", i, len(d.Plans))
		}
		row := d.Plans[0]
		cp := svc.cache.Entries()[0].Value.(*cachedPlan)
		composites := 0
		plan.Walk(cp.plan, func(n plan.Node) {
			if len(n.Children()) > 0 {
				composites++
			}
		})
		if row.PlanKey != plan.Key(cp.plan) || row.Corrections == 0 || row.Corrections > int64(composites) {
			t.Fatalf("run %d: %+v; want one run's corrections (1..%d)", i, row, composites)
		}
		if row.ReplanGen != 0 || row.DriftRuns > 1 {
			t.Fatalf("run %d: %+v carries an evicted lineage's drift state", i, row)
		}
	}
}

func asServeError(t *testing.T, err error) *ServeError {
	t.Helper()
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*ServeError)
	if !ok {
		t.Fatalf("error %T is not *ServeError: %v", err, err)
	}
	return se
}

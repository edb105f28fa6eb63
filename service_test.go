// Tests for the query-serving layer: one optimization per distinct
// template, correct rebinding per request, admission control with
// typed shed errors, tenant budgets, and the serve-path fault matrix.
package reorder

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/value"
)

// serveDB: t(a,b) with enough rows that joins do real work.
func serveDB() Database {
	tb := relation.NewBuilder("t", "a", "b")
	sb := relation.NewBuilder("s", "a", "c")
	for i := 0; i < 30; i++ {
		tb.Row(value.NewInt(int64(i%5)), value.NewInt(int64(i%7)))
		sb.Row(value.NewInt(int64(i%5)), value.NewInt(int64(100+i)))
	}
	return Database{"t": tb.Relation(), "s": sb.Relation()}
}

func newTestService(t *testing.T, cfg ServiceConfig) *Service {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = serveDB()
	}
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestServiceOneOptimizationPerTemplate is the cache's core claim:
// queries that differ only in constants share one optimization, and
// each still gets the rows its own constants select.
func TestServiceOneOptimizationPerTemplate(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	ctx := context.Background()

	countRows := func(where int64) int {
		n := 0
		for i := 0; i < 30; i++ {
			if int64(i%5) == where {
				n++
			}
		}
		return n
	}

	for round, a := range []int64{0, 1, 2, 3, 1} {
		resp, err := svc.Query(ctx, Request{SQL: fmt.Sprintf("select b from t where a = %d", a)})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		wantStatus := "hit"
		if round == 0 {
			wantStatus = "miss"
		}
		if resp.CacheStatus != wantStatus {
			t.Fatalf("round %d: cache=%s, want %s", round, resp.CacheStatus, wantStatus)
		}
		if resp.Params != 1 {
			t.Fatalf("round %d: params=%d, want 1", round, resp.Params)
		}
		if got, want := len(resp.Rows), countRows(a); got != want {
			t.Fatalf("round %d (a=%d): %d rows, want %d", round, a, got, want)
		}
	}

	st := svc.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("misses=%d: the template must be optimized exactly once", st.Misses)
	}
	if st.Hits != 4 {
		t.Fatalf("hits=%d, want 4", st.Hits)
	}

	// A different shape is a second template.
	if resp, err := svc.Query(ctx, Request{SQL: "select b from t where a < 2"}); err != nil {
		t.Fatal(err)
	} else if resp.CacheStatus != "miss" {
		t.Fatalf("new shape: cache=%s, want miss", resp.CacheStatus)
	}
	if st := svc.CacheStats(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats after second shape = %+v", st)
	}
}

// TestServiceJoinTemplate: the cached template survives multi-relation
// optimization and rebinding changes answers, not plans.
func TestServiceJoinTemplate(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	ctx := context.Background()

	q := func(a int64) *Response {
		resp, err := svc.Query(ctx, Request{
			SQL: fmt.Sprintf("select t.b, s.c from t, s where t.a = s.a and t.a = %d", a),
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first, second := q(1), q(2)
	if first.CacheStatus != "miss" || second.CacheStatus != "hit" {
		t.Fatalf("cache statuses: %s then %s", first.CacheStatus, second.CacheStatus)
	}
	// 6 t-rows × 6 s-rows match per residue class.
	if len(first.Rows) != 36 || len(second.Rows) != 36 {
		t.Fatalf("row counts: %d and %d, want 36 each", len(first.Rows), len(second.Rows))
	}
	if first.PlanKey == second.PlanKey {
		t.Fatal("bound plan keys must differ: they carry different constants")
	}
}

func TestServiceBadQuery(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	_, err := svc.Query(context.Background(), Request{SQL: "selec b from t"})
	se := &ServeError{}
	if !errors.As(err, &se) || se.Code != "bad_query" || se.HTTPStatus != 400 {
		t.Fatalf("want bad_query/400, got %v", err)
	}
	_, err = svc.Query(context.Background(), Request{SQL: "select b from missing_table"})
	if !errors.As(err, &se) || se.Code != "bad_query" {
		t.Fatalf("unknown relation: want bad_query, got %v", err)
	}
}

// TestServiceTenantBudget: a tenant with a tiny row budget gets a
// typed 422, and the default tenant is unaffected.
func TestServiceTenantBudget(t *testing.T) {
	svc := newTestService(t, ServiceConfig{
		Tenants: map[string]Limits{"starved": {MaxRows: 1}},
	})
	ctx := context.Background()
	q := "select t.b from t, s where t.a = s.a"

	se := &ServeError{}
	if _, err := svc.Query(ctx, Request{SQL: q, Tenant: "starved"}); !errors.As(err, &se) || se.Code != "budget" || se.HTTPStatus != 422 {
		t.Fatalf("starved tenant: want budget/422, got %v", err)
	}
	if _, err := svc.Query(ctx, Request{SQL: q}); err != nil {
		t.Fatalf("default tenant must succeed: %v", err)
	}
}

// TestServiceNestedLoopFallbackNoLeak: a non-equi join falls back to
// the nested loop on every request. The fallback is counted on the
// request's registry, which the service folds into its observer; it
// must never mint a process-global metric per bound literal, or a
// long-running server grows obs.Default() without limit.
func TestServiceNestedLoopFallbackNoLeak(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	ctx := context.Background()
	query := func(k int) {
		t.Helper()
		if _, err := svc.Query(ctx, Request{SQL: fmt.Sprintf("select t.b, s.c from t, s where t.a < s.a + %d", k)}); err != nil {
			t.Fatal(err)
		}
	}
	names := func() map[string]bool {
		snap := obs.Default().Snapshot()
		out := map[string]bool{}
		for n := range snap.Counters {
			out[n] = true
		}
		for n := range snap.Gauges {
			out[n] = true
		}
		for n := range snap.Histograms {
			out[n] = true
		}
		return out
	}
	fallbacks := svc.Observer().Registry.Counter("executor.nested_loop_fallback")
	query(0) // warm: plan cache entry, base-table scans
	before, base := names(), fallbacks.Value()
	for k := 1; k <= 50; k++ {
		query(k)
	}
	for n := range names() {
		if !before[n] {
			t.Errorf("request minted a global metric %q", n)
		}
	}
	if got := fallbacks.Value() - base; got != 50 {
		t.Errorf("observer counted %d nested-loop fallbacks over 50 requests, want 50", got)
	}
}

// TestServiceDeadline: an expired request context surfaces as the
// typed deadline error (504), not a raw context error.
func TestServiceDeadline(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := svc.Query(ctx, Request{SQL: "select b from t where a = 1"})
	se := &ServeError{}
	if !errors.As(err, &se) || se.Code != "deadline" || se.HTTPStatus != 504 {
		t.Fatalf("want deadline/504, got %v", err)
	}
}

// TestServiceShed: with one slot and one queue position, a third
// simultaneous request is rejected immediately with the typed overload
// error — and the queue drains once the blocker finishes.
func TestServiceShed(t *testing.T) {
	defer guard.Clear()
	svc := newTestService(t, ServiceConfig{MaxConcurrent: 1, MaxQueue: 1})
	ctx := context.Background()
	q := "select b from t where a = 1"

	// Block the only slot inside execution via the operator fault
	// point (hook sleeps, then allows the run to proceed).
	release := make(chan struct{})
	var once sync.Once
	guard.Inject(guard.PointExecOperator, func(guard.Point) error {
		once.Do(func() { <-release })
		return nil
	})

	first := make(chan error, 1)
	go func() {
		_, err := svc.Query(ctx, Request{SQL: q})
		first <- err
	}()
	// Wait until the first request holds the slot (inflight=1 and
	// queue observed); then enqueue the second.
	waitFor(t, func() bool { return svc.inflight.Load() == 1 })
	second := make(chan error, 1)
	go func() {
		_, err := svc.Query(ctx, Request{SQL: q})
		second <- err
	}()
	waitFor(t, func() bool { return svc.inflight.Load() == 2 })

	// Third arrival: queue is full, must shed instantly.
	_, err := svc.Query(ctx, Request{SQL: q})
	se := &ServeError{}
	if !errors.As(err, &se) || se.Code != "overloaded" || se.HTTPStatus != 429 {
		t.Fatalf("want overloaded/429, got %v", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("shed error must wrap ErrOverloaded")
	}

	close(release)
	for i, ch := range []chan error{first, second} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d wedged after shed", i)
		}
	}
	if n := svc.inflight.Load(); n != 0 {
		t.Fatalf("inflight=%d after drain, want 0", n)
	}
	if v := svc.ob.Registry.Counter("serve.shed").Value(); v != 1 {
		t.Fatalf("serve.shed=%d, want 1", v)
	}
}

// TestServiceQueueWaitReported: a queued request reports its queue
// time in the response and the guard histogram.
func TestServiceQueueWaitReported(t *testing.T) {
	defer guard.Clear()
	svc := newTestService(t, ServiceConfig{MaxConcurrent: 1, MaxQueue: 2})
	ctx := context.Background()

	release := make(chan struct{})
	var once sync.Once
	guard.Inject(guard.PointExecOperator, func(guard.Point) error {
		once.Do(func() { <-release })
		return nil
	})
	first := make(chan error, 1)
	go func() {
		_, err := svc.Query(ctx, Request{SQL: "select b from t where a = 0"})
		first <- err
	}()
	waitFor(t, func() bool { return svc.inflight.Load() == 1 })

	done := make(chan *Response, 1)
	go func() {
		resp, err := svc.Query(ctx, Request{SQL: "select b from t where a = 1"})
		if err != nil {
			t.Error(err)
		}
		done <- resp
	}()
	waitFor(t, func() bool { return svc.inflight.Load() == 2 })
	time.Sleep(20 * time.Millisecond) // let the second request queue measurably
	close(release)

	if err := <-first; err != nil {
		t.Fatal(err)
	}
	resp := <-done
	if resp == nil {
		t.Fatal("queued request failed")
	}
	if resp.QueuedNs < (10 * time.Millisecond).Nanoseconds() {
		t.Fatalf("QueuedNs=%d, want >= 10ms of measured queue wait", resp.QueuedNs)
	}
	if c := svc.ob.Registry.Snapshot().Histograms["guard.queue_wait_milli"].Count; c == 0 {
		t.Fatal("queue-wait histogram recorded nothing")
	}
}

// TestServiceFaultAdmit covers the serve.admit fault matrix: injected
// error and panic both become typed client errors, consume no
// queue slot, and leave the service fully functional.
func TestServiceFaultAdmit(t *testing.T) {
	defer guard.Clear()
	svc := newTestService(t, ServiceConfig{MaxConcurrent: 1, MaxQueue: 1})
	ctx := context.Background()
	q := "select b from t where a = 1"
	se := &ServeError{}

	guard.InjectError(guard.PointServeAdmit)
	if _, err := svc.Query(ctx, Request{SQL: q}); !errors.As(err, &se) || se.Code != "injected" {
		t.Fatalf("want injected, got %v", err)
	}

	guard.InjectPanic(guard.PointServeAdmit)
	if _, err := svc.Query(ctx, Request{SQL: q}); !errors.As(err, &se) || se.Code != "panic" {
		t.Fatalf("want contained panic, got %v", err)
	}

	if n := svc.inflight.Load(); n != 0 {
		t.Fatalf("admit faults leaked %d inflight slots", n)
	}
	guard.Clear()
	if _, err := svc.Query(ctx, Request{SQL: q}); err != nil {
		t.Fatalf("service wedged after admit faults: %v", err)
	}
}

// TestServiceFaultCache covers the plancache fault points end to end
// through the service: typed errors out, no cache pollution, full
// recovery.
func TestServiceFaultCache(t *testing.T) {
	defer guard.Clear()
	svc := newTestService(t, ServiceConfig{})
	ctx := context.Background()
	q := "select b from t where a = 1"
	se := &ServeError{}

	for _, p := range []guard.Point{guard.PointCacheLookup, guard.PointCacheInsert} {
		guard.InjectError(p)
		if _, err := svc.Query(ctx, Request{SQL: q}); !errors.As(err, &se) || se.Code != "injected" {
			t.Fatalf("%s error: want injected, got %v", p, err)
		}
		guard.InjectPanic(p)
		if _, err := svc.Query(ctx, Request{SQL: q}); !errors.As(err, &se) || (se.Code != "panic" && se.Code != "injected") {
			t.Fatalf("%s panic: want typed error, got %v", p, err)
		}
		guard.Clear()
	}
	if st := svc.CacheStats(); st.Entries != 0 {
		t.Fatalf("faulted builds cached %d entries", st.Entries)
	}
	resp, err := svc.Query(ctx, Request{SQL: q})
	if err != nil || resp.CacheStatus != "miss" {
		t.Fatalf("recovery: resp=%v err=%v", resp, err)
	}
	if resp, err = svc.Query(ctx, Request{SQL: q}); err != nil || resp.CacheStatus != "hit" {
		t.Fatalf("recovery hit: resp=%v err=%v", resp, err)
	}
}

// TestServiceConcurrent drives mixed templates from many goroutines
// under -race: every request gets its own constants' rows, and the
// cache converges to one entry per template.
func TestServiceConcurrent(t *testing.T) {
	svc := newTestService(t, ServiceConfig{MaxConcurrent: 4, MaxQueue: 64})
	ctx := context.Background()
	const goroutines = 8
	const rounds = 25

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a := int64((g + r) % 5)
				resp, err := svc.Query(ctx, Request{SQL: fmt.Sprintf("select b from t where a = %d", a)})
				if err != nil {
					t.Error(err)
					return
				}
				if len(resp.Rows) != 6 {
					t.Errorf("a=%d: %d rows, want 6", a, len(resp.Rows))
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := svc.CacheStats()
	if st.Entries != 1 {
		t.Fatalf("entries=%d: all requests share one template", st.Entries)
	}
	if st.Misses != 1 {
		t.Fatalf("misses=%d: the template must be optimized exactly once even under concurrency", st.Misses)
	}
	if st.Hits+st.Waits < goroutines*rounds-1 {
		t.Fatalf("hits=%d waits=%d: every non-building request must be served from the cache", st.Hits, st.Waits)
	}
}

// TestServiceShapeCacheConcurrent starts 8 goroutines at once on one
// cold hit_point template, under -race: the first executions fill the
// template's shape cells concurrently (plan/shape.go) and every request
// still gets the columns and rows that a plan optimized for it alone
// (a bypass request, whose nodes share no cell) returns.
func TestServiceShapeCacheConcurrent(t *testing.T) {
	ref := newTestService(t, ServiceConfig{DB: shapeMemoDB()})
	svc := newTestService(t, ServiceConfig{DB: shapeMemoDB(), MaxConcurrent: 8, MaxQueue: 64})
	ctx := context.Background()
	text := hitPointShapes[1].text // loj5_complex: four joins, one with a residual
	want := map[int]served{}
	for lit := 4; lit <= 15; lit++ {
		resp, err := ref.Query(ctx, Request{SQL: fmt.Sprintf(text, lit), Cache: "bypass"})
		if err != nil {
			t.Fatal(err)
		}
		want[lit] = servedOf(&Response{}, resp.Columns, resp.Rows, nil)
	}
	const goroutines = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < 12; r++ {
				lit := 4 + (g+r)%12
				resp, err := svc.Query(ctx, Request{SQL: fmt.Sprintf(text, lit)})
				if err != nil {
					t.Error(err)
					return
				}
				if got := servedOf(&Response{}, resp.Columns, resp.Rows, nil); got != want[lit] {
					t.Errorf("literal %d: got %+v, want %+v", lit, got, want[lit])
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}

// TestServiceBypass: cache bypass optimizes from scratch and leaves
// the cache untouched.
func TestServiceBypass(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		resp, err := svc.Query(ctx, Request{SQL: "select b from t where a = 1", Cache: "bypass"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheStatus != "bypass" {
			t.Fatalf("cache=%s, want bypass", resp.CacheStatus)
		}
		if resp.OptimizeNs == 0 {
			t.Fatal("bypass must run the optimizer every time")
		}
	}
	if st := svc.CacheStats(); st.Hits+st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("bypass touched the cache: %+v", st)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

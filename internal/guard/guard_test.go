package guard

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestNilBudgetIsInert(t *testing.T) {
	var b *Budget
	if err := b.Cancelled(); err != nil {
		t.Fatalf("nil budget Cancelled: %v", err)
	}
	if err := b.Err(); err != nil {
		t.Fatalf("nil budget Err: %v", err)
	}
	if err := b.ChargeExprs(1 << 40); err != nil {
		t.Fatalf("nil budget ChargeExprs: %v", err)
	}
	if err := b.ChargeOut(1<<30, 100); err != nil {
		t.Fatalf("nil budget ChargeOut: %v", err)
	}
	if b.Trips() != nil {
		t.Fatal("nil budget reports trips")
	}
	if b.Context() == nil {
		t.Fatal("nil budget Context is nil")
	}
}

func TestCancellation(t *testing.T) {
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	b := New(ctx, Limits{}, reg)
	if err := b.Cancelled(); err != nil {
		t.Fatalf("pre-cancel: %v", err)
	}
	cancel()
	err := b.Cancelled()
	if !IsCancelled(err) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if !IsCancelled(b.Err()) {
		t.Fatalf("Err after cancel: %v", b.Err())
	}
	// The counter latches once even across repeated checks.
	b.Cancelled()
	b.Cancelled()
	if got := reg.Snapshot().Counters["guard.cancelled"]; got != 1 {
		t.Fatalf("guard.cancelled = %d, want 1", got)
	}
}

func TestDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	b := New(ctx, Limits{}, nil)
	if !IsCancelled(b.Cancelled()) {
		t.Fatalf("deadline not surfaced: %v", b.Cancelled())
	}
}

func TestBudgetTripSticky(t *testing.T) {
	reg := obs.NewRegistry()
	b := New(context.Background(), Limits{MaxRows: 100}, reg)
	if err := b.charge(kindRows, 100); err != nil {
		t.Fatalf("at limit: %v", err)
	}
	err := b.charge(kindRows, 1)
	if !IsBudget(err) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	var be *ErrBudget
	if !errors.As(err, &be) || be.Kind != kindRows || be.Limit != 100 {
		t.Fatalf("bad trip detail: %+v", be)
	}
	if !b.tripped[kindRows].Load() {
		t.Fatal("trip not sticky")
	}
	if !IsBudget(b.Err()) {
		t.Fatalf("Err after trip: %v", b.Err())
	}
	// Further charges keep failing; the counter latches once.
	b.charge(kindRows, 1)
	b.charge(kindRows, 1)
	if got := reg.Snapshot().Counters["guard.budget_trips.rows"]; got != 1 {
		t.Fatalf("guard.budget_trips.rows = %d, want 1", got)
	}
	// Other kinds are unaffected.
	if b.tripped[kindExprs].Load() || b.tripped[kindBytes].Load() {
		t.Fatal("unrelated kinds tripped")
	}
	if err := b.ChargeExprs(5); err != nil {
		t.Fatalf("exprs after rows trip: %v", err)
	}
}

func TestZeroLimitUnlimited(t *testing.T) {
	b := New(context.Background(), Limits{}, nil)
	if err := b.charge(kindRows, 1<<50); err != nil {
		t.Fatalf("unlimited budget tripped: %v", err)
	}
}

func TestChargeOutBytes(t *testing.T) {
	b := New(context.Background(), Limits{MaxBytes: 1000}, nil)
	// 10 rows × 4 cols × 32 bytes = 1280 > 1000.
	err := b.ChargeOut(10, 4)
	if !IsBudget(err) {
		t.Fatalf("want bytes trip, got %v", err)
	}
	var be *ErrBudget
	if !errors.As(err, &be) || be.Kind != kindBytes {
		t.Fatalf("want Bytes kind, got %+v", be)
	}
}

func TestConcurrentCharges(t *testing.T) {
	b := New(context.Background(), Limits{MaxRows: 1000}, obs.NewRegistry())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.charge(kindRows, 1)
			}
		}()
	}
	wg.Wait()
	if !b.tripped[kindRows].Load() {
		t.Fatal("concurrent charges did not trip")
	}
}

func TestHitUnarmed(t *testing.T) {
	Clear()
	for _, p := range Points() {
		if err := Hit(p); err != nil {
			t.Fatalf("unarmed Hit(%s): %v", p, err)
		}
	}
}

func TestInjectError(t *testing.T) {
	defer Clear()
	InjectError(PointExecBatch)
	err := Hit(PointExecBatch)
	if !IsInjected(err) {
		t.Fatalf("want injected error, got %v", err)
	}
	if !strings.Contains(err.Error(), string(PointExecBatch)) {
		t.Fatalf("error does not name the point: %v", err)
	}
	// Other points stay clean.
	if err := Hit(PointMemoWave); err != nil {
		t.Fatalf("unrelated point: %v", err)
	}
	Clear()
	if err := Hit(PointExecBatch); err != nil {
		t.Fatalf("after Clear: %v", err)
	}
}

func TestInjectHookCounting(t *testing.T) {
	defer Clear()
	var mu sync.Mutex
	n := 0
	Inject(PointMemoWave, func(Point) error {
		mu.Lock()
		n++
		mu.Unlock()
		return nil
	})
	for i := 0; i < 3; i++ {
		if err := Hit(PointMemoWave); err != nil {
			t.Fatalf("counting hook errored: %v", err)
		}
	}
	if n != 3 {
		t.Fatalf("hook ran %d times, want 3", n)
	}
}

// TestRecoverAs: the boundary container reports the phase reached and
// the plan's rendering, and renders the plan only when something
// panicked — a run that does not panic never pays for its label.
func TestRecoverAs(t *testing.T) {
	reg := obs.NewRegistry()
	phase := "seed"
	calls := 0
	run := func() (err error) {
		defer RecoverAs(&err, &phase, lazyLabel{&calls}, reg)
		phase = "explore"
		panic("boom")
	}
	err := run()
	if !IsPanic(err) {
		t.Fatalf("want PanicError, got %v", err)
	}
	var pe *PanicError
	errors.As(err, &pe)
	if pe.Phase != "explore" || pe.PlanKey != "k42" || pe.Value != "boom" || calls != 1 {
		t.Fatalf("bad PanicError: phase=%q key=%q val=%v (label rendered %d times)", pe.Phase, pe.PlanKey, pe.Value, calls)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if got := reg.Snapshot().Counters["guard.recovered_panics"]; got != 1 {
		t.Fatalf("guard.recovered_panics = %d, want 1", got)
	}
	// No panic: err stays nil, counter untouched, label never rendered.
	calls = 0
	clean := func() (err error) {
		defer RecoverAs(&err, &phase, lazyLabel{&calls}, reg)
		return nil
	}
	if err := clean(); err != nil || calls != 0 {
		t.Fatalf("clean run: err %v, label rendered %d times", err, calls)
	}
	if got := reg.Snapshot().Counters["guard.recovered_panics"]; got != 1 {
		t.Fatalf("guard.recovered_panics = %d after a clean run, want 1", got)
	}
	// No label: the panic is still contained, with an empty PlanKey.
	unlabelled := func() (err error) {
		defer RecoverAs(&err, &phase, nil, reg)
		panic("boom")
	}
	if err := unlabelled(); !errors.As(err, &pe) || pe.PlanKey != "" {
		t.Fatalf("unlabelled panic: %v", err)
	}
}

func TestSafely(t *testing.T) {
	err := Safely("cost", "k42", nil, func() error { panic("worker boom") })
	if !IsPanic(err) {
		t.Fatalf("want PanicError, got %v", err)
	}
	var pe *PanicError
	errors.As(err, &pe)
	if pe.Phase != "cost" || pe.PlanKey != "k42" {
		t.Fatalf("bad PanicError: %+v", pe)
	}
	if err := Safely("cost", "k", nil, func() error { return nil }); err != nil {
		t.Fatalf("clean Safely: %v", err)
	}
	want := errors.New("plain")
	if err := Safely("cost", "k", nil, func() error { return want }); err != want {
		t.Fatalf("Safely error passthrough: %v", err)
	}
}

// TestErrIgnoresExprsTrip: a tripped exprs budget is the optimizer's
// degradable condition — Err (the executor's boundary check) must not
// report it, so a degraded optimization's plan can still execute
// under the same budget envelope.
func TestErrIgnoresExprsTrip(t *testing.T) {
	b := New(context.Background(), Limits{MaxExprs: 1, MaxRows: 10}, obs.NewRegistry())
	if err := b.ChargeExprs(5); !IsBudget(err) {
		t.Fatalf("ChargeExprs over limit = %v, want budget error", err)
	}
	if !b.tripped[kindExprs].Load() {
		t.Fatal("exprs budget not tripped")
	}
	if err := b.Err(); err != nil {
		t.Fatalf("Err after exprs trip = %v, want nil (exprs is degradable)", err)
	}
	if err := b.charge(kindRows, 20); !IsBudget(err) {
		t.Fatalf("charging rows over the limit = %v, want budget error", err)
	}
	if err := b.Err(); !IsBudget(err) {
		t.Fatalf("Err after rows trip = %v, want budget error", err)
	}
}

// lazyLabel counts how often its rendering is asked for.
type lazyLabel struct{ calls *int }

func (l lazyLabel) String() string { *l.calls++; return "k42" }

// TestRecoverItem: the per-item container labels a panic with the
// item's rendering, and renders it only then.
func TestRecoverItem(t *testing.T) {
	calls := 0
	item := func(f func()) (err error) {
		defer RecoverItem(&err, "explore", lazyLabel{&calls}, nil)
		f()
		return nil
	}
	if err := item(func() {}); err != nil || calls != 0 {
		t.Fatalf("clean item: err %v, label rendered %d times", err, calls)
	}
	err := item(func() { panic("rule boom") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Phase != "explore" || pe.PlanKey != "k42" || calls != 1 {
		t.Fatalf("bad PanicError %+v (label rendered %d times)", pe, calls)
	}
}

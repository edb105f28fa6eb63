package executor

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

// skewDB builds a database where r2 (the planned build side) is much
// larger than r1 — the shape that trips the build/probe swap.
func skewDB(rng *rand.Rand, small, large, domain int) plan.Database {
	db := make(plan.Database, 2)
	for name, rows := range map[string]int{"r1": small, "r2": large} {
		b := relation.NewBuilder(name, "x", "y")
		for i := 0; i < rows; i++ {
			x := value.Value(value.NewInt(int64(rng.Intn(domain))))
			if rng.Intn(20) == 0 {
				x = value.Null
			}
			b.Row(x, value.NewInt(int64(rng.Intn(domain))))
		}
		db[name] = b.Relation()
	}
	return db
}

// adaptPlans covers every join kind plus a residual conjunct, all with
// the oversized relation on the build (right) side.
func adaptPlans() []plan.Node {
	lt := expr.Cmp{Op: value.LT, L: expr.Column("r1", "y"), R: expr.Column("r2", "y")}
	return []plan.Node{
		plan.NewJoin(plan.InnerJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewJoin(plan.LeftJoin, expr.And(eqX("r1", "r2"), lt), plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewJoin(plan.RightJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewJoin(plan.FullJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
	}
}

// TestAdaptSwapMatchesStatic is the correctness pin of the build/probe
// swap: with SwapFactor forcing a swap, the production entry point
// produces the same multiset the static plan does, for every join kind,
// and the transition is counted (a nil registry lands the exec.adapt.*
// counters on obs.Default()) and annotated.
func TestAdaptSwapMatchesStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := skewDB(rng, 40, 4000, 50)
	a := &Adapt{SwapFactor: 4}
	for pi, p := range adaptPlans() {
		want, err := Run(p, db)
		if err != nil {
			t.Fatal(err)
		}
		base := obs.Default().Snapshot().Counters["exec.adapt.swaps"]
		got, ann, err := RunInstrumentedAdaptive(p, db, nil, nil, a)
		if err != nil {
			t.Fatalf("plan %d: %v", pi, err)
		}
		if !got.EqualAsMultisets(want) {
			t.Fatalf("plan %d: adaptive != static", pi)
		}
		if swaps := obs.Default().Snapshot().Counters["exec.adapt.swaps"]; swaps <= base {
			t.Fatalf("plan %d: swap did not fire (counter %d -> %d)", pi, base, swaps)
		}
		// The transition must be visible in the join's annotation.
		if ann[p].Extra["build_swapped"] == 0 {
			t.Fatalf("plan %d: build_swapped extra missing from annotations", pi)
		}
	}
}

// TestAdaptSwapOffIdentical: a nil Adapt (and a zero SwapFactor) is
// the static engine — RunGuarded's output rows in identical order.
func TestAdaptSwapOffIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := skewDB(rng, 40, 4000, 50)
	for pi, p := range adaptPlans() {
		want, err := RunGuarded(p, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := RunInstrumentedAdaptive(p, db, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("plan %d: nil adapt changed output", pi)
		}
		got, _, err = RunInstrumentedAdaptive(p, db, nil, nil, &Adapt{})
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("plan %d: zero adapt changed output", pi)
		}
	}
}

// TestAdaptSpillEscalation: under a byte budget the static hash join
// cannot fit, the adaptive join escalates to the partitioned join and
// completes with the right multiset instead of dying on the trip.
func TestAdaptSpillEscalation(t *testing.T) {
	// Wide key domain: the join output stays small enough to charge
	// under the budget, while the build side's resident footprint
	// (estBytes(3000, 2) = 192 KB) cannot fit the 120 KB limit.
	rng := rand.New(rand.NewSource(99))
	db := skewDB(rng, 3000, 3000, 20000)
	p := plan.NewJoin(plan.InnerJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
	want, err := Run(p, db)
	if err != nil {
		t.Fatal(err)
	}
	limits := guard.Limits{MaxBytes: 120_000}

	// Static plan under the same budget: the build reservation trips.
	if _, err := RunGuarded(p, db, guard.New(context.Background(), limits, nil)); !guard.IsBudget(err) {
		t.Fatalf("static join under tight budget = %v, want budget trip", err)
	}

	a := &Adapt{Spill: true}
	base := obs.Default().Snapshot().Counters["exec.adapt.spill_escalations"]
	got, _, err := RunInstrumentedAdaptive(p, db, nil, guard.New(context.Background(), limits, nil), a)
	if err != nil {
		t.Fatalf("adaptive join under tight budget: %v", err)
	}
	if !got.EqualAsMultisets(want) {
		t.Fatal("escalated join != static multiset")
	}
	if n := obs.Default().Snapshot().Counters["exec.adapt.spill_escalations"]; n <= base {
		t.Fatalf("spill escalation did not fire (counter %d -> %d)", base, n)
	}
}

// TestAdaptFaultBuildSwap: the executor.buildswap guard point fires on
// every taken adaptive transition; armed to error or panic it aborts
// the run with the matching typed error — through the production entry
// point with the default and with a private registry, and on the bare
// walker at a batch size that puts the swap mid-batch-sweep.
func TestAdaptFaultBuildSwap(t *testing.T) {
	defer guard.Clear()
	rng := rand.New(rand.NewSource(5))
	db := skewDB(rng, 40, 4000, 50)
	p := plan.NewJoin(plan.InnerJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
	a := &Adapt{SwapFactor: 4}
	engines := map[string]func() (*relation.Relation, error){
		"serial": func() (*relation.Relation, error) {
			out, _, err := RunInstrumentedAdaptive(p, db, nil, nil, a)
			return out, err
		},
		"vectorized": func() (*relation.Relation, error) { return runVec(p, db, nil, 3, a) },
		"instrumented": func() (*relation.Relation, error) {
			out, _, err := RunInstrumentedAdaptive(p, db, obs.NewRegistry(), nil, a)
			return out, err
		},
	}
	for name, run := range engines {
		t.Run(name+"/error", func(t *testing.T) {
			guard.InjectError(guard.PointExecBuildSwap)
			defer guard.Clear()
			if _, err := run(); !guard.IsInjected(err) {
				t.Fatalf("err = %v, want injected", err)
			}
		})
		t.Run(name+"/panic", func(t *testing.T) {
			guard.InjectPanic(guard.PointExecBuildSwap)
			defer guard.Clear()
			if _, err := run(); !guard.IsPanic(err) {
				t.Fatalf("err = %v, want contained panic", err)
			}
		})
	}
}

// TestAdaptSwapBelowThreshold: sides within the factor leave the join
// untouched — no counter movement, no transition.
func TestAdaptSwapBelowThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := skewDB(rng, 1000, 1200, 50)
	p := plan.NewJoin(plan.InnerJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
	want, err := RunGuarded(p, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := obs.Default().Snapshot().Counters["exec.adapt.swaps"]
	got, _, err := RunInstrumentedAdaptive(p, db, nil, nil, &Adapt{SwapFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("below-threshold adaptive run changed output")
	}
	if n := obs.Default().Snapshot().Counters["exec.adapt.swaps"]; n != base {
		t.Fatalf("swap fired below threshold (counter %d -> %d)", base, n)
	}
}

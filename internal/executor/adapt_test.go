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
// larger than r1 — the shape a runtime build/probe swap would target.
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

// checkAsPlanned runs p through Exec instrumented and requires plain
// Exec's rows in plain Exec's order, plan.Node.Eval's multiset, and a
// join annotation without a build_swapped extra: joins run as planned,
// however lopsided their inputs.
func checkAsPlanned(t *testing.T, p plan.Node, db plan.Database) {
	t.Helper()
	want, _, err := execRows(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	got, ann, err := execRows(p, db, Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("instrumenting changed the output of %s", plan.Key(p))
	}
	if !got.EqualAsMultisets(ref) {
		t.Fatalf("%s differs from plan.Node.Eval", plan.Key(p))
	}
	if _, ok := ann[p].Extra["build_swapped"]; ok {
		t.Fatalf("%s annotated as swapped", plan.Key(p))
	}
}

// TestAdaptSwapMatchesStatic: a build side a hundred times its probe
// side stays the build side — every join kind runs as planned, row for
// row as the plain engine runs it.
func TestAdaptSwapMatchesStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := skewDB(rng, 40, 4000, 50)
	for _, p := range adaptPlans() {
		checkAsPlanned(t, p, db)
	}
}

// TestAdaptSwapOffIdentical: the same on a second skewed database —
// instrumented Exec returns plain Exec's rows in identical order.
func TestAdaptSwapOffIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := skewDB(rng, 40, 4000, 50)
	for _, p := range adaptPlans() {
		checkAsPlanned(t, p, db)
	}
}

// TestAdaptSwapBelowThreshold: sides of nearly equal size leave the
// join untouched too.
func TestAdaptSwapBelowThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := skewDB(rng, 1000, 1200, 50)
	checkAsPlanned(t, plan.NewJoin(plan.InnerJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")), db)
}

// wideSkewDB and spillJoin are a join whose output stays small enough to
// charge under adaptSpillLimits while the build side's resident
// footprint (estBytes(3000, 2) = 192 KB) cannot fit it.
func wideSkewDB() plan.Database { return skewDB(rand.New(rand.NewSource(99)), 3000, 3000, 20000) }

func spillJoin() plan.Node {
	return plan.NewJoin(plan.InnerJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
}

var adaptSpillLimits = guard.Limits{MaxBytes: 120_000}

// TestAdaptSpillEscalation: under a byte budget the in-memory hash
// join cannot fit, the join turns to the partitioned join and completes
// with the right multiset instead of dying on the trip — plain and
// instrumented alike.
func TestAdaptSpillEscalation(t *testing.T) {
	db, p := wideSkewDB(), spillJoin()
	want, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func(*guard.Budget) (*relation.Relation, error){
		"static": func(b *guard.Budget) (*relation.Relation, error) {
			out, _, err := execRows(p, db, Options{Budget: b})
			return out, err
		},
		"instrumented": func(b *guard.Budget) (*relation.Relation, error) {
			out, _, err := execRows(p, db, Options{Budget: b, Obs: b.Registry()})
			return out, err
		},
	}
	for name, run := range runs {
		reg := obs.NewRegistry()
		got, err := run(guard.New(context.Background(), adaptSpillLimits, reg))
		if err != nil {
			t.Fatalf("%s: join under tight budget: %v", name, err)
		}
		if !got.EqualAsMultisets(want) {
			t.Fatalf("%s: partitioned join != static multiset", name)
		}
		if n := reg.Snapshot().Counters["exec.spill.joins"]; n != 1 {
			t.Fatalf("%s: exec.spill.joins = %d, want 1", name, n)
		}
	}
}

// TestAdaptFaultBuildSwap: executor.spill guards the one place a join
// leaves its planned in-memory build, the turn to the partitioned join;
// armed to error or panic it aborts the run with the matching typed
// error — through the static entry, the instrumented entry with a
// private registry, and the bare walker at a small batch size.
func TestAdaptFaultBuildSwap(t *testing.T) {
	defer guard.Clear()
	db, p := wideSkewDB(), spillJoin()
	budget := func() *guard.Budget { return guard.New(context.Background(), adaptSpillLimits, nil) }
	engines := map[string]func() (*relation.Relation, error){
		"serial": func() (*relation.Relation, error) {
			out, _, err := execRows(p, db, Options{Budget: budget()})
			return out, err
		},
		"vectorized": func() (*relation.Relation, error) { return runVec(p, db, budget(), 3) },
		"instrumented": func() (*relation.Relation, error) {
			out, _, err := execRows(p, db, Options{Budget: budget(), Obs: obs.NewRegistry()})
			return out, err
		},
	}
	for name, run := range engines {
		t.Run(name+"/error", func(t *testing.T) {
			guard.InjectError(guard.PointExecSpill)
			defer guard.Clear()
			if _, err := run(); !guard.IsInjected(err) {
				t.Fatalf("err = %v, want injected", err)
			}
		})
		t.Run(name+"/panic", func(t *testing.T) {
			guard.InjectPanic(guard.PointExecSpill)
			defer guard.Clear()
			if _, err := run(); !guard.IsPanic(err) {
				t.Fatalf("err = %v, want contained panic", err)
			}
		})
	}
}

// Equivalence, determinism and out-of-core suite for the spilling
// grace join: spilled execution must be multiset-identical to the
// in-memory join for every kind (including recursive re-partitioning),
// and must complete under a byte budget that trips the in-memory
// join. Runs under -race via make race.
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

// joinSpilled runs the grace join the way vecJoin's escalation does —
// on an engine with no Adapt, metering into the budget's registry —
// over two row-major inputs. A panic surfaces as a *guard.PanicError,
// as it does through Exec.
func joinSpilled(kind plan.JoinKind, pred expr.Pred, l, r *relation.Relation, b *guard.Budget, opts spillOptions) (out *relation.Relation, err error) {
	phase := "execute"
	defer guard.RecoverAs(&err, &phase, nil, nil)
	e := &vecEngine{b: b, batch: execBatchRows, reg: b.Registry()}
	return e.graceJoin(kind, pred, l, r, nil, opts)
}

// TestExecutorSpillMatchesJoinExec: the grace join ≡ JoinExec as
// multisets across join kinds, residuals and NULL keys, both with
// unconstrained partitions and with a resident cap small enough to
// force recursive re-partitioning.
func TestExecutorSpillMatchesJoinExec(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	db := bigDB(rng, 500, 17, "r1", "r2")
	l, r := db["r1"], db["r2"]
	residual := expr.Cmp{Op: value.LT, L: expr.Column("r1", "y"), R: expr.Column("r2", "y")}
	preds := []expr.Pred{
		eqX("r1", "r2"),
		expr.And(eqX("r1", "r2"), residual),
		expr.And(eqX("r1", "r2"), eqY("r1", "r2")),
	}
	kinds := []plan.JoinKind{plan.InnerJoin, plan.LeftJoin, plan.RightJoin, plan.FullJoin}
	for _, pred := range preds {
		for _, kind := range kinds {
			want, err := JoinExec(kind, pred, l, r)
			if err != nil {
				t.Fatal(err)
			}
			// MaxResidentBytes 0: every level-0 partition joins in
			// memory. 4096: level-0 partitions exceed the cap and
			// recurse at least one level before the small-partition
			// floor engages.
			for _, cap := range []int64{0, 4096} {
				got, err := joinSpilled(kind, pred, l, r, nil, spillOptions{MaxResidentBytes: cap})
				if err != nil {
					t.Fatalf("kind %v cap %d: %v", kind, cap, err)
				}
				if !got.EqualAsMultisets(want) {
					t.Fatalf("kind %v cap %d pred %s: spilled join differs", kind, cap, pred)
				}
			}
		}
	}
}

// TestExecutorSpillRecursionCounters: a tight resident cap must
// actually recurse and surface it on the probe and registry counters.
func TestExecutorSpillRecursionCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	db := bigDB(rng, 600, 13, "r1", "r2")
	st := &joinProbe{}
	e := &vecEngine{batch: execBatchRows, reg: obs.NewRegistry()}
	if _, err := e.graceJoin(plan.InnerJoin, eqX("r1", "r2"), db["r1"], db["r2"], st,
		spillOptions{MaxResidentBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	if st.SpillParts == 0 || st.SpillBytes == 0 {
		t.Errorf("spill parts/bytes not recorded: %+v", st)
	}
	if st.SpillRecursions == 0 {
		t.Errorf("no recursion under a 2KB resident cap: %+v", st)
	}
}

// TestExecutorSpillDeterministic: identical runs produce
// tuple-for-tuple identical output (partition order, then input
// order, then NULL-key pads).
func TestExecutorSpillDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	db := bigDB(rng, 400, 11, "r1", "r2")
	pred := eqX("r1", "r2")
	a, err := joinSpilled(plan.FullJoin, pred, db["r1"], db["r2"], nil, spillOptions{MaxResidentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	b, err := joinSpilled(plan.FullJoin, pred, db["r1"], db["r2"], nil, spillOptions{MaxResidentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if !a.Tuple(i).EqualTuple(b.Tuple(i)) {
			t.Fatalf("row %d differs between identical runs", i)
		}
	}
}

// spillDB builds a data≫budget shape: wide key domain so the join
// output stays small while the build side's resident footprint is far
// over the byte budget.
func spillDB(rng *rand.Rand, rows, domain int) plan.Database {
	return bigDB(rng, rows, domain, "r1", "r2")
}

// TestExecutorSpillCompletesWhereInMemoryTrips is the out-of-core
// contract: under a MaxBytes budget the in-memory hash join trips on
// its build-side reservation, while the spilling join completes and
// matches the unbudgeted serial join as a multiset.
func TestExecutorSpillCompletesWhereInMemoryTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	db := spillDB(rng, 4000, 100000)
	l, r := db["r1"], db["r2"]
	pred := eqX("r1", "r2")
	want, err := JoinExec(plan.InnerJoin, pred, l, r)
	if err != nil {
		t.Fatal(err)
	}
	// Build side ≈ rows×3 cols×32 B ≈ 2–4 hundred KB modeled; 100 KB
	// cannot hold it, but can hold any level-1 partition pair plus the
	// (small, wide-domain) join output.
	limits := guard.Limits{MaxBytes: 100_000}
	_, err = RunGuarded(
		plan.NewJoin(plan.InnerJoin, pred, plan.NewScan("r1"), plan.NewScan("r2")),
		db, guard.New(context.Background(), limits, nil))
	if !guard.IsBudget(err) {
		t.Fatalf("in-memory join under budget: err = %v, want guard.ErrBudget", err)
	}
	got, err := joinSpilled(plan.InnerJoin, pred, l, r,
		guard.New(context.Background(), limits, nil), spillOptions{})
	if err != nil {
		t.Fatalf("spilling join under the same budget failed: %v", err)
	}
	if !got.EqualAsMultisets(want) {
		t.Fatal("spilled result differs from unbudgeted join")
	}
}

// TestExecutorSpillFaultPoints: errors injected at the spill write and
// read points surface as typed injected faults without leaking temp
// files (the run directory is removed wholesale on the error path).
func TestExecutorSpillFaultPoints(t *testing.T) {
	defer guard.Clear()
	rng := rand.New(rand.NewSource(95))
	db := bigDB(rng, 400, 11, "r1", "r2")
	for _, p := range []guard.Point{guard.PointSpillWrite, guard.PointSpillRead} {
		guard.InjectError(p)
		_, err := joinSpilled(plan.InnerJoin, eqX("r1", "r2"), db["r1"], db["r2"], nil, spillOptions{})
		guard.Clear()
		if !guard.IsInjected(err) {
			t.Fatalf("point %s: err = %v, want injected fault", p, err)
		}
	}
}

// Fault-injection suite for the guarded executor: injected failures
// and panics at the operator, batch and spill points must
// come back as typed guard errors, and budget trips must abort with
// ErrBudget. Runs under -race via make race.
package executor

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
)

// faultDB builds the matrix's inputs: r1 and r2 join many-to-many on a
// narrow domain; r0 is at most a fifth of r2, so r0 ⋈ r2 builds on the
// far larger side; w1 and w2 are large on a wide domain, so their build
// side outgrows spillBytes while the join output fits.
func faultDB(seed int64) plan.Database {
	rng := rand.New(rand.NewSource(seed))
	db := bigDB(rng, 600, 23, "r1", "r2")
	db["r0"] = bigDB(rng, 60, 23, "r0")["r0"]
	for name, rel := range bigDB(rng, 3000, 20000, "w1", "w2") {
		db[name] = rel
	}
	return db
}

// spillBytes cannot hold w2's hash table (≥1500 rows × 2 columns
// × 32 B, twice over) but holds any level-0 partition's table of
// w1 ⋈ w2 and the join's output.
const spillBytes = 120_000

func faultJoin() plan.Node { return joinOnX("r1", "r2") }

func joinOnX(l, r string) plan.Node {
	return plan.NewJoin(plan.InnerJoin, eqX(l, r), plan.NewScan(l), plan.NewScan(r))
}

// execEntry is one guarded entry point of the executor, wrapped so the
// matrix can drive the production walker's entry points and the
// operator-level joins uniformly.
type execEntry struct {
	name string
	run  func(db plan.Database, b *guard.Budget) (*relation.Relation, error)
	// ref is the plan whose plan.Node.Eval output the entry's guarded
	// output must reproduce (the untripped-budget determinism gate).
	ref plan.Node
	// maxBytes, when set, caps the byte limit of every budget the entry
	// runs under: a test may set a tighter one, never a looser one.
	maxBytes int64
	// arms are the points the entry is in the matrix to cross; a clean
	// run that misses one fails the recording.
	arms []guard.Point
}

// budget builds the budget a test hands the entry.
func (e execEntry) budget(l guard.Limits) *guard.Budget {
	if e.maxBytes != 0 && (l.MaxBytes == 0 || l.MaxBytes > e.maxBytes) {
		l.MaxBytes = e.maxBytes
	}
	return guard.New(context.Background(), l, nil)
}

// runAdaptive is the feedback-mode execution: Exec instrumented.
func runAdaptive(p plan.Node) func(plan.Database, *guard.Budget) (*relation.Relation, error) {
	return func(db plan.Database, b *guard.Budget) (*relation.Relation, error) {
		out, _, err := execRows(p, db, Options{Budget: b, Obs: obs.NewRegistry()})
		return out, err
	}
}

// runPlain is the plain execution: Exec under the budget alone.
func runPlain(p plan.Node) func(plan.Database, *guard.Budget) (*relation.Relation, error) {
	return func(db plan.Database, b *guard.Budget) (*relation.Relation, error) {
		out, _, err := execRows(p, db, Options{Budget: b})
		return out, err
	}
}

func execEntries() []execEntry {
	return []execEntry{
		{name: "serial", run: runPlain(faultJoin()), ref: faultJoin()},
		// The feedback-mode entry over a build side five times its probe
		// side: the join builds where the plan puts it.
		{name: "adaptswap", run: runAdaptive(joinOnX("r0", "r2")), ref: joinOnX("r0", "r2")},
		// The same entry under a byte cap its build side cannot fit: the
		// join turns to the partitioned join, arming executor.spill.
		{name: "adaptspill", run: runAdaptive(joinOnX("w1", "w2")), ref: joinOnX("w1", "w2"), maxBytes: spillBytes,
			arms: []guard.Point{guard.PointExecSpill}},
		// The partitioned join itself, which partitions even unbudgeted:
		// its per-partition probes cross the batch point.
		{name: "spill", run: func(db plan.Database, b *guard.Budget) (*relation.Relation, error) {
			return joinSpilled(plan.InnerJoin, eqX("r1", "r2"), db["r1"], db["r2"], b, nil)
		}, ref: faultJoin(), arms: []guard.Point{guard.PointExecBatch}},
		// A root ORDER BY over the join: the columnar sort kernel
		// crosses the operator point and charges its output.
		{name: "sort", run: runPlain(faultSort()), ref: faultSort()},
	}
}

// faultSort orders faultJoin's output on r1.x descending.
func faultSort() plan.Node {
	return plan.NewSort([]plan.SortKey{{Attr: schema.Attr("r1", "x"), Desc: true}}, -1, faultJoin())
}

// execFired records which guard points one clean run of the entry
// crosses, so the injection matrix only arms points that actually fire
// (a point that never fires would make the assertions vacuous).
func execFired(t *testing.T, e execEntry, db plan.Database) []guard.Point {
	t.Helper()
	counts := map[guard.Point]*atomic.Int64{}
	for _, p := range guard.Points() {
		c := &atomic.Int64{}
		counts[p] = c
		guard.Inject(p, func(guard.Point) error { c.Add(1); return nil })
	}
	defer guard.Clear()
	if _, err := e.run(db, e.budget(guard.Limits{})); err != nil {
		t.Fatalf("recording run failed: %v", err)
	}
	var fired []guard.Point
	for _, p := range guard.Points() {
		if counts[p].Load() > 0 {
			fired = append(fired, p)
		}
	}
	if len(fired) == 0 {
		t.Fatal("no guard points fired during a guarded execution")
	}
	for _, p := range e.arms {
		if counts[p].Load() == 0 {
			t.Fatalf("entry never crossed %s", p)
		}
	}
	return fired
}

// TestExecutorFaultMatrix: every point each entry crosses, armed to
// error or panic, must abort the run with the matching typed error —
// the executor never degrades, so a swallowed fault is a failure.
func TestExecutorFaultMatrix(t *testing.T) {
	defer guard.Clear()
	db := faultDB(31)
	for _, e := range execEntries() {
		t.Run(e.name, func(t *testing.T) {
			for _, p := range execFired(t, e, db) {
				t.Run(string(p)+"/error", func(t *testing.T) {
					guard.InjectError(p)
					defer guard.Clear()
					_, err := e.run(db, e.budget(guard.Limits{}))
					if !guard.IsInjected(err) {
						t.Fatalf("err = %v, want injected fault", err)
					}
				})
				t.Run(string(p)+"/panic", func(t *testing.T) {
					guard.InjectPanic(p)
					defer guard.Clear()
					_, err := e.run(db, e.budget(guard.Limits{}))
					if !guard.IsPanic(err) {
						t.Fatalf("err = %v, want *guard.PanicError", err)
					}
				})
			}
		})
	}
}

// TestExecutorPanicLabel: a panic contained at Exec's boundary names
// the phase and the executed plan by its fingerprint, the label built
// only on the way out.
func TestExecutorPanicLabel(t *testing.T) {
	guard.InjectPanic(guard.PointExecOperator)
	defer guard.Clear()
	p := faultJoin()
	_, _, err := Exec(p, faultDB(31), Options{})
	var pe *guard.PanicError
	if !errors.As(err, &pe) || pe.Phase != "execute" || pe.PlanKey != plan.Key(p) {
		t.Fatalf("err = %v, want a *guard.PanicError in execute labelled %s", err, plan.Key(p))
	}
}

// TestExecutorBudgetTrips: the rows and bytes caps abort every entry
// point with a typed budget error.
func TestExecutorBudgetTrips(t *testing.T) {
	db := faultDB(32)
	limits := []struct {
		name string
		l    guard.Limits
	}{
		{"rows", guard.Limits{MaxRows: 10}},
		{"bytes", guard.Limits{MaxBytes: 256}},
	}
	for _, e := range execEntries() {
		for _, lc := range limits {
			t.Run(e.name+"/"+lc.name, func(t *testing.T) {
				_, err := e.run(db, e.budget(lc.l))
				if !guard.IsBudget(err) {
					t.Fatalf("err = %v, want guard.ErrBudget", err)
				}
			})
		}
	}
}

// TestExecutorUntrippedBudgetDeterministic: a budget that never trips
// must not change any entry point's output.
func TestExecutorUntrippedBudgetDeterministic(t *testing.T) {
	db := faultDB(35)
	huge := guard.Limits{MaxRows: 1 << 40, MaxBytes: 1 << 50}
	for _, e := range execEntries() {
		t.Run(e.name, func(t *testing.T) {
			want, err := e.ref.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.run(db, e.budget(huge))
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualAsMultisets(want) {
				t.Fatal("guarded output differs from plan.Node.Eval")
			}
		})
	}
}

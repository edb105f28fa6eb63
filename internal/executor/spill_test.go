// Equivalence, determinism and byte-budget suite for the partitioned
// join: partitioned execution must be multiset-identical to the
// reference join, plan.Node.Eval's, for every kind, including partitions that a byte budget forces to
// split again, and must complete under a byte budget that trips the
// in-memory join. Runs under -race via make race.
package executor

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

// joinSpilled runs the partitioned join the way vecJoin does under
// byte pressure — metering into the budget's registry — over two
// row-major inputs, and boxes the result. A panic surfaces as a
// *guard.PanicError, as it does through Exec.
func joinSpilled(kind plan.JoinKind, pred expr.Pred, l, r *relation.Relation, b *guard.Budget, st *joinProbe) (out *relation.Relation, err error) {
	phase := "execute"
	defer guard.RecoverAs(&err, &phase, nil, nil)
	e := &vecEngine{b: b, batch: execBatchRows, reg: b.Registry()}
	li, ri, residual := splitEqui(pred, l.Schema(), r.Schema())
	res, err := e.partitionJoin(kind, residual, l.Schema().Concat(r.Schema()), batch.FromRelation(l), batch.FromRelation(r), li, ri, st)
	if err != nil {
		return nil, err
	}
	return res.ToRelation(), nil
}

// evalJoin is the reference answer to r1 kind-joined to r2 on pred in
// db: plan.Node.Eval of the join over the two scans.
func evalJoin(kind plan.JoinKind, pred expr.Pred, db plan.Database) (*relation.Relation, error) {
	return plan.NewJoin(kind, pred, plan.NewScan("r1"), plan.NewScan("r2")).Eval(db)
}

// partDB builds r1 and r2 for joins a byte budget can force to split
// their partitions again. r2 has rows rows and r1 a sixteenth of that,
// over a key domain four times rows, so few rows match, and r2 carries
// twenty pad columns: a partition's build table then outweighs its
// output even when every row is NULL-padded. The keys compare across
// kinds: r1.x is an INT and r2.x the FLOAT of the same integer n, y is
// the string of n/2 on both sides, and one key in a hundred is NULL.
func partDB(rng *rand.Rand, rows int) plan.Database {
	key := func(vals []value.Value, float bool) {
		n := rng.Intn(4 * rows)
		vals[0], vals[1] = value.NewInt(int64(n)), value.NewString(fmt.Sprint(n/2))
		if float {
			vals[0] = value.NewFloat(float64(n))
		}
		for c := range 2 {
			if rng.Intn(100) == 0 {
				vals[c] = value.Null
			}
		}
	}
	b1 := relation.NewBuilder("r1", "x", "y")
	vals := make([]value.Value, 2)
	for i := 0; i < rows/16; i++ {
		key(vals, false)
		b1.Row(vals...)
	}
	cols := []string{"x", "y"}
	for c := range 20 {
		cols = append(cols, fmt.Sprintf("p%d", c))
	}
	b2 := relation.NewBuilder("r2", cols...)
	vals = make([]value.Value, len(cols))
	for i := 0; i < rows; i++ {
		key(vals, true)
		for c := 2; c < len(vals); c++ {
			vals[c] = value.NewInt(int64(i))
		}
		b2.Row(vals...)
	}
	return plan.Database{"r1": b1.Relation(), "r2": b2.Relation()}
}

// tightBudget holds the join's whole output (want's rows at its width)
// plus 64 build rows of r. The partitions joined last then find less
// than twice their build table free and split again; the 64 rows are
// the room the small partitions they split into need for their tables.
func tightBudget(want, r *relation.Relation, reg *obs.Registry) *guard.Budget {
	limit := estBytes(want.Len(), want.Schema().Len()) + estBytes(64, r.Schema().Len())
	return guard.New(context.Background(), guard.Limits{MaxBytes: limit}, reg)
}

var joinKinds = []plan.JoinKind{plan.InnerJoin, plan.LeftJoin, plan.RightJoin, plan.FullJoin}

// TestExecutorSpillMatchesJoinExec: the partitioned join ≡ the reference join as
// multisets across join kinds, residuals and NULL keys — unbudgeted,
// where every level-0 partition joins in memory, and under
// tightBudget, which on partDB's inputs forces the last partitions to
// split again.
func TestExecutorSpillMatchesJoinExec(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	residual := expr.Cmp{Op: value.LT, L: expr.Column("r1", "y"), R: expr.Column("r2", "y")}
	preds := []expr.Pred{
		eqX("r1", "r2"),
		expr.And(eqX("r1", "r2"), residual),
		expr.And(eqX("r1", "r2"), eqY("r1", "r2")),
	}
	for di, db := range []plan.Database{bigDB(rng, 500, 17, "r1", "r2"), partDB(rng, 4000)} {
		l, r := db["r1"], db["r2"]
		for _, pred := range preds {
			for _, kind := range joinKinds {
				want, err := evalJoin(kind, pred, db)
				if err != nil {
					t.Fatal(err)
				}
				for _, tight := range []bool{false, true} {
					var b *guard.Budget
					if tight {
						b = tightBudget(want, r, obs.NewRegistry())
					}
					st := &joinProbe{}
					got, err := joinSpilled(kind, pred, l, r, b, st)
					if err != nil {
						t.Fatalf("db %d kind %v tight %v: %v", di, kind, tight, err)
					}
					if !got.EqualAsMultisets(want) {
						t.Fatalf("db %d kind %v tight %v pred %s: partitioned join differs", di, kind, tight, pred)
					}
					if di == 1 && tight && st.SpillRecursions == 0 {
						t.Fatalf("kind %v pred %s: no partition split again under the tight budget", kind, pred)
					}
				}
			}
		}
	}
}

// TestExecutorSpillRecursionCounters: a tight budget must actually
// split partitions again and surface it on the probe and the budget's
// registry alike.
func TestExecutorSpillRecursionCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	db := partDB(rng, 4000)
	want, err := evalJoin(plan.InnerJoin, eqX("r1", "r2"), db)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st := &joinProbe{}
	if _, err := joinSpilled(plan.InnerJoin, eqX("r1", "r2"), db["r1"], db["r2"], tightBudget(want, db["r2"], reg), st); err != nil {
		t.Fatal(err)
	}
	if st.SpillParts == 0 || st.SpillRecursions == 0 {
		t.Errorf("no partitions or recursion under a tight budget: %+v", st)
	}
	snap := reg.Snapshot().Counters
	if snap["exec.spill.partitions"] != int64(st.SpillParts) || snap["exec.spill.recursions"] != int64(st.SpillRecursions) {
		t.Errorf("registry %d partitions, %d recursions; probe %+v",
			snap["exec.spill.partitions"], snap["exec.spill.recursions"], st)
	}
}

// TestExecutorSpillDeterministic: identical runs produce
// tuple-for-tuple identical output (partition order, then input
// order, then NULL-key pads), partitions split again included.
func TestExecutorSpillDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	db := partDB(rng, 4000)
	pred := eqX("r1", "r2")
	want, err := evalJoin(plan.FullJoin, pred, db)
	if err != nil {
		t.Fatal(err)
	}
	a, err := joinSpilled(plan.FullJoin, pred, db["r1"], db["r2"], tightBudget(want, db["r2"], nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := joinSpilled(plan.FullJoin, pred, db["r1"], db["r2"], tightBudget(want, db["r2"], nil), nil)
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
// output stays small while the build side's modelled footprint is far
// over the byte budget.
func spillDB(rng *rand.Rand, rows, domain int) plan.Database {
	return bigDB(rng, rows, domain, "r1", "r2")
}

// TestExecutorSpillCompletesWhereInMemoryTrips is the byte-budget
// contract: under a MaxBytes budget that the in-memory hash join's
// build-side reservation trips, the guarded entry point partitions the
// join instead, and it and the partitioned join alone both match the
// unbudgeted serial join as a multiset.
func TestExecutorSpillCompletesWhereInMemoryTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	db := spillDB(rng, 4000, 100000)
	l, r := db["r1"], db["r2"]
	pred := eqX("r1", "r2")
	want, err := evalJoin(plan.InnerJoin, pred, db)
	if err != nil {
		t.Fatal(err)
	}
	// Build side ≈ rows×3 cols×32 B ≈ 2–4 hundred KB modelled; 100 KB
	// cannot hold it, but can hold any level-0 partition's table plus
	// the (small, wide-domain) join output.
	limits := guard.Limits{MaxBytes: 100_000}
	if err := guard.New(context.Background(), limits, nil).ReserveBytes(estBytes(r.Len(), r.Schema().Len())); !guard.IsBudget(err) {
		t.Fatalf("in-memory build reservation under budget: err = %v, want guard.ErrBudget", err)
	}
	reg := obs.NewRegistry()
	got, _, err := execRows(
		plan.NewJoin(plan.InnerJoin, pred, plan.NewScan("r1"), plan.NewScan("r2")),
		db, Options{Budget: guard.New(context.Background(), limits, reg)})
	if err != nil {
		t.Fatalf("guarded join under budget: %v", err)
	}
	if !got.EqualAsMultisets(want) || reg.Counter("exec.spill.joins").Value() != 1 {
		t.Fatalf("guarded join under budget: multiset equal %v, spilled joins %d, want true and 1",
			got.EqualAsMultisets(want), reg.Counter("exec.spill.joins").Value())
	}
	got, err = joinSpilled(plan.InnerJoin, pred, l, r,
		guard.New(context.Background(), limits, nil), nil)
	if err != nil {
		t.Fatalf("partitioned join under the same budget failed: %v", err)
	}
	if !got.EqualAsMultisets(want) {
		t.Fatal("partitioned result differs from unbudgeted join")
	}
}

// TestExecutorSpillEqualKeysMeet: keys equal under value.Equal reach
// the same partition at every level — INT 1 against FLOAT 1.0, equal
// strings — and NULL keys reach none. The join partitions under
// tightBudget, which splits partitions again, and
// every kind must match the reference join; each predicate's answer holds matched
// rows, so a key routed apart from its match would show.
func TestExecutorSpillEqualKeysMeet(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	db := partDB(rng, 4000)
	r := db["r2"]
	for _, pred := range []expr.Pred{eqX("r1", "r2"), eqY("r1", "r2"), expr.And(eqX("r1", "r2"), eqY("r1", "r2"))} {
		inner, err := evalJoin(plan.InnerJoin, pred, db)
		if err != nil {
			t.Fatal(err)
		}
		if inner.Len() == 0 {
			t.Fatalf("pred %s: no matched rows to route", pred)
		}
		for _, kind := range joinKinds {
			want, err := evalJoin(kind, pred, db)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			got, _, err := execRows(plan.NewJoin(kind, pred, plan.NewScan("r1"), plan.NewScan("r2")),
				db, Options{Budget: tightBudget(want, r, reg), Obs: reg})
			if err != nil {
				t.Fatalf("kind %v pred %s: %v", kind, pred, err)
			}
			if !got.EqualAsMultisets(want) {
				t.Fatalf("kind %v pred %s: partitioned join differs from plan.Node.Eval", kind, pred)
			}
			snap := reg.Snapshot().Counters
			if snap["exec.spill.joins"] != 1 || snap["exec.spill.recursions"] == 0 {
				t.Fatalf("kind %v pred %s: spilled joins %d, recursions %d, want 1 and some", kind, pred,
					snap["exec.spill.joins"], snap["exec.spill.recursions"])
			}
		}
	}
}

// BenchmarkExecSpill times TestVectorizedSpills's partitioned join — 4 000
// rows a side on a wide key domain under MaxBytes 100 000 — through
// Exec, result left columnar.
func BenchmarkExecSpill(b *testing.B) {
	rng := rand.New(rand.NewSource(213))
	db := bigDB(rng, 4000, 100000, "r1", "r2")
	p := plan.NewJoin(plan.InnerJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
	limits := guard.Limits{MaxBytes: 100_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg := obs.NewRegistry()
		if _, _, err := Exec(p, db, Options{Budget: guard.New(context.Background(), limits, reg), Obs: reg}); err != nil {
			b.Fatal(err)
		}
	}
}

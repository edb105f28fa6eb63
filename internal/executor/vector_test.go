// Equivalence suite for the vectorized engine: the columnar walker and
// the production entry point that runs on it (Exec, plain and
// instrumented) must be multiset-identical to plan.Node.Eval on every
// plan shape the reference accepts — all join
// kinds with NULL keys, MGOJ, GenSel, grouping with every aggregate
// form — across batch sizes {1, 3, 1024}, and must agree bit-for-bit
// on aggregate float arithmetic. It also pins what the serving path
// relies on beyond multiset equality: every scan of a base relation
// reads the table's own columns, a lopsided join kept inside the
// kernel, a sort's row order, and an annotation on every node. make
// race runs this file under the race detector.
package executor

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// vecBatchSizes are swept by every equivalence test: 1 and 3 pin
// batch-boundary handling, 1024 is the production granularity.
var vecBatchSizes = []int{1, 3, 1024}

// execRows runs p through Exec under o and boxes the result row-major,
// with the run's annotations when o.Obs is set.
func execRows(p plan.Node, db plan.Database, o Options) (*relation.Relation, plan.Annotations, error) {
	out, ann, err := Exec(p, db, o)
	if err != nil {
		return nil, nil, err
	}
	return out.ToRelation(), ann, nil
}

// servingEngine is one way the query service executes a plan.
type servingEngine struct {
	name string
	run  func(plan.Node, plan.Database) (*relation.Relation, error)
}

// servingEngines are the ways the query service executes through Exec:
// plain for ordinary requests, instrumented when feedback is on. The
// equivalence suites hold both to plan.Node.Eval.
func servingEngines() []servingEngine {
	return []servingEngine{
		{"Exec", func(p plan.Node, db plan.Database) (*relation.Relation, error) {
			out, _, err := execRows(p, db, Options{})
			return out, err
		}},
		{"Exec instrumented", func(p plan.Node, db plan.Database) (*relation.Relation, error) {
			out, _, err := execRows(p, db, Options{Obs: obs.NewRegistry()})
			return out, err
		}},
	}
}

// runVec runs p on the columnar walker at batch size bs — the
// in-package handle on what no entry point exports: the batch-size
// sweep. Panics are contained as at the entry points.
func runVec(p plan.Node, db plan.Database, b *guard.Budget, bs int) (out *relation.Relation, err error) {
	phase := "execute"
	defer guard.RecoverAs(&err, &phase, p, nil)
	e := &vecEngine{db: db, b: b, batch: bs, reg: b.Registry()}
	return e.run(p)
}

// run executes the plan and boxes the root's output row-major.
func (e *vecEngine) run(n plan.Node) (*relation.Relation, error) {
	col, err := e.exec(n)
	if err != nil {
		return nil, err
	}
	return col.ToRelation(), nil
}

// mixedDB builds relations with an int key x, an int y, a float f and
// a string s (all ~10% NULL) so the typed selection and aggregation
// kernels and the PhysAny fallbacks all engage.
func mixedDB(rng *rand.Rand, rows, domain int, rels ...string) plan.Database {
	words := []string{"ape", "bee", "cat", "dog", "eel"}
	db := make(plan.Database, len(rels))
	for _, name := range rels {
		b := relation.NewBuilder(name, "x", "y", "f", "s")
		n := rows/2 + rng.Intn(rows/2+1)
		for i := 0; i < n; i++ {
			vals := make([]value.Value, 4)
			for j := range vals {
				if rng.Intn(10) == 0 {
					vals[j] = value.Null
					continue
				}
				switch j {
				case 2:
					vals[j] = value.NewFloat(rng.Float64() * float64(domain))
				case 3:
					vals[j] = value.NewString(words[rng.Intn(len(words))])
				default:
					vals[j] = value.NewInt(int64(rng.Intn(domain)))
				}
			}
			b.Row(vals...)
		}
		db[name] = b.Relation()
	}
	return db
}

// vecPlans is the plan zoo: every ported operator plus the fallback
// seams (MGOJ compensation, GenSel padding).
func vecPlans() []plan.Node {
	lt := func(a, b string) expr.Pred {
		return expr.Cmp{Op: value.LT, L: expr.Column(a, "y"), R: expr.Column(b, "y")}
	}
	return []plan.Node{
		// Selection kernels: typed col-const, col-col, and a disjunction
		// that must take the generic row path.
		plan.NewSelect(expr.Cmp{Op: value.GE, L: expr.Column("r1", "x"), R: expr.Int(5)},
			plan.NewScan("r1")),
		plan.NewSelect(expr.And(
			expr.Cmp{Op: value.LT, L: expr.Column("r1", "x"), R: expr.Column("r1", "y")},
			expr.Cmp{Op: value.EQ, L: expr.Column("r1", "s"), R: expr.Str("cat")}),
			plan.NewScan("r1")),
		plan.NewSelect(expr.Or(
			expr.Cmp{Op: value.LT, L: expr.Column("r1", "f"), R: expr.Const{Val: value.NewFloat(3)}},
			expr.Cmp{Op: value.EQ, L: expr.Column("r1", "x"), R: expr.Int(1)}),
			plan.NewScan("r1")),
		// Projection, plain and distinct.
		plan.NewProject([]schema.Attribute{schema.Attr("r1", "x"), schema.Attr("r1", "s")}, false,
			plan.NewScan("r1")),
		plan.NewProject([]schema.Attribute{schema.Attr("r1", "x"), schema.Attr("r1", "s")}, true,
			plan.NewScan("r1")),
		// Every join kind, with residuals and NULL keys.
		plan.NewJoin(plan.InnerJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewJoin(plan.LeftJoin, expr.And(eqX("r1", "r2"), lt("r1", "r2")),
			plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewJoin(plan.RightJoin, eqY("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewJoin(plan.FullJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
		// Non-equi join: vectorized engine falls back to the nested loop.
		plan.NewJoin(plan.InnerJoin, lt("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
		// MGOJ and generalized selection over join trees.
		plan.NewMGOJ(eqX("r2", "r3"), []plan.PreservedSpec{plan.NewPreserved("r1")},
			plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
			plan.NewScan("r3")),
		plan.NewGenSel(eqY("r1", "r3"), []plan.PreservedSpec{plan.NewPreserved("r1", "r2")},
			plan.NewJoin(plan.LeftJoin, eqX("r2", "r3"),
				plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
				plan.NewScan("r3"))),
		// Aggregation: typed int/float kernels, distinct forms, computed
		// arguments, and grouping keys with NULLs.
		plan.NewGroupBy(
			[]schema.Attribute{schema.Attr("r1", "x")},
			[]algebra.Aggregate{
				{Func: algebra.CountStar, Out: schema.Attr("q", "n")},
				{Func: algebra.Count, Arg: expr.Column("r2", "y"), Out: schema.Attr("q", "c")},
				{Func: algebra.Sum, Arg: expr.Column("r2", "y"), Out: schema.Attr("q", "sy")},
				{Func: algebra.Sum, Arg: expr.Column("r2", "f"), Out: schema.Attr("q", "sf")},
				{Func: algebra.Avg, Arg: expr.Column("r2", "f"), Out: schema.Attr("q", "af")},
				{Func: algebra.Min, Arg: expr.Column("r2", "f"), Out: schema.Attr("q", "mf")},
				{Func: algebra.Max, Arg: expr.Column("r2", "y"), Out: schema.Attr("q", "my")},
				{Func: algebra.CountDistinct, Arg: expr.Column("r2", "x"), Out: schema.Attr("q", "cd")},
				{Func: algebra.SumDistinct, Arg: expr.Column("r2", "y"), Out: schema.Attr("q", "sd")},
				{Func: algebra.AvgDistinct, Arg: expr.Column("r2", "f"), Out: schema.Attr("q", "ad")},
			},
			plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))),
		// Aggregation with no keys over a possibly-empty selection.
		plan.NewGroupBy(nil,
			[]algebra.Aggregate{
				{Func: algebra.CountStar, Out: schema.Attr("q", "n")},
				{Func: algebra.Sum, Arg: expr.Column("r1", "f"), Out: schema.Attr("q", "s")},
			},
			plan.NewSelect(expr.Cmp{Op: value.LT, L: expr.Column("r1", "x"), R: expr.Int(2)},
				plan.NewScan("r1"))),
		// Sort over a selection's view.
		plan.NewSort([]plan.SortKey{{Attr: schema.Attr("r1", "x")}}, -1,
			plan.NewSelect(expr.Cmp{Op: value.GE, L: expr.Column("r1", "y"), R: expr.Int(3)},
				plan.NewScan("r1"))),
	}
}

// TestVectorizedMatchesRun is the engine equivalence property: the
// columnar walker at every batch size and both serving entry points
// return plan.Node.Eval's multiset on randomized mixed-kind relations with NULL
// keys.
func TestVectorizedMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	plans := vecPlans()
	for pi, p := range plans {
		for trial := 0; trial < 2; trial++ {
			db := mixedDB(rng, 300, 19, "r1", "r2", "r3")
			want, err := p.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			for _, bs := range vecBatchSizes {
				got, err := runVec(p, db, nil, bs)
				if err != nil {
					t.Fatalf("plan %d batch %d: %v", pi, bs, err)
				}
				if !got.EqualAsMultisets(want) {
					t.Fatalf("plan %d batch %d trial %d: columnar walker differs from plan.Node.Eval", pi, bs, trial)
				}
			}
			for _, e := range servingEngines() {
				got, err := e.run(p, db)
				if err != nil {
					t.Fatalf("plan %d: %s: %v", pi, e.name, err)
				}
				if !got.EqualAsMultisets(want) {
					t.Fatalf("plan %d trial %d: %s differs from plan.Node.Eval", pi, trial, e.name)
				}
			}
		}
	}
}

// TestVectorizedSelectPreservesOrder: filters keep input order, so a
// pure scan→select plan must match plan.Node.Eval row-for-row, not just as a
// multiset.
func TestVectorizedSelectPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	db := mixedDB(rng, 400, 17, "r1")
	p := plan.NewSelect(expr.And(
		expr.Cmp{Op: value.GE, L: expr.Column("r1", "x"), R: expr.Int(3)},
		expr.Cmp{Op: value.LT, L: expr.Column("r1", "f"), R: expr.Const{Val: value.NewFloat(12)}}),
		plan.NewScan("r1"))
	want, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range vecBatchSizes {
		got, err := runVec(p, db, nil, bs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("batch %d: lengths differ: %d vs %d", bs, got.Len(), want.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if !got.Tuple(i).EqualTuple(want.Tuple(i)) {
				t.Fatalf("batch %d row %d: order not preserved", bs, i)
			}
		}
	}
}

// TestVectorizedEmptyInputs pins the aggregate empty-group semantics
// and zero-row plumbing through the columnar path.
func TestVectorizedEmptyInputs(t *testing.T) {
	db := plan.Database{"r1": relation.New(schema.Base("r1", "x", "y", "f", "s"))}
	never := expr.Cmp{Op: value.LT, L: expr.Column("r1", "x"), R: expr.Int(-1)}
	plans := []plan.Node{
		plan.NewSelect(never, plan.NewScan("r1")),
		plan.NewGroupBy([]schema.Attribute{schema.Attr("r1", "x")},
			[]algebra.Aggregate{{Func: algebra.CountStar, Out: schema.Attr("q", "n")}},
			plan.NewScan("r1")),
		plan.NewGroupBy(nil,
			[]algebra.Aggregate{
				{Func: algebra.CountStar, Out: schema.Attr("q", "n")},
				{Func: algebra.Count, Arg: expr.Column("r1", "y"), Out: schema.Attr("q", "c"), NullIfEmpty: true},
				{Func: algebra.Sum, Arg: expr.Column("r1", "y"), Out: schema.Attr("q", "s")},
			},
			plan.NewScan("r1")),
	}
	for pi, p := range plans {
		want, err := p.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range vecBatchSizes {
			got, err := runVec(p, db, nil, bs)
			if err != nil {
				t.Fatalf("plan %d: %v", pi, err)
			}
			if !got.EqualAsMultisets(want) {
				t.Fatalf("plan %d batch %d: empty-input results differ", pi, bs)
			}
		}
	}
}

// TestVectorizedSpills: under a byte budget the in-memory build cannot
// reserve, the join turns to the partitioned join at every entry point
// — bare and instrumented — and still matches the unbudgeted run.
func TestVectorizedSpills(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	db := bigDB(rng, 4000, 100000, "r1", "r2")
	p := plan.NewJoin(plan.InnerJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
	want, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	limits := guard.Limits{MaxBytes: 100_000}
	for _, instrumented := range []bool{false, true} {
		reg := obs.NewRegistry()
		o := Options{Budget: guard.New(context.Background(), limits, reg)}
		if instrumented {
			o.Obs = reg
		}
		got, _, err := Exec(p, db, o)
		if err != nil {
			t.Fatalf("instrumented=%v: join did not spill under budget: %v", instrumented, err)
		}
		if !got.ToRelation().EqualAsMultisets(want) {
			t.Fatalf("instrumented=%v: spilled result differs from plan.Node.Eval", instrumented)
		}
		snap := reg.Snapshot().Counters
		if snap["exec.spill.joins"] != 1 || snap["exec.spill.partitions"] == 0 {
			t.Errorf("instrumented=%v: spill not counted: joins %d, partitions %d",
				instrumented, snap["exec.spill.joins"], snap["exec.spill.partitions"])
		}
	}
}

// TestVectorizedBudgetTrips: a tight row cap trips with the typed
// budget error — partitioning answers byte pressure only.
func TestVectorizedBudgetTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(214))
	db := mixedDB(rng, 400, 7, "r1", "r2")
	p := plan.NewJoin(plan.InnerJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
	_, _, err := Exec(p, db, Options{Budget: guard.New(context.Background(), guard.Limits{MaxRows: 50}, nil), Obs: obs.NewRegistry()})
	if !guard.IsBudget(err) {
		t.Fatalf("err = %v, want guard.ErrBudget", err)
	}
}

// TestVectorizedFallbackCounted: an operator that falls back to the
// tuple algebra increments its exec.vector.fallback.<op> counter and
// still computes correctly.
func TestVectorizedFallbackCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(215))
	db := mixedDB(rng, 200, 11, "r1", "r2")
	p := plan.NewGenSel(eqY("r1", "r2"), []plan.PreservedSpec{plan.NewPreserved("r1")},
		plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")))
	before := obs.Default().Counter("exec.vector.fallback.gensel-pad").Value()
	want, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := execRows(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsMultisets(want) {
		t.Fatal("fallback result differs from plan.Node.Eval")
	}
	if obs.Default().Counter("exec.vector.fallback.gensel-pad").Value() == before {
		t.Error("exec.vector.fallback.gensel-pad not incremented")
	}
}

// TestVectorizedInstrumented: the EXPLAIN ANALYZE path annotates every
// node with rows and every join with its probe extras.
func TestVectorizedInstrumented(t *testing.T) {
	rng := rand.New(rand.NewSource(216))
	db := mixedDB(rng, 300, 13, "r1", "r2")
	join := plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
	p := plan.NewGroupBy(
		[]schema.Attribute{schema.Attr("r1", "x")},
		[]algebra.Aggregate{{Func: algebra.CountStar, Out: schema.Attr("q", "n")}},
		join)
	reg := obs.NewRegistry()
	out, ann, err := execRows(p, db, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if !out.EqualAsMultisets(want) {
		t.Fatal("instrumented vectorized result differs from plan.Node.Eval")
	}
	a := ann.For(p)
	if a.Rows != out.Len() {
		t.Errorf("root annotation rows = %d, want %d", a.Rows, out.Len())
	}
	ja := ann.For(join)
	if _, ok := ja.Extra["hash_build_rows"]; !ok {
		t.Error("join annotation missing hash_build_rows")
	}
	if len(ann) != countNodes(p) {
		t.Errorf("%d annotations, plan has %d operators", len(ann), countNodes(p))
	}

}

// TestVectorizedSharedImage: every engine scanning one database reads
// each relation's own columns through one scan per relation — made by
// the first scan, never remade, never written through by a kernel.
// After the whole plan zoo has run on every columnar entry point, each
// relation holds the rows it started with and Of returns the scan it
// returned before.
func TestVectorizedSharedImage(t *testing.T) {
	rng := rand.New(rand.NewSource(217))
	db := mixedDB(rng, 300, 19, "r1", "r2", "r3")
	rows := make(map[string][]relation.Tuple, len(db))
	scans := make(map[string]*batch.Rel, len(db))
	for name, rel := range db {
		rows[name], scans[name] = rel.Tuples(), batch.Of(rel)
	}
	for pi, p := range vecPlans() {
		want, err := p.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range servingEngines() {
			got, err := e.run(p, db)
			if err != nil {
				t.Fatalf("plan %d: %s: %v", pi, e.name, err)
			}
			if !got.EqualAsMultisets(want) {
				t.Fatalf("plan %d: %s differs from plan.Node.Eval", pi, e.name)
			}
		}
	}
	for name, rel := range db {
		if batch.Of(rel) != scans[name] {
			t.Errorf("%s: the scan was remade", name)
		}
		for i, tu := range rel.Tuples() {
			if !tu.EqualTuple(rows[name][i]) {
				t.Fatalf("%s row %d: %v, was %v — a kernel wrote through a base column", name, i, tu, rows[name][i])
			}
		}
	}
}

// TestVectorizedAliasedScan: an aliased scan reads the base table's
// columns under the renamed schema, so a self-join makes one scan.
func TestVectorizedAliasedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(218))
	db := mixedDB(rng, 200, 11, "r1")
	p := plan.NewJoin(plan.LeftJoin, eqX("r1", "a"),
		plan.NewScan("r1"), &plan.Scan{Rel: "r1", As: "a"})
	want, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	scan := batch.Of(db["r1"])
	for _, e := range servingEngines() {
		got, err := e.run(p, db)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if !got.EqualAsMultisets(want) {
			t.Fatalf("%s differs from plan.Node.Eval on an aliased self-join", e.name)
		}
	}
	if batch.Of(db["r1"]) != scan {
		t.Error("the aliased self-join made a second scan of r1")
	}
}

// TestVecNativeSwapMatchesStatic: a join whose planned build side is
// fifty times its probe side runs as planned and is multiset-identical
// to the static plan for all four join kinds, with NULL keys, duplicate
// keys and a residual conjunct, at every batch size — and it stays
// inside the kernel: the plan's column order, no fallback to the row
// join, and no exec.adapt.* counter.
func TestVecNativeSwapMatchesStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(219))
	db := skewDB(rng, 60, 3000, 40) // ~5% NULL keys, ~75 duplicates per key on the build side
	lt := expr.Cmp{Op: value.LT, L: expr.Column("r1", "y"), R: expr.Column("r2", "y")}
	kinds := []plan.JoinKind{plan.InnerJoin, plan.LeftJoin, plan.RightJoin, plan.FullJoin}
	for _, kind := range kinds {
		for _, pred := range []expr.Pred{eqX("r1", "r2"), expr.And(eqX("r1", "r2"), lt)} {
			p := plan.NewJoin(kind, pred, plan.NewScan("r1"), plan.NewScan("r2"))
			want, err := p.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			for _, bs := range vecBatchSizes {
				reg := obs.NewRegistry()
				e := &vecEngine{db: db, batch: bs, reg: reg}
				got, err := e.run(p)
				if err != nil {
					t.Fatalf("%v %s batch %d: %v", kind, pred, bs, err)
				}
				if !got.EqualAsMultisets(want) {
					t.Fatalf("%v %s batch %d: join differs from static", kind, pred, bs)
				}
				if !slices.Equal(got.Schema().Attrs(), want.Schema().Attrs()) {
					t.Fatalf("%v: join changed the column order: %s vs %s", kind, got.Schema(), want.Schema())
				}
				for name := range reg.Snapshot().Counters {
					if strings.HasPrefix(name, "exec.vector.fallback.") || strings.HasPrefix(name, "exec.adapt.") {
						t.Fatalf("%v batch %d: unexpected counter %s", kind, bs, name)
					}
				}
			}
		}
	}
}

// sortedOn returns a copy of rel sorted by the keys (full sort, no
// limit).
func sortedOn(t *testing.T, rel *relation.Relation, keys ...plan.SortKey) *relation.Relation {
	t.Helper()
	out, err := plan.SortRows(rel, keys, -1)
	if err != nil {
		t.Fatalf("sorting input: %v", err)
	}
	return out
}

// TestVectorizedSortMatchesRun: a sort comes back from the
// columnar entry points row for row as plan.Node.Eval returns it — whether its
// input arrives already in key order (a sorted table under a selection
// and a non-distinct projection, which the sort hands on unchanged)
// or not (a join's output, which it sorts).
func TestVectorizedSortMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(220))
	raw := mixedDB(rng, 300, 23, "r1", "r2")
	x, y := plan.SortKey{Attr: schema.Attr("r1", "x")}, plan.SortKey{Attr: schema.Attr("r1", "y"), Desc: true}
	db := plan.Database{"r1": sortedOn(t, raw["r1"], x, y), "r2": raw["r2"]}
	inOrder := plan.NewSort([]plan.SortKey{x, y}, -1,
		plan.NewProject([]schema.Attribute{schema.Attr("r1", "x"), schema.Attr("r1", "y"), schema.Attr("r1", "s")}, false,
			plan.NewSelect(expr.Cmp{Op: value.GE, L: expr.Column("r1", "f"), R: expr.Int(4)}, plan.NewScan("r1"))))
	joined := plan.NewSort([]plan.SortKey{{Attr: schema.Attr("r1", "f"), Desc: true}}, -1,
		plan.NewProject([]schema.Attribute{schema.Attr("r1", "f"), schema.Attr("r2", "x")}, false,
			plan.NewJoin(plan.InnerJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))))
	for pi, p := range []plan.Node{inOrder, joined} {
		want, err := p.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 {
			t.Fatalf("plan %d: test premise: empty result", pi)
		}
		for _, e := range servingEngines() {
			got, err := e.run(p, db)
			if err != nil {
				t.Fatalf("plan %d: %s: %v", pi, e.name, err)
			}
			if got.Len() != want.Len() {
				t.Fatalf("plan %d: %s returned %d rows, want %d", pi, e.name, got.Len(), want.Len())
			}
			for i := 0; i < got.Len(); i++ {
				if !got.Tuple(i).EqualTuple(want.Tuple(i)) {
					t.Fatalf("plan %d: %s row %d differs: %v, want %v", pi, e.name, i, got.Tuple(i), want.Tuple(i))
				}
			}
		}
	}
}

// TestVectorizedAnnotatesEveryNode: instrumented Exec annotates
// every node of the plan it was given — kernels, fallbacks and the
// seams under MGOJ and generalized selection alike — with that
// subtree's true cardinality. The service's feedback loop reads
// ann[node].Rows for each composite node of the bound plan.
func TestVectorizedAnnotatesEveryNode(t *testing.T) {
	rng := rand.New(rand.NewSource(221))
	raw := mixedDB(rng, 200, 13, "r1", "r2", "r3")
	x := plan.SortKey{Attr: schema.Attr("r1", "x")}
	db := plan.Database{"r1": sortedOn(t, raw["r1"], x), "r2": raw["r2"], "r3": raw["r3"]}
	// A sort whose input is already in order returns that input.
	plans := append(vecPlans(), plan.NewSort([]plan.SortKey{x}, -1, plan.NewScan("r1")))
	for pi, p := range plans {
		_, ann, err := Exec(p, db, Options{Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("plan %d: %v", pi, err)
		}
		plan.Walk(p, func(n plan.Node) {
			a, ok := ann[n]
			if !ok {
				t.Fatalf("plan %d: no annotation for %s", pi, n)
			}
			want, err := n.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			if a.Rows != want.Len() {
				t.Fatalf("plan %d: %s annotated %d rows, plan.Node.Eval gives %d", pi, n, a.Rows, want.Len())
			}
		})
	}
}

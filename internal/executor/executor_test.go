package executor

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

func randDB(rng *rand.Rand, maxRows, domain int, rels ...string) plan.Database {
	db := make(plan.Database, len(rels))
	for _, name := range rels {
		b := relation.NewBuilder(name, "x", "y")
		n := rng.Intn(maxRows + 1)
		for i := 0; i < n; i++ {
			vals := make([]value.Value, 2)
			for j := range vals {
				if rng.Intn(8) == 0 {
					vals[j] = value.Null
				} else {
					vals[j] = value.NewInt(int64(rng.Intn(domain)))
				}
			}
			b.Row(vals...)
		}
		db[name] = b.Relation()
	}
	return db
}

// bigDB builds relations of rows/2..rows tuples over x and y, each
// value NULL one time in ten — large enough for batch boundaries, the
// spill partitioner and byte budgets to engage.
func bigDB(rng *rand.Rand, rows, domain int, rels ...string) plan.Database {
	db := make(plan.Database, len(rels))
	for _, name := range rels {
		b := relation.NewBuilder(name, "x", "y")
		n := rows/2 + rng.Intn(rows/2+1)
		for i := 0; i < n; i++ {
			vals := make([]value.Value, 2)
			for j := range vals {
				if rng.Intn(10) == 0 {
					vals[j] = value.Null
				} else {
					vals[j] = value.NewInt(int64(rng.Intn(domain)))
				}
			}
			b.Row(vals...)
		}
		db[name] = b.Relation()
	}
	return db
}

func eqX(a, b string) expr.Pred { return expr.EqCols(a, "x", b, "x") }
func eqY(a, b string) expr.Pred { return expr.EqCols(a, "y", b, "y") }

// TestRunMatchesReference cross-checks the physical executor against
// the reference semantics on randomized plans and databases: every
// join kind, equi and non-equi predicates, generalized selections,
// MGOJ and aggregation. The columnar serving entry points are held to
// Run's multiset on the same plans and databases.
func TestRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	lt := func(a, b string) expr.Pred {
		return expr.Cmp{Op: value.LT, L: expr.Column(a, "y"), R: expr.Column(b, "y")}
	}
	plans := []plan.Node{
		plan.NewJoin(plan.InnerJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewJoin(plan.LeftJoin, expr.And(eqX("r1", "r2"), lt("r1", "r2")),
			plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewJoin(plan.RightJoin, eqY("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewJoin(plan.FullJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewJoin(plan.FullJoin, lt("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewGenSel(eqY("r1", "r3"), []plan.PreservedSpec{plan.NewPreserved("r1", "r2")},
			plan.NewJoin(plan.LeftJoin, eqX("r2", "r3"),
				plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
				plan.NewScan("r3"))),
		plan.NewMGOJ(eqX("r2", "r3"), []plan.PreservedSpec{plan.NewPreserved("r1")},
			plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
			plan.NewScan("r3")),
		plan.NewGroupBy(
			[]schema.Attribute{schema.Attr("r1", "x")},
			[]algebra.Aggregate{{Func: algebra.Count, Arg: expr.Column("r2", "y"), Out: schema.Attr("q", "c")}},
			plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))),
		plan.NewSelect(lt("r1", "r2"),
			plan.NewJoin(plan.InnerJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))),
		plan.NewProject([]schema.Attribute{schema.Attr("r1", "x"), schema.Attr("r1", "y")}, true,
			plan.NewScan("r1")),
	}
	for pi, p := range plans {
		for trial := 0; trial < 25; trial++ {
			db := randDB(rng, 7, 3, "r1", "r2", "r3")
			want, err := p.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(p, db)
			if err != nil {
				t.Fatalf("plan %d: %v", pi, err)
			}
			if !got.EqualAsSets(want) {
				t.Fatalf("plan %d trial %d: executor differs from reference\nplan: %s\ngot:\n%s\nwant:\n%s",
					pi, trial, p, got.Format(true), want.Format(true))
			}
			for _, e := range servingEngines() {
				col, err := e.run(p, db)
				if err != nil {
					t.Fatalf("plan %d: %s: %v", pi, e.name, err)
				}
				if !col.EqualAsMultisets(got) {
					t.Fatalf("plan %d trial %d: %s differs from Run\nplan: %s\ngot:\n%s\nwant:\n%s",
						pi, trial, e.name, p, col.Format(true), got.Format(true))
				}
			}
		}
	}
}

// TestRunSaturatedPlansAgree executes every plan of a saturated
// equivalence class with the physical executor and checks they all
// produce the query's result — the end-to-end soundness path the
// benchmarks rely on.
func TestRunSaturatedPlansAgree(t *testing.T) {
	q := plan.NewJoin(plan.LeftJoin, expr.And(eqY("r1", "r3"), eqX("r2", "r3")),
		plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewScan("r3"))
	plans := core.Saturate(q, core.SaturateOptions{MaxPlans: 200})
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		db := randDB(rng, 6, 3, "r1", "r2", "r3")
		want, err := Run(q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plans {
			got, err := Run(p, db)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			if !got.EqualAsSets(want) {
				t.Fatalf("trial %d: plan %s disagrees", trial, p)
			}
		}
	}
}

// TestHashJoinNullKeys pins that NULL join keys never match but
// preserved sides still pad.
func TestHashJoinNullKeys(t *testing.T) {
	l := relation.NewBuilder("l", "x").Row(value.Null).Row(value.NewInt(1)).Relation()
	r := relation.NewBuilder("r", "x").Row(value.Null).Row(value.NewInt(1)).Relation()
	out, err := JoinExec(plan.FullJoin, expr.EqCols("l", "x", "r", "x"), l, r)
	if err != nil {
		t.Fatal(err)
	}
	// 1=1 matches; both NULL rows pad on their own side: 3 rows.
	if out.Len() != 3 {
		t.Fatalf("got %d rows, want 3:\n%s", out.Len(), out.Format(true))
	}
}

// TestHashJoinScale is a coarse guard against accidentally quadratic
// equi-joins: 20k x 20k rows must join quickly.
func TestHashJoinScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	n := 20000
	b1 := relation.NewBuilder("l", "x")
	b2 := relation.NewBuilder("r", "x")
	for i := 0; i < n; i++ {
		b1.Row(value.NewInt(int64(i)))
		b2.Row(value.NewInt(int64(i)))
	}
	out, err := JoinExec(plan.InnerJoin, expr.EqCols("l", "x", "r", "x"), b1.Relation(), b2.Relation())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != n {
		t.Fatalf("got %d rows, want %d", out.Len(), n)
	}
}

package executor

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
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

// TestRunMatchesReference cross-checks the columnar engine against the
// reference semantics on randomized plans and databases: every join
// kind, equi and non-equi predicates, generalized selections, MGOJ and
// aggregation. Exec, plain and instrumented, is held to
// plan.Node.Eval's multiset.
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
			for _, e := range servingEngines() {
				col, err := e.run(p, db)
				if err != nil {
					t.Fatalf("plan %d: %s: %v", pi, e.name, err)
				}
				if !col.EqualAsMultisets(want) {
					t.Fatalf("plan %d trial %d: %s differs from plan.Node.Eval\nplan: %s\ngot:\n%s\nwant:\n%s",
						pi, trial, e.name, p, col.String(), want.String())
				}
			}
		}
	}
}

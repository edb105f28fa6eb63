package simplify

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

func eqX(a, b string) expr.Pred { return expr.EqCols(a, "x", b, "x") }
func eqY(a, b string) expr.Pred { return expr.EqCols(a, "y", b, "y") }

func randDB(rng *rand.Rand, maxRows int, rels ...string) plan.Database {
	db := make(plan.Database, len(rels))
	for _, name := range rels {
		b := relation.NewBuilder(name, "x", "y")
		n := rng.Intn(maxRows + 1)
		for i := 0; i < n; i++ {
			vals := make([]value.Value, 2)
			for j := range vals {
				if rng.Intn(6) == 0 {
					vals[j] = value.Null
				} else {
					vals[j] = value.NewInt(int64(rng.Intn(3)))
				}
			}
			b.Row(vals...)
		}
		db[name] = b.Relation()
	}
	return db
}

// TestSelectOverNullSupplier: σ with a predicate on the
// null-supplying side turns the outer join into an inner join.
func TestSelectOverNullSupplier(t *testing.T) {
	loj := plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
	q := plan.NewSelect(expr.Cmp{Op: value.GE, L: expr.Column("r2", "y"), R: expr.Int(1)}, loj)
	out := Simplify(q)
	j := out.(*plan.Select).Input.(*plan.Join)
	if j.Kind != plan.InnerJoin {
		t.Errorf("LOJ should simplify to inner join, got %v", j.Kind)
	}
	// A predicate on the preserved side must NOT simplify.
	q2 := plan.NewSelect(expr.Cmp{Op: value.GE, L: expr.Column("r1", "y"), R: expr.Int(1)}, loj)
	if Simplify(q2).(*plan.Select).Input.(*plan.Join).Kind != plan.LeftJoin {
		t.Error("predicate on the preserved side must not simplify")
	}
}

// TestFullOuterDowngrades covers the three FOJ downgrade cases.
func TestFullOuterDowngrades(t *testing.T) {
	foj := plan.NewJoin(plan.FullJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
	cases := []struct {
		pred expr.Pred
		want plan.JoinKind
	}{
		{expr.Cmp{Op: value.GE, L: expr.Column("r2", "y"), R: expr.Int(0)}, plan.RightJoin},
		{expr.Cmp{Op: value.GE, L: expr.Column("r1", "y"), R: expr.Int(0)}, plan.LeftJoin},
		{expr.And(
			expr.Cmp{Op: value.GE, L: expr.Column("r1", "y"), R: expr.Int(0)},
			expr.Cmp{Op: value.GE, L: expr.Column("r2", "y"), R: expr.Int(0)},
		), plan.InnerJoin},
	}
	for _, c := range cases {
		out := Simplify(plan.NewSelect(c.pred, foj))
		got := out.(*plan.Select).Input.(*plan.Join).Kind
		if got != c.want {
			t.Errorf("σ[%s](FOJ) simplified to %v, want %v", c.pred, got, c.want)
		}
	}
}

// TestInnerJoinAboveSimplifies: an inner join whose predicate
// references the null-supplying side of a LOJ below it rejects the
// padded rows.
func TestInnerJoinAboveSimplifies(t *testing.T) {
	loj := plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
	q := plan.NewJoin(plan.InnerJoin, eqY("r2", "r3"), loj, plan.NewScan("r3"))
	out := Simplify(q).(*plan.Join)
	if out.L.(*plan.Join).Kind != plan.InnerJoin {
		t.Errorf("LOJ below a filtering inner join should simplify:\n%s", plan.Indent(out))
	}
	// If the upper join references only the preserved side, no
	// simplification.
	q2 := plan.NewJoin(plan.InnerJoin, eqY("r1", "r3"), loj, plan.NewScan("r3"))
	if Simplify(q2).(*plan.Join).L.(*plan.Join).Kind != plan.LeftJoin {
		t.Error("preserved-side reference must not simplify the LOJ")
	}
}

// TestLOJAboveDoesNotReject: a left outer join above does NOT reject
// its own left side's nulls (padded rows survive).
func TestLOJAboveDoesNotReject(t *testing.T) {
	inner := plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
	q := plan.NewJoin(plan.LeftJoin, eqY("r2", "r3"), inner, plan.NewScan("r3"))
	out := Simplify(q).(*plan.Join)
	if out.L.(*plan.Join).Kind != plan.LeftJoin {
		t.Error("a LOJ above must not reject its left input's padded rows")
	}
}

// TestGroupByKeyRejection: rejection survives grouping only through
// the keys.
func TestGroupByKeyRejection(t *testing.T) {
	loj := plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
	gp := plan.NewGroupBy(
		[]schema.Attribute{schema.Attr("r2", "y")},
		[]algebra.Aggregate{{Func: algebra.CountStar, Out: schema.Attr("q", "c")}},
		loj)
	// HAVING on the key that comes from the null-supplying side.
	q := plan.NewSelect(expr.Cmp{Op: value.GE, L: expr.Column("r2", "y"), R: expr.Int(0)}, gp)
	out := Simplify(q)
	j := out.(*plan.Select).Input.(*plan.GroupBy).Input.(*plan.Join)
	if j.Kind != plan.InnerJoin {
		t.Errorf("rejection should pass through the group key, got %v", j.Kind)
	}
	// HAVING on the aggregate output must not reject anything below.
	q2 := plan.NewSelect(expr.Cmp{Op: value.GE, L: expr.Col{Attr: schema.Attr("q", "c")}, R: expr.Int(0)}, gp)
	j2 := Simplify(q2).(*plan.Select).Input.(*plan.GroupBy).Input.(*plan.Join)
	if j2.Kind != plan.LeftJoin {
		t.Error("aggregate-output predicates must not simplify below the grouping")
	}
}

// TestGenSelBlocksRejection: σ* preserves rejected rows, so rejection
// must not pass through it.
func TestGenSelBlocksRejection(t *testing.T) {
	loj := plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
	gs := plan.NewGenSel(eqY("r1", "r2"), []plan.PreservedSpec{plan.NewPreserved("r1")}, loj)
	q := plan.NewSelect(expr.Cmp{Op: value.GE, L: expr.Column("r2", "y"), R: expr.Int(0)}, gs)
	out := Simplify(q)
	j := out.(*plan.Select).Input.(*plan.GenSel).Input.(*plan.Join)
	// The outer Select's rejection of r2 nulls cannot cross the GS
	// (whose preserved rows are padded on r2), so the LOJ must stay.
	// Note the GS's own predicate also must not reject.
	if j.Kind != plan.LeftJoin {
		t.Errorf("rejection crossed a generalized selection, got %v", j.Kind)
	}
}

// TestSimplifyEquivalence is the soundness property: simplified plans
// evaluate identically on randomized databases.
func TestSimplifyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	geY := func(rel string) expr.Pred {
		return expr.Cmp{Op: value.GE, L: expr.Column(rel, "y"), R: expr.Int(0)}
	}
	queries := []plan.Node{
		plan.NewSelect(geY("r2"),
			plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))),
		plan.NewSelect(geY("r1"),
			plan.NewJoin(plan.FullJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))),
		plan.NewJoin(plan.InnerJoin, eqY("r2", "r3"),
			plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
			plan.NewScan("r3")),
		plan.NewSelect(geY("r3"),
			plan.NewJoin(plan.LeftJoin, eqY("r2", "r3"),
				plan.NewJoin(plan.FullJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
				plan.NewScan("r3"))),
	}
	for qi, q := range queries {
		s := Simplify(q)
		// All the listed queries admit at least one downgrade.
		if s.String() == q.String() {
			t.Errorf("query %d: no simplification happened:\n%s", qi, plan.Indent(s))
		}
		if countOuterJoins(s) > countOuterJoins(q) {
			t.Errorf("query %d: simplification added outer joins", qi)
		}
		for trial := 0; trial < 40; trial++ {
			db := randDB(rng, 6, "r1", "r2", "r3")
			ok, err := plan.Equivalent(q, s, db)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("query %d trial %d: simplification changed semantics\noriginal:\n%s\nsimplified:\n%s",
					qi, trial, plan.Indent(q), plan.Indent(s))
			}
		}
	}
}

// TestSimplifySharing: untouched plans come back pointer-identical.
func TestSimplifySharing(t *testing.T) {
	q := plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
	if Simplify(q) != plan.Node(q) {
		t.Error("a plan with nothing to simplify must be returned unchanged")
	}
}

// countOuterJoins counts one-sided and full outer joins in a plan,
// the metric simplification reduces.
func countOuterJoins(n plan.Node) int {
	count := 0
	plan.Walk(n, func(m plan.Node) {
		if j, ok := m.(*plan.Join); ok && j.Kind != plan.InnerJoin {
			count++
		}
	})
	return count
}

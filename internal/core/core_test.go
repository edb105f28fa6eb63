package core

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

// randDB builds a database with relations named rels, each with
// columns x and y, random small-domain integer values and occasional
// NULLs so joins, padding and duplicate values all occur.
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

// eqX builds rel1.x = rel2.x; eqY builds rel1.y = rel2.y.
func eqX(r1, r2 string) expr.Pred { return expr.EqCols(r1, "x", r2, "x") }
func eqY(r1, r2 string) expr.Pred { return expr.EqCols(r1, "y", r2, "y") }

func mustEquivalent(t *testing.T, a, b plan.Node, db plan.Database, msg string) {
	t.Helper()
	ok, err := plan.Equivalent(a, b, db)
	if err != nil {
		t.Fatalf("%s: %v", msg, err)
	}
	if !ok {
		ra, _ := a.Eval(db)
		rb, _ := b.Eval(db)
		t.Fatalf("%s:\nlhs %s\n%s\nrhs %s\n%s", msg, a, ra.String(), b, rb.String())
	}
}

// TestIdentities1to8 verifies every association identity of Section
// 3.1 by execution on randomized databases (E4 in DESIGN.md).
func TestIdentities1to8(t *testing.T) {
	rng := rand.New(rand.NewSource(1996))
	scan := plan.NewScan
	for trial := 0; trial < 40; trial++ {
		db := randDB(rng, 5, 3, "r1", "r2", "r3", "r4")

		lhs, rhs := Identity1(scan("r1"), scan("r2"), eqY("r1", "r2"), eqX("r1", "r2"))
		mustEquivalent(t, lhs, rhs, db, "identity (1)")

		lhs, rhs = Identity2(scan("r1"), scan("r2"), eqY("r1", "r2"), eqX("r1", "r2"))
		mustEquivalent(t, lhs, rhs, db, "identity (2)")

		for _, kind := range []plan.JoinKind{plan.InnerJoin, plan.LeftJoin, plan.RightJoin, plan.FullJoin} {
			lhs, rhs = Identity3(kind, scan("r1"), scan("r2"), scan("r3"),
				eqX("r1", "r2"), eqY("r1", "r3"), eqX("r2", "r3"))
			mustEquivalent(t, lhs, rhs, db, "identity (3) ⊙="+kind.String())

			lhs, rhs = Identity4(kind, scan("r1"), scan("r2"), scan("r3"),
				eqX("r1", "r2"), eqY("r1", "r3"), eqX("r2", "r3"))
			mustEquivalent(t, lhs, rhs, db, "identity (4) ⊙="+kind.String())
		}

		lhs, rhs = Identity5(scan("r1"), scan("r2"), scan("r3"),
			eqX("r1", "r2"), eqY("r2", "r3"), eqX("r2", "r3"))
		mustEquivalent(t, lhs, rhs, db, "identity (5)")

		lhs, rhs = Identity6(scan("r1"), scan("r2"), scan("r3"),
			eqX("r1", "r2"), eqY("r2", "r3"), eqX("r2", "r3"))
		mustEquivalent(t, lhs, rhs, db, "identity (6), corrected preserved list [r1]")

		lhs, rhs = Identity7(scan("r1"), scan("r2"), scan("r3"),
			eqX("r1", "r2"), eqY("r2", "r3"), eqX("r2", "r3"))
		mustEquivalent(t, lhs, rhs, db, "identity (7)")

		lhs, rhs = Identity8(scan("r1"), scan("r2"), scan("r3"), scan("r4"),
			eqX("r1", "r2"), eqY("r2", "r3"), eqX("r2", "r3"), eqX("r2", "r4"))
		mustEquivalent(t, lhs, rhs, db, "identity (8)")
	}
}

// TestIdentity6PaperVariantFails documents why the preserved list
// printed in the paper for identity (6) — [r1, r2r3] — is not an
// identity: preserving the combined r2r3 relation resurrects
// inner-join tuples that fail the deferred conjunct, which the
// original query discards.
func TestIdentity6PaperVariantFails(t *testing.T) {
	// r2 ⋈ r3 succeeds on p2 but fails p1; r1 matches nothing.
	r1 := relation.NewBuilder("r1", "x", "y").Row(value.NewInt(9), value.NewInt(9)).Relation()
	r2 := relation.NewBuilder("r2", "x", "y").Row(value.NewInt(1), value.NewInt(5)).Relation()
	r3 := relation.NewBuilder("r3", "x", "y").Row(value.NewInt(1), value.NewInt(6)).Relation()
	db := plan.Database{"r1": r1, "r2": r2, "r3": r3}

	p12 := eqX("r1", "r2")
	p1, p2 := eqY("r2", "r3"), eqX("r2", "r3")
	lhs := plan.NewJoin(plan.FullJoin, p12, plan.NewScan("r1"),
		plan.NewJoin(plan.InnerJoin, expr.And(p1, p2), plan.NewScan("r2"), plan.NewScan("r3")))
	paperRHS := plan.NewGenSel(p1,
		[]plan.PreservedSpec{plan.NewPreserved("r1"), plan.NewPreserved("r2", "r3")},
		plan.NewJoin(plan.FullJoin, p12, plan.NewScan("r1"),
			plan.NewJoin(plan.InnerJoin, p2, plan.NewScan("r2"), plan.NewScan("r3"))))
	ok, err := plan.Equivalent(lhs, paperRHS, db)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("paper's identity (6) preserved list unexpectedly held; the counterexample should distinguish them")
	}
	// The corrected list [r1] is an identity on the same database.
	_, rhs := Identity6(plan.NewScan("r1"), plan.NewScan("r2"), plan.NewScan("r3"), p12, p1, p2)
	mustEquivalent(t, lhs, rhs, db, "corrected identity (6)")
}

// query2 is the unnested Query 2 shape of Section 1.1:
// (r1 →p12 r2) →(p13∧p23) r3.
func query2() plan.Node {
	p12 := eqX("r1", "r2")
	p13 := eqY("r1", "r3")
	p23 := eqX("r2", "r3")
	return plan.NewJoin(plan.LeftJoin, expr.And(p13, p23),
		plan.NewJoin(plan.LeftJoin, p12, plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewScan("r3"))
}

// TestDeferConjunctsQuery2 reproduces the Section 2 discussion: both
// conjuncts of the complex predicate can be deferred, each giving a
// σ*[r1r2]-compensated plan.
func TestDeferConjunctsQuery2(t *testing.T) {
	q := query2()
	top := q.(*plan.Join)
	rng := rand.New(rand.NewSource(2))
	for idx := 0; idx < 2; idx++ {
		alt, err := DeferConjuncts(q, top, []int{idx})
		if err != nil {
			t.Fatal(err)
		}
		gs, ok := alt.(*plan.GenSel)
		if !ok {
			t.Fatalf("expected a generalized selection at the root, got %s", alt)
		}
		if len(gs.Preserved) != 1 || gs.Preserved[0].String() != "r1r2" {
			t.Errorf("preserved = %v, want [r1r2]", gs.Preserved)
		}
		for trial := 0; trial < 25; trial++ {
			db := randDB(rng, 5, 3, "r1", "r2", "r3")
			mustEquivalent(t, q, alt, db, "Query 2 deferral")
		}
	}
}

func TestDeferConjunctsErrors(t *testing.T) {
	q := query2()
	top := q.(*plan.Join)
	if _, err := DeferConjuncts(q, top, nil); err == nil {
		t.Error("empty deferral should fail")
	}
	if _, err := DeferConjuncts(q, top, []int{0, 1}); err == nil {
		t.Error("deferring all conjuncts should fail")
	}
	if _, err := DeferConjuncts(q, top, []int{7}); err == nil {
		t.Error("out-of-range index should fail")
	}
	other := query2().(*plan.Join)
	if _, err := DeferConjuncts(q, other, []int{0}); err == nil {
		t.Error("foreign target node should fail")
	}
}

// TestQuery2ThreeOrders is experiment E9: without generalized
// selection the complex predicate locks Query 2 into a single join
// order; with it, all three linear orders appear.
func TestQuery2ThreeOrders(t *testing.T) {
	q := query2()
	baseline := Saturate(q, SaturateOptions{Rules: BaselineRules()})
	baseOrders := JoinOrders(baseline)
	if len(baseOrders) != 1 {
		t.Errorf("baseline orders = %v, want exactly the original", baseOrders)
	}
	full := Saturate(q, SaturateOptions{})
	orders := JoinOrders(full)
	want := map[string]bool{
		"((r1.r2).r3)": true,
		"((r1.r3).r2)": true,
		"((r2.r3).r1)": true,
	}
	got := map[string]bool{}
	for _, o := range orders {
		got[o] = true
	}
	for o := range want {
		if !got[o] {
			t.Errorf("missing join order %s; got %v", o, orders)
		}
	}
}

// TestSaturationSound verifies the central soundness property: every
// plan in the closure evaluates to the same relation as the original
// query, on randomized databases.
func TestSaturationSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	queries := map[string]plan.Node{
		"query2": query2(),
		"q4": func() plan.Node {
			p12 := eqX("r1", "r2")
			p24 := eqX("r2", "r4")
			p25 := eqY("r2", "r5")
			p45 := eqX("r4", "r5")
			p35 := eqY("r3", "r5")
			inner := plan.NewJoin(plan.InnerJoin, p35,
				plan.NewJoin(plan.InnerJoin, p45, plan.NewScan("r4"), plan.NewScan("r5")),
				plan.NewScan("r3"))
			mid := plan.NewJoin(plan.LeftJoin, expr.And(p24, p25), plan.NewScan("r2"), inner)
			return plan.NewJoin(plan.LeftJoin, p12, plan.NewScan("r1"), mid)
		}(),
		"fullouter": plan.NewJoin(plan.FullJoin, eqX("r1", "r2"),
			plan.NewScan("r1"),
			plan.NewJoin(plan.FullJoin, expr.And(eqX("r2", "r3"), eqY("r2", "r3")),
				plan.NewScan("r2"), plan.NewScan("r3"))),
		"q5": q5(),
		"q6": q6(),
	}
	for name, q := range queries {
		plans := Saturate(q, SaturateOptions{MaxPlans: 400})
		if len(plans) < 2 {
			t.Errorf("%s: saturation produced only %d plan(s)", name, len(plans))
		}
		for trial := 0; trial < 6; trial++ {
			db := randDB(rng, 4, 3, "r1", "r2", "r3", "r4", "r5", "r6")
			want, err := q.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range plans {
				got, err := p.Eval(db)
				if err != nil {
					t.Fatalf("%s: eval %s: %v", name, p, err)
				}
				if !got.EqualAsSets(want) {
					t.Fatalf("%s trial %d: plan not equivalent to query:\nplan: %s\noriginal: %s\ngot:\n%s\nwant:\n%s",
						name, trial, p, q, got.String(), want.String())
				}
			}
		}
	}
}

// TestQ4SaturationWidens is experiment E3's plan-level counterpart:
// predicate break-up strictly widens the set of join orders for Q4.
func TestQ4SaturationWidens(t *testing.T) {
	p12 := eqX("r1", "r2")
	p24 := eqX("r2", "r4")
	p25 := eqY("r2", "r5")
	p45 := eqX("r4", "r5")
	p35 := eqY("r3", "r5")
	inner := plan.NewJoin(plan.InnerJoin, p35,
		plan.NewJoin(plan.InnerJoin, p45, plan.NewScan("r4"), plan.NewScan("r5")),
		plan.NewScan("r3"))
	mid := plan.NewJoin(plan.LeftJoin, expr.And(p24, p25), plan.NewScan("r2"), inner)
	q4 := plan.NewJoin(plan.LeftJoin, p12, plan.NewScan("r1"), mid)

	base := JoinOrders(Saturate(q4, SaturateOptions{Rules: BaselineRules(), MaxPlans: 5000}))
	full := JoinOrders(Saturate(q4, SaturateOptions{MaxPlans: 5000}))
	if len(full) <= len(base) {
		t.Errorf("break-up should widen the join-order space: baseline %d, full %d", len(base), len(full))
	}
	// The order of the paper's association tree (r1.((r2.r4).(r5.r3)))
	// — r2 combined with r4 before r5 — must be reachable with
	// break-up and unreachable without.
	target := "(((r2.r4).(r3.r5)).r1)"
	has := func(orders []string, want string) bool {
		for _, o := range orders {
			if o == want {
				return true
			}
		}
		return false
	}
	if has(base, target) {
		t.Errorf("baseline unexpectedly reaches %s", target)
	}
	if !has(full, target) {
		t.Errorf("break-up does not reach %s; got %v", target, full)
	}
}

// TestSplitOptionsEdgeCases: single-conjunct edges offer no splits;
// complex predicates offer one option per deferrable conjunct.
func TestSplitOptionsEdgeCases(t *testing.T) {
	single := plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2"))
	if got := SplitOptionsOf(single); len(got) != 0 {
		t.Errorf("single conjunct offered %d splits", len(got))
	}
	if got := SplitOptionsOf(query2()); len(got) != 2 {
		t.Errorf("query2 offers %d splits, want 2", len(got))
	}
	// A two-conjunct predicate whose conjuncts both touch the same
	// pair cannot defer either... both CAN defer (remainder still
	// references both sides).
	both := plan.NewJoin(plan.LeftJoin, expr.And(eqX("r1", "r2"), eqY("r1", "r2")),
		plan.NewScan("r1"), plan.NewScan("r2"))
	if got := SplitOptionsOf(both); len(got) != 2 {
		t.Errorf("simple 2-conjunct edge offers %d splits, want 2", len(got))
	}
}

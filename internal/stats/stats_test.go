package stats

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/stats/feedback"
	"repro/internal/value"
)

func testDB() plan.Database {
	r1 := relation.NewBuilder("r1", "x", "y")
	for i := 0; i < 100; i++ {
		r1.Row(value.NewInt(int64(i%10)), value.NewInt(int64(i)))
	}
	r2 := relation.NewBuilder("r2", "x", "s")
	for i := 0; i < 50; i++ {
		v := "ok"
		if i < 5 {
			v = "BANKRUPT"
		}
		r2.Row(value.NewInt(int64(i)), value.NewString(v))
	}
	return plan.Database{"r1": r1.Relation(), "r2": r2.Relation()}
}

func TestFromDatabase(t *testing.T) {
	cat := FromDatabase(testDB())
	r1 := cat["r1"]
	if r1.Rows != 100 {
		t.Errorf("rows = %v", r1.Rows)
	}
	if got := r1.Columns["x"].Distinct; got != 10 {
		t.Errorf("distinct(x) = %v", got)
	}
	if got := r1.Columns["y"].Distinct; got != 100 {
		t.Errorf("distinct(y) = %v", got)
	}
	if _, hasRID := r1.Columns["#rid"]; hasRID {
		t.Error("virtual columns must not be analyzed")
	}
	// MCV list on the low-cardinality string column.
	s := cat["r2"].Columns["s"]
	if s.TopValues == nil {
		t.Fatal("expected MCV list")
	}
	if got := s.TopValues[value.NewString("BANKRUPT").Key()]; got != 0.1 {
		t.Errorf("BANKRUPT fraction = %v, want 0.1", got)
	}
}

func TestSelectivity(t *testing.T) {
	est := NewEstimator(FromDatabase(testDB()))
	eqJoin := expr.EqCols("r1", "x", "r2", "x")
	// 1/max(10, 50) = 0.02.
	if got := est.selectivity(eqJoin); got != 0.02 {
		t.Errorf("join selectivity = %v", got)
	}
	eqConst := expr.Cmp{Op: value.EQ, L: expr.Column("r2", "s"), R: expr.Str("BANKRUPT")}
	if got := est.selectivity(eqConst); got != 0.1 {
		t.Errorf("MCV selectivity = %v, want 0.1", got)
	}
	rare := expr.Cmp{Op: value.EQ, L: expr.Column("r2", "s"), R: expr.Str("nope")}
	if got := est.selectivity(rare); got != 0.001 {
		t.Errorf("absent-literal selectivity = %v", got)
	}
	rng := expr.Cmp{Op: value.LT, L: expr.Column("r1", "y"), R: expr.Int(3)}
	if got := est.selectivity(rng); got != 1.0/3 {
		t.Errorf("range selectivity = %v", got)
	}
	conj := expr.And(eqJoin, rng)
	if got, want := est.selectivity(conj), 0.02*(1.0/3); got < want-1e-12 || got > want+1e-12 {
		t.Errorf("conjunction selectivity = %v, want %v", got, want)
	}
	ne := expr.Cmp{Op: value.NE, L: expr.Column("r1", "x"), R: expr.Column("r2", "x")}
	if got := est.selectivity(ne); got != 0.98 {
		t.Errorf("<> selectivity = %v", got)
	}
}

func TestRowsEstimates(t *testing.T) {
	db := testDB()
	est := NewEstimator(FromDatabase(db))
	p := expr.EqCols("r1", "x", "r2", "x")

	scan := plan.NewScan("r1")
	if got, _ := est.Rows(scan); got != 100 {
		t.Errorf("scan rows = %v", got)
	}
	inner := plan.NewJoin(plan.InnerJoin, p, plan.NewScan("r1"), plan.NewScan("r2"))
	if got, _ := est.Rows(inner); got != 100 {
		t.Errorf("inner join rows = %v (100*50*0.02)", got)
	}
	left := plan.NewJoin(plan.LeftJoin, p, plan.NewScan("r1"), plan.NewScan("r2"))
	if got, _ := est.Rows(left); got < 100 {
		t.Errorf("LOJ must preserve at least the left side: %v", got)
	}
	full := plan.NewJoin(plan.FullJoin, p, plan.NewScan("r1"), plan.NewScan("r2"))
	lr, _ := est.Rows(left)
	fr, _ := est.Rows(full)
	if fr < lr {
		t.Errorf("FOJ estimate (%v) below LOJ (%v)", fr, lr)
	}
	gp := plan.NewGroupBy([]schema.Attribute{schema.Attr("r1", "x")}, nil, plan.NewScan("r1"))
	if got, _ := est.Rows(gp); got != 10 {
		t.Errorf("group rows = %v, want distinct(x)=10", got)
	}
	if _, err := est.Rows(plan.NewScan("nosuch")); err == nil {
		t.Error("unknown relation must fail")
	}
}

func TestPlanCostPrefersCheaperOrders(t *testing.T) {
	db := testDB()
	est := NewEstimator(FromDatabase(db))
	p := expr.EqCols("r1", "x", "r2", "x")
	hashable := plan.NewJoin(plan.InnerJoin, p, plan.NewScan("r1"), plan.NewScan("r2"))
	nonEqui := plan.NewJoin(plan.InnerJoin,
		expr.Cmp{Op: value.LT, L: expr.Column("r1", "x"), R: expr.Column("r2", "x")},
		plan.NewScan("r1"), plan.NewScan("r2"))
	hc, err := est.PlanCost(hashable)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := est.PlanCost(nonEqui)
	if err != nil {
		t.Fatal(err)
	}
	if hc >= nc {
		t.Errorf("hash join (%v) must be cheaper than nested loop (%v)", hc, nc)
	}
	// A selection on top adds cost.
	sel := plan.NewSelect(expr.Cmp{Op: value.LT, L: expr.Column("r1", "y"), R: expr.Int(3)}, hashable)
	scost, _ := est.PlanCost(sel)
	if scost <= hc {
		t.Errorf("selection must add cost: %v vs %v", scost, hc)
	}
	// GS costs like a join plus compensation, more than a plain
	// selection over the same input.
	gs := plan.NewGenSel(p, []plan.PreservedSpec{plan.NewPreserved("r1")}, hashable)
	gcost, err := est.PlanCost(gs)
	if err != nil {
		t.Fatal(err)
	}
	plainSel := plan.NewSelect(p, hashable)
	pcost, _ := est.PlanCost(plainSel)
	if gcost <= pcost {
		t.Errorf("GS (%v) must cost more than plain selection (%v)", gcost, pcost)
	}
}

func TestIndexNestedLoopBeatsHashForTinyOuter(t *testing.T) {
	tiny := relation.NewBuilder("tiny", "x")
	for i := 0; i < 3; i++ {
		tiny.Row(value.NewInt(int64(i)))
	}
	big := relation.NewBuilder("big", "x")
	for i := 0; i < 10000; i++ {
		big.Row(value.NewInt(int64(i)))
	}
	db := plan.Database{"tiny": tiny.Relation(), "big": big.Relation()}
	est := NewEstimator(FromDatabase(db))
	p := expr.EqCols("tiny", "x", "big", "x")
	j := plan.NewJoin(plan.InnerJoin, p, plan.NewScan("tiny"), plan.NewScan("big"))
	cost, err := est.PlanCost(j)
	if err != nil {
		t.Fatal(err)
	}
	// Hash join would pay ~10000*Hash on the big side; the index
	// nested loop pays 3 probes. The total must stay near the big
	// relation's scan cost.
	if cost > 10000*est.Cost.Tuple+1000 {
		t.Errorf("index nested loop not applied: cost %v", cost)
	}
}

// TestEstimatesCoverAllNodes pushes cardinality and cost estimation
// through every operator, including the paper's σ* and MGOJ.
func TestEstimatesCoverAllNodes(t *testing.T) {
	db := testDB()
	est := NewEstimator(FromDatabase(db))
	p := expr.EqCols("r1", "x", "r2", "x")
	join := plan.NewJoin(plan.LeftJoin, p, plan.NewScan("r1"), plan.NewScan("r2"))
	nodes := []plan.Node{
		plan.NewGenSel(p, []plan.PreservedSpec{plan.NewPreserved("r1")}, join),
		plan.NewMGOJ(p, []plan.PreservedSpec{plan.NewPreserved("r1")},
			plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewGroupBy([]schema.Attribute{schema.RID("r1")}, nil, plan.NewScan("r1")),
		plan.NewProject([]schema.Attribute{schema.Attr("r1", "x")}, true, plan.NewScan("r1")),
		plan.NewProject([]schema.Attribute{schema.Attr("r1", "x")}, false, plan.NewScan("r1")),
		plan.NewSort([]plan.SortKey{{Attr: schema.Attr("r1", "x")}}, 5, plan.NewScan("r1")),
		plan.NewSort(nil, -1, plan.NewScan("r1")),
		plan.NewJoin(plan.RightJoin, p, plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewJoin(plan.FullJoin, p, plan.NewScan("r1"), plan.NewScan("r2")),
	}
	for _, n := range nodes {
		rows, err := est.Rows(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if rows < 0 {
			t.Errorf("%s: negative estimate %v", n, rows)
		}
		cost, err := est.PlanCost(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if cost <= 0 {
			t.Errorf("%s: non-positive cost %v", n, cost)
		}
	}
	// The limited sort estimates fewer rows than the unlimited one.
	lim, _ := est.Rows(nodes[5])
	unlim, _ := est.Rows(nodes[6])
	if lim >= unlim {
		t.Errorf("limit 5 estimate %v should be below %v", lim, unlim)
	}
	// Error propagation.
	for _, n := range []plan.Node{
		plan.NewSelect(p, plan.NewScan("nosuch")),
		plan.NewGenSel(p, nil, plan.NewScan("nosuch")),
		plan.NewGroupBy(nil, nil, plan.NewScan("nosuch")),
		plan.NewSort(nil, -1, plan.NewScan("nosuch")),
		plan.NewMGOJ(p, nil, plan.NewScan("nosuch"), plan.NewScan("r1")),
	} {
		if _, err := est.Rows(n); err == nil {
			t.Errorf("Rows(%T) should fail", n)
		}
		if _, err := est.PlanCost(n); err == nil {
			t.Errorf("PlanCost(%T) should fail", n)
		}
	}
}

// TestWithParamsReadsBoundValue: a WithParams view estimates
// `col = $n` exactly as the literal it binds, the base estimator keeps
// 1/Distinct for it, and both share one analysis per table.
func TestWithParamsReadsBoundValue(t *testing.T) {
	analyzed := obs.Default().Counter("stats.analyze.tables")
	before := analyzed.Value()
	est := ForDatabase(testDB())
	eqParam := expr.Cmp{Op: value.EQ, L: expr.Column("r2", "s"), R: expr.Param{Idx: 2}}
	view := est.WithParams([]value.Value{value.NewInt(1), value.NewString("BANKRUPT")})
	if got := view.selectivity(eqParam); got != 0.1 {
		t.Errorf("bound $2 = 'BANKRUPT': selectivity %v, want its fraction 0.1", got)
	}
	if got, want := view.selectivity(eqParam), est.selectivity(expr.Cmp{Op: value.EQ, L: expr.Column("r2", "s"), R: expr.Str("BANKRUPT")}); got != want {
		t.Errorf("bound parameter %v, literal %v", got, want)
	}
	if got := est.selectivity(eqParam); got != 0.5 {
		t.Errorf("unbound $2: selectivity %v, want 1/Distinct = 0.5", got)
	}
	if got := est.WithParams(nil).selectivity(eqParam); got != 0.5 {
		t.Errorf("$2 past the bound values: selectivity %v, want 1/Distinct", got)
	}
	if got := analyzed.Value() - before; got != 1 {
		t.Errorf("estimator and view analyzed r2 %d times, want once", got)
	}
}

func sessionDB() plan.Database {
	db := plan.Database{}
	for _, name := range []string{"r1", "r2", "r3", "r4"} {
		b := relation.NewBuilder(name, "x", "y")
		for i := 0; i < 30; i++ {
			b.Row(value.NewInt(int64(i%7)), value.NewInt(int64(i%5)))
		}
		db[name] = b.Relation()
	}
	return db
}

// sessionPlans builds a family of plans over every operator the
// session estimates, sharing most subtrees.
func sessionPlans() []plan.Node {
	r := func(n string) plan.Node { return plan.NewScan(n) }
	eq := func(a, b string) expr.Pred { return expr.EqCols(a, "x", b, "x") }
	base := plan.NewJoin(plan.InnerJoin, eq("r1", "r2"), r("r1"), r("r2"))
	return []plan.Node{
		base,
		plan.NewJoin(plan.LeftJoin, eq("r2", "r3"), base, r("r3")),
		plan.NewJoin(plan.FullJoin, eq("r2", "r3"), base, r("r3")),
		plan.NewSelect(eq("r1", "r2"), plan.NewJoin(plan.LeftJoin, eq("r2", "r3"), base, r("r3"))),
		plan.NewGenSel(eq("r1", "r3"), []plan.PreservedSpec{plan.NewPreserved("r1")},
			plan.NewJoin(plan.LeftJoin, eq("r2", "r3"), base, r("r3"))),
		plan.NewMGOJ(eq("r3", "r4"), []plan.PreservedSpec{plan.NewPreserved("r1")},
			plan.NewJoin(plan.LeftJoin, eq("r2", "r3"), base, r("r3")), r("r4")),
	}
}

// TestSessionMatchesEstimator: a session without a feedback store
// estimates exactly as the plain estimator does.
func TestSessionMatchesEstimator(t *testing.T) {
	est := NewEstimator(FromDatabase(sessionDB()))
	sess := est.NewSession(obs.NewRegistry())
	for _, p := range sessionPlans() {
		wantCost, err := est.PlanCost(p)
		if err != nil {
			t.Fatal(err)
		}
		wantRows, err := est.Rows(p)
		if err != nil {
			t.Fatal(err)
		}
		gotCost, err := sess.PlanCost(p)
		if err != nil {
			t.Fatal(err)
		}
		gotRows, err := sess.Rows(p)
		if err != nil {
			t.Fatal(err)
		}
		if gotCost != wantCost || gotRows != wantRows {
			t.Errorf("%s: session (%.4f, %.4f) != estimator (%.4f, %.4f)",
				p, gotCost, gotRows, wantCost, wantRows)
		}
	}
}

// TestSessionError: estimation errors (unknown relation) surface
// through the session unchanged.
func TestSessionError(t *testing.T) {
	est := NewEstimator(FromDatabase(sessionDB()))
	sess := est.NewSession(obs.NewRegistry())
	bad := plan.NewJoin(plan.InnerJoin, expr.EqCols("r1", "x", "zz", "x"),
		plan.NewScan("r1"), plan.NewScan("zz"))
	if _, err := sess.PlanCost(bad); err == nil {
		t.Fatal("expected an error for unknown relation")
	}
	if _, err := sess.Rows(bad); err == nil {
		t.Fatal("expected an error for unknown relation")
	}
}

// TestSessionGroupRows: a group's estimate is its representative's
// operator over the input groups' estimates, or the feedback
// correction recorded under the representative's plan.Key. The key is
// rendered only with a store attached, and never for a base relation.
func TestSessionGroupRows(t *testing.T) {
	est := NewEstimator(FromDatabase(sessionDB()))
	join := plan.NewJoin(plan.InnerJoin, expr.EqCols("r1", "x", "r2", "x"), plan.NewScan("r1"), plan.NewScan("r2"))
	in := []float64{1000, 10} // the input groups' estimates, not the tables'
	want, err := est.OpRows(join, in)
	if err != nil {
		t.Fatal(err)
	}
	sess := est.NewSession(nil)
	if got, err := sess.GroupRows(join, in); err != nil || got != (Estimate{Rows: want}) {
		t.Fatalf("without a store: %+v, %v; want {%v \"\"}", got, err, want)
	}
	fb := feedback.New(feedback.Options{})
	sess.SetFeedback(fb)
	if got, err := sess.GroupRows(join, in); err != nil || got != (Estimate{Rows: want, Key: plan.Key(join)}) {
		t.Fatalf("with an empty store: %+v, %v", got, err)
	}
	if err := fb.Record(plan.Key(join), want, 7); err != nil {
		t.Fatal(err)
	}
	if got, err := sess.GroupRows(join, in); err != nil || got.Rows != 7 || sess.FeedbackHits() != 1 {
		t.Fatalf("with a correction: %+v, %v, %d hits; want 7 rows, 1 hit", got, err, sess.FeedbackHits())
	}
	if got, err := sess.GroupRows(plan.NewScan("r1"), nil); err != nil || got.Key != "" || got.Rows != 30 {
		t.Fatalf("base relation: %+v, %v; want 30 rows and no key", got, err)
	}
}

// PlanCost is Estimator.PlanCost with the session's feedback
// corrections.
func (s *Session) PlanCost(n plan.Node) (float64, error) {
	if err := s.budget.Cancelled(); err != nil {
		return 0, err
	}
	_, cost, err := s.e.estimate(n, s)
	return cost, err
}

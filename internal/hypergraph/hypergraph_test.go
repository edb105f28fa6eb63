package hypergraph

import (
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
)

// q4 builds the plan of Example 3.2 / Figure 1:
//
//	Q4 = r1 →p12 (r2 →(p24∧p25) ((r4 ⋈p45 r5) ⋈p35 r3))
func q4() plan.Node {
	p12 := expr.EqCols("r1", "x", "r2", "x")
	p24 := expr.EqCols("r2", "a", "r4", "a")
	p25 := expr.EqCols("r2", "b", "r5", "b")
	p45 := expr.EqCols("r4", "c", "r5", "c")
	p35 := expr.EqCols("r3", "d", "r5", "d")
	inner := plan.NewJoin(plan.InnerJoin, p35,
		plan.NewJoin(plan.InnerJoin, p45, plan.NewScan("r4"), plan.NewScan("r5")),
		plan.NewScan("r3"))
	mid := plan.NewJoin(plan.LeftJoin, expr.And(p24, p25), plan.NewScan("r2"), inner)
	return plan.NewJoin(plan.LeftJoin, p12, plan.NewScan("r1"), mid)
}

// findEdge locates the unique hyperedge whose node set matches.
func findEdge(t *testing.T, h *Hypergraph, nodes ...string) *Hyperedge {
	t.Helper()
	for _, e := range h.Edges {
		if reflect.DeepEqual(e.nodes(), nodes) {
			return e
		}
	}
	t.Fatalf("no hyperedge over %v in\n%s", nodes, h)
	return nil
}

// TestFigure1Structure reproduces Figure 1: five nodes, four
// hyperedges, with h2 the directed hyperedge <{r2},{r4,r5}>.
func TestFigure1Structure(t *testing.T) {
	h, err := FromPlan(q4())
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Nodes; !reflect.DeepEqual(got, []string{"r1", "r2", "r3", "r4", "r5"}) {
		t.Errorf("nodes = %v", got)
	}
	if len(h.Edges) != 4 {
		t.Fatalf("got %d hyperedges, want 4:\n%s", len(h.Edges), h)
	}
	h1 := findEdge(t, h, "r1", "r2")
	if h1.Kind != Directed || h1.From[0] != "r1" {
		t.Errorf("h1 should be directed r1->r2: %s", h1)
	}
	h2 := findEdge(t, h, "r2", "r4", "r5")
	if h2.Kind != Directed || !reflect.DeepEqual(h2.From, []string{"r2"}) || !reflect.DeepEqual(h2.To, []string{"r4", "r5"}) {
		t.Errorf("h2 should be directed {r2}->{r4,r5}: %s", h2)
	}
	if !h2.Complex() {
		t.Errorf("h2 carries a complex predicate")
	}
	h3 := findEdge(t, h, "r3", "r5")
	if h3.Kind != Undirected {
		t.Errorf("h3 should be undirected: %s", h3)
	}
	h4 := findEdge(t, h, "r4", "r5")
	if h4.Kind != Undirected {
		t.Errorf("h4 should be undirected: %s", h4)
	}
	if !h.IsAcyclic() {
		t.Errorf("Figure 1's hypergraph should be acyclic (paper, Example 3.2)")
	}
}

// TestFigure1PreservedSet checks pres(h2) = {r1, r2} (Section 3).
func TestFigure1PreservedSet(t *testing.T) {
	h, err := FromPlan(q4())
	if err != nil {
		t.Fatal(err)
	}
	h2 := findEdge(t, h, "r2", "r4", "r5")
	if got := h.Pres(h2); !reflect.DeepEqual(got, []string{"r1", "r2"}) {
		t.Errorf("pres(h2) = %v, want [r1 r2]", got)
	}
	h1 := findEdge(t, h, "r1", "r2")
	if got := h.Pres(h1); !reflect.DeepEqual(got, []string{"r1"}) {
		t.Errorf("pres(h1) = %v, want [r1]", got)
	}
}

// TestFigure1Connectivity checks Definition 3.2's induced
// connectivity: {r2,r4} is connected only in Broken mode (h2 may be
// broken up), while {r3,r4} is connected in neither mode — the basis
// for which subtrees the enumerator may form.
func TestFigure1Connectivity(t *testing.T) {
	h, err := FromPlan(q4())
	if err != nil {
		t.Fatal(err)
	}
	set := func(rels ...string) map[string]bool { return nodeSet(rels) }
	cases := []struct {
		rels           []string
		strict, broken bool
	}{
		{[]string{"r4", "r5"}, true, true},
		{[]string{"r2", "r4"}, false, true},
		{[]string{"r2", "r5"}, false, true},
		{[]string{"r3", "r4"}, false, false},
		{[]string{"r1", "r2"}, true, true},
		{[]string{"r2", "r4", "r5"}, true, true},
		{[]string{"r1", "r3"}, false, false},
		{[]string{"r2", "r3", "r5"}, false, true},
		{[]string{"r1", "r2", "r3", "r4", "r5"}, true, true},
		{[]string{"r5"}, true, true},
	}
	for _, c := range cases {
		if got := h.Connected(set(c.rels...), Strict); got != c.strict {
			t.Errorf("Connected(%v, Strict) = %v, want %v", c.rels, got, c.strict)
		}
		if got := h.Connected(set(c.rels...), Broken); got != c.broken {
			t.Errorf("Connected(%v, Broken) = %v, want %v", c.rels, got, c.broken)
		}
	}
}

// TestConfQ4 checks conflict sets on Figure 1: no full outer joins
// means every conf involving only join edges below outer joins works
// through ccoj.
func TestConfQ4(t *testing.T) {
	h, err := FromPlan(q4())
	if err != nil {
		t.Fatal(err)
	}
	h2 := findEdge(t, h, "r2", "r4", "r5")
	if got := h.Conf(h2); len(got) != 0 {
		t.Errorf("conf(h2) = %v, want empty (no full outer joins downstream)", got)
	}
	// h4 = {r4,r5} is a join edge inside the null-supplying side of
	// h2, so ccoj(h4) = {h2}.
	h4 := findEdge(t, h, "r4", "r5")
	ccoj := h.CCOJ(h4)
	if len(ccoj) != 1 || ccoj[0] != h2 {
		t.Errorf("ccoj(h4) = %v, want {h2}", ccoj)
	}
	// With no full outer joins anywhere, conf(h4) = {h2} ∪ conf(h2) =
	// {h2}.
	conf := h.Conf(h4)
	if len(conf) != 1 || conf[0] != h2 {
		t.Errorf("conf(h4) = %v, want {h2}", conf)
	}
}

// fullOuterChain builds r1 ↔p12 (r2 ⋈p23 r3): a join edge under a
// full outer join.
func fullOuterChain() plan.Node {
	p12 := expr.EqCols("r1", "a", "r2", "a")
	p23 := expr.EqCols("r2", "b", "r3", "b")
	return plan.NewJoin(plan.FullJoin, p12,
		plan.NewScan("r1"),
		plan.NewJoin(plan.InnerJoin, p23, plan.NewScan("r2"), plan.NewScan("r3")))
}

func TestConfFullOuter(t *testing.T) {
	h, err := FromPlan(fullOuterChain())
	if err != nil {
		t.Fatal(err)
	}
	foj := findEdge(t, h, "r1", "r2")
	if foj.Kind != BiDirected {
		t.Fatalf("expected bi-directed edge: %s", foj)
	}
	if got := h.Conf(foj); len(got) != 0 {
		t.Errorf("conf of a bi-directed edge must be empty, got %v", got)
	}
	join := findEdge(t, h, "r2", "r3")
	conf := h.Conf(join)
	if len(conf) != 1 || conf[0] != foj {
		t.Errorf("conf(r2⋈r3) = %v, want the full outer join edge", conf)
	}
	// Preserved sets of the full outer join.
	if got := h.Pres(foj); !reflect.DeepEqual(got, []string{"r1"}) {
		t.Errorf("pres1(foj) = %v", got)
	}
	if got := h.Pres2(foj); !reflect.DeepEqual(got, []string{"r2", "r3"}) {
		t.Errorf("pres2(foj) = %v", got)
	}
	// pres away from the join edge: the side of the full outer join
	// whose component does not contain r2⋈r3, i.e. {r1}. This is the
	// preserved spec Theorem 1 assigns when deferring a piece of the
	// join predicate (the corrected identity (6); see DESIGN.md).
	if got := h.PresAway(foj, join); !reflect.DeepEqual(got, []string{"r1"}) {
		t.Errorf("pres_join(foj) = %v, want [r1]", got)
	}
}

// TestConfDirectedSeesFullOuter: a directed edge whose null-supplying
// side leads to a full outer join must carry it in its conflict set.
func TestConfDirectedSeesFullOuter(t *testing.T) {
	// r1 →p12 (r2 ↔p23 r3)
	p12 := expr.EqCols("r1", "a", "r2", "a")
	p23 := expr.EqCols("r2", "b", "r3", "b")
	n := plan.NewJoin(plan.LeftJoin, p12,
		plan.NewScan("r1"),
		plan.NewJoin(plan.FullJoin, p23, plan.NewScan("r2"), plan.NewScan("r3")))
	h, err := FromPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	loj := findEdge(t, h, "r1", "r2")
	foj := findEdge(t, h, "r2", "r3")
	conf := h.Conf(loj)
	if len(conf) != 1 || conf[0] != foj {
		t.Errorf("conf(loj) = %v, want the full outer join", conf)
	}
}

func TestFromPlanErrors(t *testing.T) {
	// Duplicate relation.
	p := expr.EqCols("r1", "a", "r1", "b")
	dup := plan.NewJoin(plan.InnerJoin, p, plan.NewScan("r1"), plan.NewScan("r1"))
	if _, err := FromPlan(dup); err == nil {
		t.Error("expected error for duplicate relation")
	}
	// Predicate referencing a relation outside its operands.
	bad := plan.NewJoin(plan.InnerJoin, expr.EqCols("r1", "a", "r9", "a"),
		plan.NewScan("r1"), plan.NewScan("r2"))
	if _, err := FromPlan(bad); err == nil {
		t.Error("expected error for out-of-scope predicate")
	}
	// One-sided predicate.
	oneSided := plan.NewJoin(plan.InnerJoin, expr.EqCols("r1", "a", "r1", "b"),
		plan.NewScan("r1"), plan.NewScan("r2"))
	if _, err := FromPlan(oneSided); err == nil {
		t.Error("expected error for one-sided predicate")
	}
}

// TestCyclicHypergraph checks IsAcyclic on a genuine predicate cycle
// r1-r2-r3-r1.
func TestCyclicHypergraph(t *testing.T) {
	p12 := expr.EqCols("r1", "a", "r2", "a")
	p23 := expr.EqCols("r2", "b", "r3", "b")
	p13 := expr.EqCols("r1", "c", "r3", "c")
	n := plan.NewJoin(plan.InnerJoin, expr.And(p13),
		plan.NewJoin(plan.InnerJoin, expr.And(p12), plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewScan("r3"))
	// Fold p23 into the top edge to close the cycle: edge {r1,r2}x{r3}.
	n = plan.NewJoin(plan.InnerJoin, expr.And(p13, p23),
		plan.NewJoin(plan.InnerJoin, p12, plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewScan("r3"))
	h, err := FromPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	// {r1,r2}-{r3} hyperedge plus {r1}-{r2} edge: GYO reduces this
	// (the pair edge is contained), so it is α-acyclic.
	if !h.IsAcyclic() {
		t.Errorf("containment case should be acyclic")
	}
	// Three separate simple edges do form a cycle.
	n2 := plan.NewJoin(plan.InnerJoin, p13,
		plan.NewJoin(plan.InnerJoin, p23,
			plan.NewJoin(plan.InnerJoin, p12, plan.NewScan("r1"), plan.NewScan("r2")),
			plan.NewScan("r3")),
		plan.NewScan("r1x"))
	_ = n2 // r1x makes the top edge valid; build the triangle directly instead.
	h2 := &Hypergraph{
		Nodes: []string{"r1", "r2", "r3"},
		Edges: []*Hyperedge{
			{ID: 1, Kind: Undirected, From: []string{"r1"}, To: []string{"r2"}, Pred: p12},
			{ID: 2, Kind: Undirected, From: []string{"r2"}, To: []string{"r3"}, Pred: p23},
			{ID: 3, Kind: Undirected, From: []string{"r1"}, To: []string{"r3"}, Pred: p13},
		},
	}
	if h2.IsAcyclic() {
		t.Errorf("triangle should be cyclic")
	}
}

package plan

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

func testDB() Database {
	r1 := relation.NewBuilder("r1", "x", "y").
		Row(value.NewInt(1), value.NewInt(10)).
		Row(value.NewInt(2), value.NewInt(20)).
		Relation()
	r2 := relation.NewBuilder("r2", "x", "z").
		Row(value.NewInt(2), value.NewInt(200)).
		Row(value.NewInt(3), value.NewInt(300)).
		Relation()
	return Database{"r1": r1, "r2": r2}
}

func TestScanAlias(t *testing.T) {
	db := testDB()
	s := NewScanAs("r1", "q")
	sc, err := s.Schema(db)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Contains(schema.Attr("q", "x")) || sc.Contains(schema.Attr("r1", "x")) {
		t.Errorf("alias schema = %s", sc)
	}
	out, err := s.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("alias eval rows = %d", out.Len())
	}
	if s.Name() != "q" || NewScan("r1").Name() != "r1" {
		t.Error("Name wrong")
	}
	if s.String() != "r1:q" {
		t.Errorf("String = %q", s.String())
	}
}

func TestUnknownRelation(t *testing.T) {
	db := testDB()
	s := NewScan("nosuch")
	if _, err := s.Schema(db); err == nil {
		t.Error("Schema of unknown relation must fail")
	}
	if _, err := s.Eval(db); err == nil {
		t.Error("Eval of unknown relation must fail")
	}
	j := NewJoin(InnerJoin, expr.EqCols("r1", "x", "nosuch", "x"), NewScan("r1"), s)
	if _, err := j.Eval(db); err == nil {
		t.Error("join over unknown relation must fail")
	}
}

func TestJoinKindsEval(t *testing.T) {
	db := testDB()
	p := expr.EqCols("r1", "x", "r2", "x")
	counts := map[JoinKind]int{InnerJoin: 1, LeftJoin: 2, RightJoin: 2, FullJoin: 3}
	for kind, want := range counts {
		j := NewJoin(kind, p, NewScan("r1"), NewScan("r2"))
		out, err := j.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != want {
			t.Errorf("%v rows = %d, want %d", kind, out.Len(), want)
		}
		sc, err := j.Schema(db)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Len() != 6 {
			t.Errorf("%v schema len = %d", kind, sc.Len())
		}
	}
}

func TestWithChildrenRebuild(t *testing.T) {
	p := expr.EqCols("r1", "x", "r2", "x")
	j := NewJoin(LeftJoin, p, NewScan("r1"), NewScan("r2"))
	swapped := j.WithChildren([]Node{j.R, j.L})
	if swapped.(*Join).L != j.R {
		t.Error("WithChildren did not replace children")
	}
	gs := NewGenSel(p, []PreservedSpec{NewPreserved("r1")}, j)
	if gs.WithChildren([]Node{NewScan("r1")}).(*GenSel).Pred.String() != p.String() {
		t.Error("GenSel WithChildren lost fields")
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong arity must panic")
		}
	}()
	j.WithChildren([]Node{j.L})
}

func TestPreservedSpec(t *testing.T) {
	s := NewPreserved("r2", "r1")
	if s.String() != "r1r2" {
		t.Errorf("spec string = %q (must be sorted)", s)
	}
	set := s.Set()
	if !set["r1"] || !set["r2"] || len(set) != 2 {
		t.Errorf("set = %v", set)
	}
}

func TestGroupBySchemaAndEval(t *testing.T) {
	db := testDB()
	cnt := schema.Attr("q", "c")
	g := NewGroupBy(
		[]schema.Attribute{schema.Attr("r1", "x")},
		[]algebra.Aggregate{{Func: algebra.CountStar, Out: cnt}},
		NewScan("r1"))
	sc, err := g.Schema(db)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 2 || !sc.Contains(cnt) {
		t.Errorf("GP schema = %s", sc)
	}
	out, err := g.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("groups = %d", out.Len())
	}
}

func TestRewriteReplacesNode(t *testing.T) {
	p := expr.EqCols("r1", "x", "r2", "x")
	j := NewJoin(LeftJoin, p, NewScan("r1"), NewScan("r2"))
	out := Rewrite(j, func(n Node) Node {
		if s, ok := n.(*Scan); ok && s.Rel == "r2" {
			return NewScanAs("r2", "renamed")
		}
		return nil
	})
	if !strings.Contains(out.String(), "r2:renamed") {
		t.Errorf("rewrite missed: %s", out)
	}
	// The untouched branch is shared, not copied.
	if out.(*Join).L != j.L {
		t.Error("unchanged subtree must be shared")
	}
}

func TestBaseRels(t *testing.T) {
	p := expr.EqCols("r1", "x", "r2", "x")
	j := NewJoin(InnerJoin, p, NewScan("r1"), NewScanAs("r2", "q"))
	rels := BaseRels(j)
	if len(rels) != 2 || rels[0] != "q" || rels[1] != "r1" {
		t.Errorf("BaseRels = %v (alias names count)", rels)
	}
	if CountNodes(j) != 3 {
		t.Errorf("CountNodes = %d", CountNodes(j))
	}
}

func TestIndentCoversAllNodes(t *testing.T) {
	p := expr.EqCols("r1", "x", "r2", "x")
	node := NewProject(
		[]schema.Attribute{schema.Attr("r1", "x")}, true,
		NewSelect(p,
			NewGenSel(p, []PreservedSpec{NewPreserved("r1")},
				NewMGOJ(p, []PreservedSpec{NewPreserved("r1")},
					NewGroupBy([]schema.Attribute{schema.Attr("r1", "x")}, nil, NewScan("r1")),
					NewScan("r2")))))
	out := Indent(node)
	for _, want := range []string{"Project", "Select", "GenSel", "MGOJ", "GroupBy", "Scan"} {
		if !strings.Contains(out, want) {
			t.Errorf("Indent missing %q:\n%s", want, out)
		}
	}
}

func TestEquivalentErrors(t *testing.T) {
	db := testDB()
	good := NewScan("r1")
	bad := NewScan("nosuch")
	if _, err := Equivalent(bad, good, db); err == nil {
		t.Error("error from lhs must propagate")
	}
	if _, err := Equivalent(good, bad, db); err == nil {
		t.Error("error from rhs must propagate")
	}
	ok, err := Equivalent(good, good, db)
	if err != nil || !ok {
		t.Error("a plan is equivalent to itself")
	}
}

// TestStringCanonical pins that semantically distinct plans render to
// distinct strings (the saturation engine's dedup invariant).
func TestStringCanonical(t *testing.T) {
	p := expr.EqCols("r1", "x", "r2", "x")
	variants := []Node{
		NewJoin(InnerJoin, p, NewScan("r1"), NewScan("r2")),
		NewJoin(LeftJoin, p, NewScan("r1"), NewScan("r2")),
		NewJoin(LeftJoin, p, NewScan("r2"), NewScan("r1")),
		NewGenSel(p, []PreservedSpec{NewPreserved("r1")},
			NewJoin(InnerJoin, p, NewScan("r1"), NewScan("r2"))),
		NewSelect(p, NewJoin(InnerJoin, p, NewScan("r1"), NewScan("r2"))),
	}
	seen := map[string]bool{}
	for _, v := range variants {
		s := v.String()
		if seen[s] {
			t.Errorf("duplicate canonical string %q", s)
		}
		seen[s] = true
	}
}

// TestLabel pins the operator line of every kind, the text all plan
// views share.
func TestLabel(t *testing.T) {
	p := expr.EqCols("r1", "x", "r2", "x")
	x := schema.Attr("r1", "x")
	sum := algebra.Aggregate{Func: algebra.Sum, Arg: expr.Column("r1", "y"), Out: schema.Attr("q", "s")}
	key := []SortKey{{Attr: x, Desc: true}, {Attr: schema.Attr("r1", "y")}}
	r1, r2 := NewScan("r1"), NewScan("r2")
	for _, c := range []struct {
		n    Node
		want string
	}{
		{NewScanAs("r1", "a"), "Scan r1"},
		{NewJoin(LeftJoin, p, r1, r2), "LOJ on r1.x = r2.x"},
		{NewSelect(p, r1), "Select r1.x = r2.x"},
		{NewGenSel(p, []PreservedSpec{NewPreserved("r1"), NewPreserved("r1", "r2")}, r1), "GenSel r1.x = r2.x preserving [r1, r1r2]"},
		{NewMGOJ(p, []PreservedSpec{NewPreserved("r2")}, r1, r2), "MGOJ r1.x = r2.x preserving [r2]"},
		{NewGroupBy([]schema.Attribute{x}, []algebra.Aggregate{sum}, r1), "GroupBy [r1.x] aggs [" + sum.String() + "]"},
		{NewProject([]schema.Attribute{x}, true, r1), "Project [r1.x] distinct=true"},
		{NewSort(key, -1, r1), "Sort [" + key[0].String() + ", " + key[1].String() + "]"},
		{NewSortOrigin(key[1:], 5, r1, "enforcer"), "Sort [" + key[1].String() + "] limit 5 (enforcer)"},
	} {
		if got := Label(c.n); got != c.want {
			t.Errorf("Label = %q, want %q", got, c.want)
		}
	}
}

func TestDOT(t *testing.T) {
	p := expr.EqCols("r1", "x", "r2", "x")
	n := NewGenSel(p, []PreservedSpec{NewPreserved("r1")},
		NewJoin(LeftJoin, p, NewScan("r1"),
			NewGroupBy([]schema.Attribute{schema.Attr("r2", "x")}, nil, NewScan("r2"))))
	out := DOT(n)
	for _, want := range []string{"digraph", "hexagon", "trapezium", "box", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
}

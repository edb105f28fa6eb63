package plan

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

func sortInput() Database {
	r := relation.NewBuilder("t", "a", "b").
		Row(value.NewInt(3), value.NewString("x")).
		Row(value.NewInt(1), value.NewString("z")).
		Row(value.Null, value.NewString("y")).
		Row(value.NewInt(1), value.NewString("a")).
		Relation()
	return Database{"t": r}
}

func TestSortAscNullsLast(t *testing.T) {
	db := sortInput()
	s := NewSort([]SortKey{{Attr: schema.Attr("t", "a")}}, -1, NewScan("t"))
	out, err := s.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	a := schema.Attr("t", "a")
	if out.Tuple(0)[out.Schema().IndexOf(a)].Int() != 1 || !out.Tuple(3)[out.Schema().IndexOf(a)].IsNull() {
		t.Errorf("asc nulls-last wrong:\n%s", out)
	}
	if sc, _ := s.Schema(db); !slices.Equal(sc.Attrs(), db["t"].Schema().Attrs()) {
		t.Error("sort schema must pass through")
	}
}

func TestSortDescAndTieBreak(t *testing.T) {
	db := sortInput()
	s := NewSort([]SortKey{
		{Attr: schema.Attr("t", "a"), Desc: true},
		{Attr: schema.Attr("t", "b")},
	}, -1, NewScan("t"))
	out, err := s.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	a, b := schema.Attr("t", "a"), schema.Attr("t", "b")
	// Desc: NULL first, then 3, then the two 1s tie-broken by b asc.
	if !out.Tuple(0)[out.Schema().IndexOf(a)].IsNull() {
		t.Errorf("desc nulls-first wrong:\n%s", out)
	}
	if out.Tuple(1)[out.Schema().IndexOf(a)].Int() != 3 {
		t.Errorf("desc order wrong:\n%s", out)
	}
	if out.Tuple(2)[out.Schema().IndexOf(b)].Str() != "a" || out.Tuple(3)[out.Schema().IndexOf(b)].Str() != "z" {
		t.Errorf("tie break wrong:\n%s", out)
	}
}

func TestSortLimit(t *testing.T) {
	db := sortInput()
	s := NewSort([]SortKey{{Attr: schema.Attr("t", "a")}}, 2, NewScan("t"))
	out, err := s.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("limit = %d rows", out.Len())
	}
	if !strings.Contains(s.String(), "limit 2") {
		t.Errorf("String = %q", s.String())
	}
	// Limit larger than input is a no-op.
	s2 := NewSort(nil, 100, NewScan("t"))
	out2, err := s2.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Len() != 4 {
		t.Errorf("over-limit rows = %d", out2.Len())
	}
}

func TestSortErrorsAndWithChildren(t *testing.T) {
	db := sortInput()
	bad := NewSort([]SortKey{{Attr: schema.Attr("t", "nosuch")}}, -1, NewScan("t"))
	if _, err := bad.Eval(db); err == nil {
		t.Error("missing sort key must fail")
	}
	s := NewSort([]SortKey{{Attr: schema.Attr("t", "a")}}, -1, NewScan("t"))
	if len(s.Children()) != 1 {
		t.Error("Children wrong")
	}
	replaced := s.WithChildren([]Node{NewScan("t")})
	if replaced.(*Sort).Limit != -1 {
		t.Error("WithChildren lost fields")
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong arity must panic")
		}
	}()
	s.WithChildren(nil)
}

func TestSortMixedKindsDeterministic(t *testing.T) {
	r := relation.NewBuilder("m", "v").
		Row(value.NewString("b")).
		Row(value.NewInt(1)).
		Row(value.NewString("a")).
		Relation()
	db := Database{"m": r}
	s := NewSort([]SortKey{{Attr: schema.Attr("m", "v")}}, -1, NewScan("m"))
	out1, err := s.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	out2, _ := s.Eval(db)
	for i := 0; i < out1.Len(); i++ {
		if !value.Equal(out1.Tuple(i)[0], out2.Tuple(i)[0]) {
			t.Fatal("mixed-kind ordering must be deterministic")
		}
	}
}

// TestNodeStringsAndEvalCoverage pushes the remaining node methods
// through their paces: MGOJ/GenSel/Project eval via plans, Indent of
// a Sort, and scan alias round trips.
func TestNodeStringsAndEvalCoverage(t *testing.T) {
	db := testDB()
	p := expr.EqCols("r1", "x", "r2", "x")
	mgoj := NewMGOJ(p, []PreservedSpec{NewPreserved("r1")}, NewScan("r1"), NewScan("r2"))
	out, err := mgoj.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("MGOJ eval empty")
	}
	if sc, err := mgoj.Schema(db); err != nil || sc.Len() != 6 {
		t.Errorf("MGOJ schema: %v %v", sc, err)
	}
	if mgoj.WithChildren([]Node{mgoj.R, mgoj.L}).(*MGOJNode).Pred.String() != p.String() {
		t.Error("MGOJ WithChildren lost pred")
	}
	if !strings.Contains(mgoj.String(), "MGOJ") {
		t.Errorf("MGOJ String = %q", mgoj)
	}

	gs := NewGenSel(p, []PreservedSpec{NewPreserved("r1")}, mgoj)
	if _, err := gs.Eval(db); err != nil {
		t.Fatal(err)
	}
	if sc, err := gs.Schema(db); err != nil || sc.Len() != 6 {
		t.Errorf("GS schema: %v %v", sc, err)
	}

	proj := NewProject([]schema.Attribute{schema.Attr("r1", "x")}, true, NewScan("r1"))
	if out, err := proj.Eval(db); err != nil || out.Len() != 2 {
		t.Errorf("project eval: %v %v", out, err)
	}
	if sc, err := proj.Schema(db); err != nil || sc.Len() != 1 {
		t.Errorf("project schema: %v %v", sc, err)
	}
	if proj.WithChildren([]Node{NewScan("r1")}).(*Project).Distinct != true {
		t.Error("project WithChildren lost distinct")
	}
	if !strings.Contains(proj.String(), "distinct") {
		t.Errorf("project String = %q", proj)
	}

	sel := NewSelect(p, NewScan("r1"))
	if sel.WithChildren([]Node{NewScan("r2")}).(*Select).Pred.String() != p.String() {
		t.Error("select WithChildren lost pred")
	}
	gb := NewGroupBy([]schema.Attribute{schema.Attr("r1", "x")},
		[]algebra.Aggregate{{Func: algebra.CountStar, Out: schema.Attr("q", "c")}}, NewScan("r1"))
	if gb.WithChildren([]Node{NewScan("r1")}).(*GroupBy).Aggs[0].Out != schema.Attr("q", "c") {
		t.Error("groupby WithChildren lost aggs")
	}
	if !strings.Contains(gb.String(), "count(*)") {
		t.Errorf("groupby String = %q", gb)
	}

	sorted := NewSort([]SortKey{{Attr: schema.Attr("r1", "x"), Desc: true}}, 1, NewScan("r1"))
	text := Indent(sorted)
	if !strings.Contains(text, "Sort") || !strings.Contains(text, "limit 1") {
		t.Errorf("Indent(Sort) = %q", text)
	}
	if !strings.Contains(DOT(sorted), "invtriangle") {
		t.Error("DOT(Sort) missing shape")
	}
	if !strings.Contains(DOT(sel), "diamond") {
		t.Error("DOT(Select) missing shape")
	}
	if !strings.Contains(DOT(mgoj), "MGOJ") {
		t.Error("DOT(MGOJ) missing label")
	}
	if !strings.Contains(DOT(NewProject(nil, false, NewScan("r1"))), "triangle") {
		t.Error("DOT(Project) missing shape")
	}
	// Schema error propagation through unary/binary nodes.
	for _, n := range []Node{
		NewSelect(p, NewScan("nosuch")),
		NewProject(nil, false, NewScan("nosuch")),
		NewGenSel(p, nil, NewScan("nosuch")),
		NewGroupBy(nil, nil, NewScan("nosuch")),
		NewSort(nil, -1, NewScan("nosuch")),
		NewMGOJ(p, nil, NewScan("nosuch"), NewScan("r1")),
		NewMGOJ(p, nil, NewScan("r1"), NewScan("nosuch")),
		NewJoin(InnerJoin, p, NewScan("nosuch"), NewScan("r1")),
	} {
		if _, err := n.Schema(db); err == nil {
			t.Errorf("schema error not propagated for %T", n)
		}
		if _, err := n.Eval(db); err == nil {
			t.Errorf("eval error not propagated for %T", n)
		}
	}
}

// topKInput builds n rows with heavy duplication in the key column
// (forcing tie-breaks), interspersed NULLs, and a payload column that
// distinguishes physically distinct rows with equal keys.
func topKInput(n int) *relation.Relation {
	b := relation.NewBuilder("t", "k", "p")
	for i := 0; i < n; i++ {
		var k value.Value
		switch {
		case i%11 == 3:
			k = value.Null
		default:
			k = value.NewInt(int64((i * 37) % 10)) // many duplicates
		}
		b.Row(k, value.NewInt(int64(i)))
	}
	return b.Relation()
}

// TestSortRowsTopKPinnedToFullSort: for every limit, on either side
// of the input size, SortRows returns row-for-row the stable sort of
// the input truncated — including stable tie order among equal keys
// and NULL placement — whether SortIndex selects with its heap or
// sorts every position.
func TestSortRowsTopKPinnedToFullSort(t *testing.T) {
	in := topKInput(100)
	keySets := [][]SortKey{
		{{Attr: schema.Attr("t", "k")}},
		{{Attr: schema.Attr("t", "k"), Desc: true}},
		{{Attr: schema.Attr("t", "k")}, {Attr: schema.Attr("t", "p"), Desc: true}},
	}
	for ki, keys := range keySets {
		stable := slices.Clone(in.Tuples())
		slices.SortStableFunc(stable, func(x, y relation.Tuple) int {
			for _, k := range keys {
				col := in.Schema().IndexOf(k.Attr)
				c := CompareForSort(x[col], y[col])
				if k.Desc {
					c = -c
				}
				if c != 0 {
					return c
				}
			}
			return 0
		})
		for _, limit := range []int{-1, 0, 1, 2, 7, 50, 99, 100, 101} {
			want := stable
			if limit >= 0 && limit < len(want) {
				want = want[:limit]
			}
			got, err := SortRows(in, keys, limit)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != len(want) {
				t.Fatalf("keys=%d limit=%d: %d rows, stable sort %d", ki, limit, got.Len(), len(want))
			}
			for i, w := range want {
				if !got.Tuple(i).EqualTuple(w) {
					t.Fatalf("keys=%d limit=%d row %d differs:\nSortRows: %v\nstable:   %v", ki, limit, i, got.Tuple(i), w)
				}
			}
		}
	}
}

// TestSortRowsInOrderIsNewRelation: a Sort over a bare scan whose rows
// already stand in key order returns a relation of its own, so
// appending to the result leaves the base table as it was.
func TestSortRowsInOrderIsNewRelation(t *testing.T) {
	db := Database{"t": topKInput(10)}
	s := NewSort([]SortKey{{Attr: schema.Attr("t", "p")}}, -1, NewScan("t"))
	out, err := s.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if out == db["t"] {
		t.Fatal("Sort over an in-order scan returned the base table itself")
	}
	out.Append(out.Tuple(0))
	if out.Len() != 11 || db["t"].Len() != 10 {
		t.Fatalf("after appending to the result: result %d rows, base table %d, want 11 and 10", out.Len(), db["t"].Len())
	}
}

// TestSortIndex pins SortIndex's answers: nil for rows already in
// order with no limit below n, the leading positions for them under a
// limit, an empty (not nil) selection for limit 0, and otherwise the
// sorted positions, ties by position.
func TestSortIndex(t *testing.T) {
	keys := []int{3, 1, 2, 1}
	byKey := func(xs []int) func(i, j int32) int {
		return func(i, j int32) int { return xs[i] - xs[j] }
	}
	sorted := []int{1, 1, 2, 3}
	for _, c := range []struct {
		xs    []int
		limit int
		want  []int32
	}{
		{sorted, -1, nil},
		{sorted, 4, nil},
		{sorted, 9, nil},
		{sorted, 2, []int32{0, 1}},
		{sorted, 0, []int32{}},
		{nil, -1, nil},
		{keys, 0, []int32{}},
		{keys, -1, []int32{1, 3, 2, 0}},
		{keys, 4, []int32{1, 3, 2, 0}},
		{keys, 3, []int32{1, 3, 2}},
		{keys, 1, []int32{1}},
	} {
		got := SortIndex(len(c.xs), c.limit, byKey(c.xs))
		if !slices.Equal(got, c.want) || (got == nil) != (c.want == nil) {
			t.Errorf("SortIndex(%v, limit %d) = %#v, want %#v", c.xs, c.limit, got, c.want)
		}
	}
}

// BenchmarkSortRows contrasts the full sort against the bounded heap
// at small k — the top-K path should not allocate or compare
// proportionally to n log n.
func BenchmarkSortRows(b *testing.B) {
	in := topKInput(10000)
	keys := []SortKey{{Attr: schema.Attr("t", "k")}, {Attr: schema.Attr("t", "p")}}
	for _, limit := range []int{-1, 10, 100} {
		name := "full"
		if limit >= 0 {
			name = fmt.Sprintf("top%d", limit)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SortRows(in, keys, limit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

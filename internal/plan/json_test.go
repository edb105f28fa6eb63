package plan

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/value"
)

// TestJSONRoundTrip pins EncodeJSON ∘ DecodeJSON = identity (up to
// canonical strings) across every operator and predicate form, and
// that the decoded plan evaluates identically.
func TestJSONRoundTrip(t *testing.T) {
	db := testDB()
	p := expr.EqCols("r1", "x", "r2", "x")
	disj := expr.Or(
		expr.Cmp{Op: value.LT, L: expr.Column("r1", "y"), R: expr.Int(3)},
		expr.Not{P: expr.Cmp{Op: value.EQ, L: expr.Column("r1", "x"),
			R: expr.Arith{Op: expr.Mul, L: expr.Float(1.5), R: expr.Column("r1", "y")}}},
	)
	plans := []Node{
		NewScan("r1"),
		NewScanAs("r1", "alias"),
		NewJoin(FullJoin, expr.And(p, disj), NewScan("r1"), NewScan("r2")),
		NewSelect(expr.Cmp{Op: value.EQ, L: expr.Column("r1", "x"), R: expr.Str("lit")}, NewScan("r1")),
		NewGenSel(p, []PreservedSpec{NewPreserved("r1"), NewPreserved("r1", "r2")},
			NewJoin(LeftJoin, p, NewScan("r1"), NewScan("r2"))),
		NewMGOJ(p, []PreservedSpec{NewPreserved("r2")}, NewScan("r1"), NewScan("r2")),
		NewGroupBy(
			[]schema.Attribute{schema.Attr("r1", "x"), schema.RID("r1")},
			[]algebra.Aggregate{
				{Func: algebra.CountStar, Out: schema.Attr("q", "a")},
				{Func: algebra.Count, Arg: expr.Column("r1", "y"), Out: schema.Attr("q", "b"), NullIfEmpty: true},
				{Func: algebra.SumDistinct, Arg: expr.Column("r1", "y"), Out: schema.Attr("q", "c")},
				{Func: algebra.Avg, Arg: expr.Column("r1", "y"), Out: schema.Attr("q", "d")},
			},
			NewScan("r1")),
		NewProject([]schema.Attribute{schema.Attr("r1", "x")}, true, NewScan("r1")),
		NewSort([]SortKey{{Attr: schema.Attr("r1", "x"), Desc: true}}, 3,
			NewJoin(InnerJoin, p, NewScan("r1"), NewScan("r2"))),
		NewSort(nil, -1, NewScan("r1")),
		NewJoin(InnerJoin, expr.True{}, NewScan("r1"), NewScan("r2")),
	}
	for _, orig := range plans {
		data, err := EncodeJSON(orig)
		if err != nil {
			t.Fatalf("encode %s: %v", orig, err)
		}
		back, err := DecodeJSON(data)
		if err != nil {
			t.Fatalf("decode %s: %v\njson: %s", orig, err, data)
		}
		if back.String() != orig.String() {
			t.Errorf("round trip changed plan:\norig: %s\nback: %s", orig, back)
		}
		ok, err := Equivalent(orig, back, db)
		if err != nil {
			t.Fatalf("%s: %v", orig, err)
		}
		if !ok {
			t.Errorf("decoded plan evaluates differently: %s", orig)
		}
	}
}

// TestJSONGroupByNullIfEmpty: the count-bug flag must survive.
func TestJSONGroupByNullIfEmpty(t *testing.T) {
	g := NewGroupBy(nil,
		[]algebra.Aggregate{{Func: algebra.Count, Arg: expr.Column("r1", "x"),
			Out: schema.Attr("q", "c"), NullIfEmpty: true}},
		NewScan("r1"))
	data, err := EncodeJSON(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.(*GroupBy).Aggs[0].NullIfEmpty {
		t.Error("NullIfEmpty lost in round trip")
	}
}

// TestJSONSortOriginRoundTrip: the Origin provenance is excluded from
// the fingerprint (so String-comparison round trips cannot see it) but
// must survive JSON encoding — EXPLAIN consumers rely on it to tell
// query-required sorts from optimizer-injected enforcers.
func TestJSONSortOriginRoundTrip(t *testing.T) {
	for _, origin := range []string{SortOriginQuery, SortOriginEnforcer, ""} {
		orig := NewSortOrigin([]SortKey{{Attr: schema.Attr("r1", "x")}}, -1, NewScan("r1"), origin)
		data, err := EncodeJSON(orig)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		s, ok := back.(*Sort)
		if !ok {
			t.Fatalf("decoded %T, want *Sort", back)
		}
		if s.Origin != origin {
			t.Errorf("origin %q round-tripped as %q", origin, s.Origin)
		}
	}
}

func TestJSONDecodeErrors(t *testing.T) {
	bad := []string{
		``,
		`{"op":"nosuch"}`,
		`{"op":"scan"}`,
		`{"op":"join","kind":"XX","pred":{"kind":"true"},"left":{"op":"scan","rel":"a"},"right":{"op":"scan","rel":"b"}}`,
		`{"op":"join","kind":"JOIN","pred":{"kind":"wat"},"left":{"op":"scan","rel":"a"},"right":{"op":"scan","rel":"b"}}`,
		`{"op":"groupby","input":{"op":"scan","rel":"a"},"aggs":[{"func":"median","out":{"rel":"q","col":"c"}}]}`,
	}
	for _, b := range bad {
		if _, err := DecodeJSON([]byte(b)); err == nil {
			t.Errorf("DecodeJSON(%q) should fail", b)
		}
	}
}

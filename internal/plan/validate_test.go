package plan

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/schema"
)

func TestValidateAcceptsWellFormed(t *testing.T) {
	db := testDB()
	join := NewJoin(InnerJoin, expr.EqCols("r1", "x", "r2", "x"), NewScan("r1"), NewScan("r2"))
	plans := []Node{
		NewScan("r1"),
		join,
		NewSelect(expr.Eq(expr.Column("r1", "y"), expr.Int(10)), join),
		NewGenSel(expr.Eq(expr.Column("r2", "z"), expr.Int(200)),
			[]PreservedSpec{NewPreserved("r1")}, join),
		NewMGOJ(expr.EqCols("r1", "x", "r2", "x"),
			[]PreservedSpec{NewPreserved("r1")}, NewScan("r1"), NewScan("r2")),
		NewProject([]schema.Attribute{schema.Attr("r1", "x")}, true, join),
		NewProject([]schema.Attribute{schema.RID("r1")}, false, NewScan("r1")),
		NewSort([]SortKey{{Attr: schema.Attr("r1", "y")}}, 1, join),
	}
	for _, p := range plans {
		if err := Validate(p, db); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", p, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	db := testDB()
	join := NewJoin(InnerJoin, expr.EqCols("r1", "x", "r2", "x"), NewScan("r1"), NewScan("r2"))
	cases := []struct {
		name string
		p    Node
		want string
	}{
		{"unknown relation", NewScan("nosuch"), "unknown relation"},
		{"dangling predicate column",
			NewSelect(expr.Eq(expr.Column("r9", "q"), expr.Int(1)), join),
			"predicate attribute"},
		{"join predicate outside inputs",
			NewJoin(InnerJoin, expr.EqCols("r1", "x", "r9", "x"), NewScan("r1"), NewScan("r2")),
			"predicate attribute"},
		{"self-join without renaming",
			NewJoin(InnerJoin, expr.True{}, NewScan("r1"), NewScan("r1")),
			"share attributes"},
		{"preserved relation not an input",
			NewGenSel(expr.True{}, []PreservedSpec{NewPreserved("r9")}, join),
			"preserved relation"},
		{"MGOJ preserved outside inputs",
			NewMGOJ(expr.EqCols("r1", "x", "r2", "x"),
				[]PreservedSpec{NewPreserved("r9")}, NewScan("r1"), NewScan("r2")),
			"preserved relation"},
		{"projected attribute missing",
			NewProject([]schema.Attribute{schema.Attr("r1", "nope")}, false, join),
			"projected attribute"},
		{"sort key missing",
			NewSort([]SortKey{{Attr: schema.Attr("r2", "nope")}}, -1, join),
			"sort key"},
		{"group key missing",
			NewGroupBy([]schema.Attribute{schema.Attr("r1", "nope")}, nil, join),
			"group key"},
	}
	for _, c := range cases {
		err := Validate(c.p, db)
		if err == nil {
			t.Errorf("%s: Validate = nil, want error containing %q", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want error containing %q", c.name, err, c.want)
		}
	}
}

type foreignNode struct{ Node }

func TestValidateRejectsForeignNode(t *testing.T) {
	err := Validate(foreignNode{NewScan("r1")}, testDB())
	if err == nil || !strings.Contains(err.Error(), "unknown node type") {
		t.Errorf("Validate(foreign) = %v, want unknown node type error", err)
	}
}

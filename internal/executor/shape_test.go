// The shape cache (plan/shape.go) keeps each node's output schema, key
// split and key positions across executions. These tests pin what
// must not leak from one execution into another: a shape derived over
// other input schemas, and a join residual holding another request's
// constants.
package executor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// shapeDB is r1 and r2 with int columns x and y, r1's columns in the
// order cols. Equal seeds give equal rows whatever the column order.
func shapeDB(seed int64, cols ...string) plan.Database {
	rng := rand.New(rand.NewSource(seed))
	db := plan.Database{}
	for _, name := range []string{"r1", "r2"} {
		order := []string{"x", "y"}
		if name == "r1" {
			order = cols
		}
		b := relation.NewBuilder(name, order...)
		for i := 0; i < 40; i++ {
			row := map[string]value.Value{"x": value.NewInt(int64(rng.Intn(8))), "y": value.NewInt(int64(rng.Intn(8)))}
			if rng.Intn(10) == 0 {
				row["y"] = value.Null
			}
			b.Row(row[order[0]], row[order[1]])
		}
		db[name] = b.Relation()
	}
	return db
}

// checkExec runs p over db and holds it to plan.Eval: the same
// attributes in the same order, the same multiset of rows.
func checkExec(t *testing.T, name string, p plan.Node, db plan.Database) *schema.Schema {
	t.Helper()
	out, _, err := Exec(p, db, Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := p.Eval(db)
	if err != nil {
		t.Fatalf("%s: eval: %v", name, err)
	}
	got := out.ToRelation()
	if fmt.Sprint(out.Schema.Attrs()) != fmt.Sprint(want.Schema().Attrs()) || !got.EqualAsMultisets(want) {
		t.Fatalf("%s: Exec gives %d rows over %s, plan.Eval %d over %s", name, got.Len(), out.Schema, want.Len(), want.Schema())
	}
	return out.Schema
}

// TestShapeOtherDatabase runs one plan over two databases whose r1 lays
// its columns out in different orders, alternately: a shape derived
// over one database's schemas must not serve the other's.
func TestShapeOtherDatabase(t *testing.T) {
	xy, yx := shapeDB(7, "x", "y"), shapeDB(7, "y", "x")
	j := plan.NewJoin(plan.LeftJoin,
		expr.And(expr.EqCols("r1", "x", "r2", "x"), expr.Cmp{Op: value.LT, L: expr.Column("r1", "y"), R: expr.Column("r2", "y")}),
		plan.NewScan("r1"), plan.NewScan("r2"))
	plans := map[string]plan.Node{
		"join":    j,
		"project": plan.NewProject([]schema.Attribute{schema.Attr("r2", "y"), schema.Attr("r1", "y")}, true, j),
		"groupby": plan.NewGroupBy([]schema.Attribute{schema.Attr("r1", "y")},
			[]algebra.Aggregate{{Func: algebra.CountStar, Out: schema.Attr("g", "n")}}, j),
		"aliased": plan.NewJoin(plan.InnerJoin, expr.EqCols("a", "x", "b", "y"), plan.NewScanAs("r1", "a"), plan.NewScanAs("r1", "b")),
	}
	for name, p := range plans {
		for round, db := range []plan.Database{xy, yx, xy, yx} {
			checkExec(t, fmt.Sprintf("%s round %d", name, round), p, db)
		}
	}
}

// TestShapeAliasedSelfJoin binds a self-join through aliased scans, with
// its parameter in a selection under the join, as a cache hit does: the
// join is rebuilt per binding but keeps its template's shape, so both
// bindings return the very same output schema.
func TestShapeAliasedSelfJoin(t *testing.T) {
	db := shapeDB(11, "x", "y")
	tmpl := plan.NewJoin(plan.InnerJoin, expr.EqCols("a", "x", "b", "y"),
		plan.NewScanAs("r1", "a"),
		plan.NewSelect(expr.Cmp{Op: value.LT, L: expr.Column("b", "x"), R: expr.Param{Idx: 1}}, plan.NewScanAs("r1", "b")))
	var schemas []*schema.Schema
	for _, v := range []int64{3, 6, 3} {
		bound, err := plan.BindParams(tmpl, []value.Value{value.NewInt(v)})
		if err != nil {
			t.Fatal(err)
		}
		if bound == tmpl {
			t.Fatal("test premise: binding must rebuild the join")
		}
		schemas = append(schemas, checkExec(t, fmt.Sprintf("b.x < %d", v), bound, db))
	}
	if schemas[0] != schemas[1] || schemas[1] != schemas[2] {
		t.Fatalf("bindings of one template got different output schemas %p %p %p", schemas[0], schemas[1], schemas[2])
	}
}

// TestShapeParamInJoin binds a parameter into a join's own predicate:
// each binding's residual holds its own constant, so two bindings,
// executed one after the other, each return their own rows — the
// projection above the join shares its template's shape all the same.
func TestShapeParamInJoin(t *testing.T) {
	db := shapeDB(13, "x", "y")
	tmpl := plan.NewProject([]schema.Attribute{schema.Attr("r1", "x"), schema.Attr("r2", "y")}, false,
		plan.NewJoin(plan.LeftJoin,
			expr.And(expr.EqCols("r1", "x", "r2", "x"), expr.Cmp{Op: value.LT, L: expr.Column("r2", "y"), R: expr.Param{Idx: 1}}),
			plan.NewScan("r1"), plan.NewScan("r2")))
	var rows []int
	for _, v := range []int64{2, 6, 2, 6} {
		bound, err := plan.BindParams(tmpl, []value.Value{value.NewInt(v)})
		if err != nil {
			t.Fatal(err)
		}
		checkExec(t, fmt.Sprintf("r2.y < %d", v), bound, db)
		want, _ := bound.Eval(db)
		rows = append(rows, want.Len())
	}
	if rows[0] == rows[1] {
		t.Fatalf("test premise: the two bindings return %d rows each; they must differ", rows[0])
	}
}

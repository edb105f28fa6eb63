package sql

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

func TestParseBasics(t *testing.T) {
	cases := []string{
		"select a, b from t where a = 1",
		"select distinct t.a from t, s where t.a = s.a and t.b < 3",
		"select a as x from t left outer join s on t.a = s.a",
		"select supkey, count(*) as c from detail group by supkey having count(*) > 2",
		"select a from t where b = (select count(*) from s where s.a = t.a)",
		"select * from (select a from t) as v",
		"select a from t join s on t.a = s.a",
		"select a from t full outer join s on t.a = s.a",
		"select a from t right join s on t.a = s.a",
		"select sum(a) as s, min(b) as lo, max(b) as hi, avg(a) as m from t",
		"select count(distinct a) as d from t",
	}
	for _, c := range cases {
		stmt, err := Parse(c)
		if err != nil {
			t.Errorf("Parse(%q): %v", c, err)
			continue
		}
		if stmt.String() == "" {
			t.Errorf("Parse(%q): empty round trip", c)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"select",
		"select a",
		"select a from",
		"select a from t where",
		"select a from t join s", // missing ON
		"select a from (select b from t)",
		"select a from t where a = 'unterminated",
		"select a from t where a ~ b",
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) should fail", c)
		}
	}
}

func testDB() plan.Database {
	t1 := relation.NewBuilder("t", "a", "b").
		Row(value.NewInt(1), value.NewInt(10)).
		Row(value.NewInt(2), value.NewInt(20)).
		Row(value.NewInt(2), value.NewInt(30)).
		Relation()
	s1 := relation.NewBuilder("s", "a", "c").
		Row(value.NewInt(2), value.NewInt(200)).
		Row(value.NewInt(3), value.NewInt(300)).
		Relation()
	return plan.Database{"t": t1, "s": s1}
}

// sameRowsPositional compares two relations as tuple multisets by
// column position, ignoring attribute names.
func sameRowsPositional(a, b *relation.Relation) bool {
	if a.Len() != b.Len() || a.Schema().Len() != b.Schema().Len() {
		return false
	}
	matched := make([]bool, b.Len())
next:
	for _, t := range a.Tuples() {
		for j, u := range b.Tuples() {
			if !matched[j] && t.EqualTuple(u) {
				matched[j] = true
				continue next
			}
		}
		return false
	}
	return true
}

func mustRun(t *testing.T, query string, db plan.Database) *relation.Relation {
	t.Helper()
	node, err := ParseAndLower(query, db)
	if err != nil {
		t.Fatalf("lower %q: %v", query, err)
	}
	out, err := executor.Run(node, db)
	if err != nil {
		t.Fatalf("run %q: %v", query, err)
	}
	return out
}

func TestLowerSimpleSelect(t *testing.T) {
	db := testDB()
	out := mustRun(t, "select a, b from t where b >= 20", db)
	if out.Len() != 2 {
		t.Fatalf("got %d rows:\n%s", out.Len(), out)
	}
}

func TestLowerJoinKinds(t *testing.T) {
	db := testDB()
	if got := mustRun(t, "select t.a, s.c from t join s on t.a = s.a", db); got.Len() != 2 {
		t.Errorf("inner join rows = %d, want 2", got.Len())
	}
	if got := mustRun(t, "select t.a, s.c from t left outer join s on t.a = s.a", db); got.Len() != 3 {
		t.Errorf("left join rows = %d, want 3", got.Len())
	}
	if got := mustRun(t, "select t.a, s.c from t full outer join s on t.a = s.a", db); got.Len() != 4 {
		t.Errorf("full join rows = %d, want 4", got.Len())
	}
	if got := mustRun(t, "select t.a, s.c from t right outer join s on t.a = s.a", db); got.Len() != 3 {
		t.Errorf("right join rows = %d, want 3 (2 matches + unmatched s row)", got.Len())
	}
}

func TestLowerCommaJoin(t *testing.T) {
	db := testDB()
	got := mustRun(t, "select t.a, s.c from t, s where t.a = s.a", db)
	want := mustRun(t, "select t.a, s.c from t join s on t.a = s.a", db)
	if !got.EqualAsMultisets(want) {
		t.Errorf("comma join differs from explicit join")
	}
}

func TestLowerAliases(t *testing.T) {
	db := testDB()
	// Self join with aliases: pairs of t rows sharing a.
	got := mustRun(t, "select x.b as b1, y.b as b2 from t as x, t as y where x.a = y.a", db)
	if got.Len() != 5 { // a=1: 1 pair; a=2: 4 pairs
		t.Errorf("self join rows = %d, want 5:\n%s", got.Len(), got)
	}
}

func TestLowerGroupByHaving(t *testing.T) {
	db := testDB()
	out := mustRun(t, "select a, count(*) as c, sum(b) as s from t group by a having count(*) >= 2", db)
	if out.Len() != 1 {
		t.Fatalf("rows = %d, want 1:\n%s", out.Len(), out)
	}
	tu := out.Tuple(0)
	if tu[out.Schema().IndexOf(schema.Attr("t", "a"))].Int() != 2 {
		t.Errorf("group key wrong:\n%s", out)
	}
}

func TestLowerDistinct(t *testing.T) {
	db := testDB()
	out := mustRun(t, "select distinct a from t", db)
	if out.Len() != 2 {
		t.Errorf("distinct rows = %d, want 2", out.Len())
	}
}

// TestLowerSupplierSQL lowers the Example 1.1 query from SQL text and
// checks it computes exactly what the hand-built plan computes.
func TestLowerSupplierSQL(t *testing.T) {
	cfg := datagen.SupplierConfig{Suppliers: 25, Parts: 5, AggRows: 60, DetailRows: 300, BankruptFrac: 0.2, Seed: 3}
	db := datagen.Supplier(cfg)
	query := `
	  select v2.supkey as supkey, v2.partkey as partkey, v2.qty as qty, v3.aggqty95 as aggqty95
	  from (select agg94.supkey as supkey, agg94.partkey as partkey, agg94.qty as qty
	        from agg94, sup_detail
	        where agg94.supkey = sup_detail.supkey and sup_detail.suprating = 'BANKRUPT') as v2
	  left outer join
	       (select supkey, partkey, count(*) as aggqty95
	        from detail95 group by supkey, partkey) as v3
	  on v2.supkey = v3.supkey and v2.partkey = v3.partkey and v2.qty < 2 * v3.aggqty95`
	node, err := ParseAndLower(query, db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := executor.Run(node, db)
	if err != nil {
		t.Fatal(err)
	}
	// The hand-built plan projects nothing and names its count column
	// v3.aggqty95 while the lowered plan generates its own qualifier;
	// compare positionally on (supkey, partkey, qty, count).
	want, err := executor.Run(datagen.SupplierQuery(), db)
	if err != nil {
		t.Fatal(err)
	}
	wantProj := want.Project([]schema.Attribute{
		schema.Attr("agg94", "supkey"), schema.Attr("agg94", "partkey"),
		schema.Attr("agg94", "qty"), datagen.V3Count,
	}, false)
	if !sameRowsPositional(got, wantProj) {
		t.Fatalf("SQL lowering differs from hand-built plan: %d vs %d rows\n%s\n%s",
			got.Len(), wantProj.Len(), got, wantProj)
	}
	if got.Len() == 0 {
		t.Error("empty result makes the test vacuous")
	}
}

// TestLowerUnnestsCorrelatedCount checks the join-aggregate path: the
// SQL with nested correlated COUNT subqueries lowers to the unnested
// plan and matches tuple iteration semantics.
func TestLowerUnnestsCorrelatedCount(t *testing.T) {
	r1 := relation.NewBuilder("r1", "a", "b", "c", "f").
		Row(value.NewInt(1), value.NewInt(1), value.NewInt(1), value.NewInt(1)).
		Row(value.NewInt(2), value.NewInt(0), value.NewInt(2), value.NewInt(1)).
		Row(value.NewInt(3), value.NewInt(2), value.NewInt(1), value.NewInt(2)).
		Relation()
	r2 := relation.NewBuilder("r2", "c", "d", "e").
		Row(value.NewInt(1), value.NewInt(1), value.NewInt(7)).
		Row(value.NewInt(1), value.NewInt(0), value.NewInt(8)).
		Row(value.NewInt(2), value.NewInt(1), value.NewInt(7)).
		Relation()
	r3 := relation.NewBuilder("r3", "e", "f").
		Row(value.NewInt(7), value.NewInt(1)).
		Row(value.NewInt(8), value.NewInt(2)).
		Relation()
	db := plan.Database{"r1": r1, "r2": r2, "r3": r3}

	query := `
	  select r1.a from r1
	  where r1.b = (select count(*) from r2
	                where r2.c = r1.c and r2.d = (select count(*) from r3
	                                              where r2.e = r3.e and r1.f = r3.f))`
	node, err := ParseAndLower(query, db)
	if err != nil {
		t.Fatal(err)
	}
	// The lowered plan must be the unnested outer-join form, not a
	// nested-loops evaluation: it contains left outer joins and a
	// generalized selection.
	text := plan.Indent(node)
	if !strings.Contains(text, "GenSel") || !strings.Contains(text, "LOJ") {
		t.Errorf("expected unnested plan with LOJ and GenSel:\n%s", text)
	}
	got, err := executor.Run(node, db)
	if err != nil {
		t.Fatal(err)
	}
	tis := &core.JoinAggregateQuery{
		Rel:  "r1",
		Proj: []schema.Attribute{schema.Attr("r1", "a")},
		Filters: []core.CountFilter{{
			LHS: expr.Column("r1", "b"),
			Op:  value.EQ,
			Sub: &core.CountQuery{
				Rel:  "r2",
				Corr: expr.EqCols("r2", "c", "r1", "c"),
				Filters: []core.CountFilter{{
					LHS: expr.Column("r2", "d"),
					Op:  value.EQ,
					Sub: &core.CountQuery{
						Rel:  "r3",
						Corr: expr.And(expr.EqCols("r2", "e", "r3", "e"), expr.EqCols("r1", "f", "r3", "f")),
					},
				}},
			},
		}},
	}
	want, err := tis.TIS(db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsMultisets(want) {
		t.Fatalf("unnested SQL differs from TIS:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLowerErrors(t *testing.T) {
	db := testDB()
	bad := []string{
		"select a from nosuch",
		"select nosuch from t",
		"select a from t where t.a = u.b",
		"select t.a from t, t",       // duplicate without alias
		"select a, a from t",         // duplicate output
		"select a from t group by b", // a not grouped
		"select a + 1 from t",        // computed select item
	}
	for _, q := range bad {
		if _, err := ParseAndLower(q, db); err == nil {
			t.Errorf("ParseAndLower(%q) should fail", q)
		}
	}
}

// TestLowerAmbiguous pins unqualified-column resolution.
func TestLowerAmbiguous(t *testing.T) {
	db := testDB()
	if _, err := ParseAndLower("select a from t, s where t.a = s.a", db); err == nil {
		t.Error("unqualified ambiguous column should fail")
	}
	if _, err := ParseAndLower("select b from t, s where t.a = s.a", db); err != nil {
		t.Errorf("unambiguous unqualified column should resolve: %v", err)
	}
}

func TestLowerBooleanPredicates(t *testing.T) {
	db := testDB()
	if got := mustRun(t, "select a from t where a = 1 or b = 30", db); got.Len() != 2 {
		t.Errorf("OR rows = %d, want 2", got.Len())
	}
	if got := mustRun(t, "select a from t where not (a = 1)", db); got.Len() != 2 {
		t.Errorf("NOT rows = %d, want 2", got.Len())
	}
	if got := mustRun(t, "select a from t where b between 15 and 25", db); got.Len() != 1 {
		t.Errorf("BETWEEN rows = %d, want 1", got.Len())
	}
	if got := mustRun(t, "select a from t where a in (2, 9)", db); got.Len() != 2 {
		t.Errorf("IN rows = %d, want 2", got.Len())
	}
	// Precedence: OR binds loosest.
	if got := mustRun(t, "select a from t where a = 1 and b = 99 or a = 2", db); got.Len() != 2 {
		t.Errorf("precedence rows = %d, want 2", got.Len())
	}
}

func TestLowerOrderByLimit(t *testing.T) {
	db := testDB()
	out := mustRun(t, "select a, b from t order by b desc limit 2", db)
	if out.Len() != 2 {
		t.Fatalf("limit rows = %d", out.Len())
	}
	if out.Tuple(0)[out.Schema().IndexOf(schema.Attr("t", "b"))].Int() != 30 {
		t.Errorf("desc order wrong:\n%s", out)
	}
	// Ordering by an alias works too.
	out2 := mustRun(t, "select b as bee from t order by bee limit 1", db)
	if out2.Len() != 1 || out2.Tuple(0)[out2.Schema().IndexOf(schema.Attr("t", "b"))].Int() != 10 {
		t.Errorf("alias order wrong:\n%s", out2)
	}
	// ORDER BY a column outside the select list fails.
	if _, err := ParseAndLower("select a from t order by nosuch", db); err == nil {
		t.Error("unknown order column should fail")
	}
	if _, err := ParseAndLower("select a from t order by b", db); err == nil {
		t.Error("non-selected order column should fail")
	}
}

func TestStmtStringRendering(t *testing.T) {
	for _, q := range []string{
		"select distinct a as x from t left join s on t.a = s.a where a = 1 or not (b < 2) group by a having count(*) > 1 order by a desc limit 5",
		"select a from (select b from t) as v, s where v.b = s.a",
		"select a from t where b in (1, 2) and c between 3 and 4",
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		rendered := stmt.String()
		// The rendering must itself re-parse.
		if _, err := Parse(rendered); err != nil {
			t.Errorf("re-parse of %q failed: %v", rendered, err)
		}
	}
}

func TestUnnestAllOps(t *testing.T) {
	db := testDB()
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		q := "select a from t where b " + op + " (select count(*) from s where s.a = t.a)"
		if _, err := ParseAndLower(q, db); err != nil {
			t.Errorf("op %s: %v", op, err)
		}
	}
}

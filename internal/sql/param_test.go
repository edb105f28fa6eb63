package sql

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/value"
)

// TestParameterizeExtractsLiterals: every literal becomes a slot, in
// deterministic left-to-right clause order, and the original statement
// is recoverable by rebinding.
func TestParameterizeExtractsLiterals(t *testing.T) {
	stmt, err := Parse("select a from t where a = 1 and b < 'x' and a + 2 > 3")
	if err != nil {
		t.Fatal(err)
	}
	tmpl, params := Parameterize(stmt)
	if len(params) != 4 {
		t.Fatalf("want 4 params, got %d: %v", len(params), params)
	}
	want := []value.Value{value.NewInt(1), value.NewString("x"), value.NewInt(2), value.NewInt(3)}
	for i, v := range want {
		if params[i].Key() != v.Key() {
			t.Fatalf("param %d = %s, want %s", i+1, params[i], v)
		}
	}
	// The template renders with $n markers, not literals.
	text := tmpl.String()
	for _, marker := range []string{"$1", "$2", "$3", "$4"} {
		if !strings.Contains(text, marker) {
			t.Fatalf("template %q lacks %s", text, marker)
		}
	}
	// Rebinding the extracted literals restores the original text.
	if got, orig := bindLiterals(tmpl, params).String(), stmt.String(); got != orig {
		t.Fatalf("rebind mismatch:\n  got  %s\n  want %s", got, orig)
	}
	// The original statement is untouched (deep copy).
	if strings.Contains(stmt.String(), "$") {
		t.Fatalf("Parameterize mutated its input: %s", stmt)
	}
}

// TestParameterizeTemplateIdentity: queries differing only in
// constants produce the same template (same canonical plan key), and
// different shapes do not.
func TestParameterizeTemplateIdentity(t *testing.T) {
	db := testDB()
	key := func(q string) string {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		tmpl, _ := Parameterize(stmt)
		node, err := Lower(tmpl, db)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return plan.Key(node)
	}
	a := key("select a from t where b = 10")
	b := key("select a from t where b = 99")
	if a != b {
		t.Fatalf("same shape, different templates:\n  %s\n  %s", a, b)
	}
	c := key("select a from t where b < 10")
	if a == c {
		t.Fatal("different operators must not share a template")
	}
}

// TestParameterizedLoweringCommutes: lowering the template and binding
// the literals back at the plan level yields exactly the tree direct
// lowering produces — on joins, derived tables, aggregation and the
// correlated-count unnest path.
func TestParameterizedLoweringCommutes(t *testing.T) {
	db := testDB()
	queries := []string{
		"select a from t where a = 1 and b < 7",
		"select t.a, c from t, s where t.a = s.a and c > 100 and b = 20",
		"select v.a from (select a from t where b > 5) as v left join s on v.a = s.a where s.c <> 0",
		"select a, count(*) as n from t where b >= 10 group by a having count(*) > 1",
		"select t.a from t where t.b = (select count(*) from s where s.a = t.a) and t.a < 5",
		"select distinct a from t where a = 2 order by a limit 3",
	}
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		direct, err := Lower(stmt, db)
		if err != nil {
			t.Fatalf("%s: direct lowering: %v", q, err)
		}
		tmpl, params := Parameterize(stmt)
		lowered, err := Lower(tmpl, db)
		if err != nil {
			t.Fatalf("%s: template lowering: %v", q, err)
		}
		if got, want := plan.ParamCount(lowered), len(params); got != want {
			t.Fatalf("%s: ParamCount=%d, want %d", q, got, want)
		}
		bound, err := plan.BindParams(lowered, params)
		if err != nil {
			t.Fatalf("%s: bind: %v", q, err)
		}
		if plan.Key(bound) != plan.Key(direct) {
			t.Fatalf("%s: bound template differs from direct lowering:\n  bound  %s\n  direct %s",
				q, plan.Key(bound), plan.Key(direct))
		}
	}
}

// TestParseAndLowerConcurrent is the serving-path concurrency audit:
// many goroutines parse, parameterize and lower against the same
// plan.Database simultaneously (as every server goroutine does), all
// under -race. Lowering must share no mutable state across calls and
// every goroutine must see the identical template key.
func TestParseAndLowerConcurrent(t *testing.T) {
	db := testDB()
	queries := []string{
		"select a from t where a = 1",
		"select t.a, c from t, s where t.a = s.a and c > 100",
		"select a, count(*) as n from t group by a having count(*) > 1",
		"select t.a from t where t.b = (select count(*) from s where s.a = t.a)",
	}
	// Reference keys, computed serially.
	want := make([]string, len(queries))
	for i, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		tmpl, _ := Parameterize(stmt)
		node, err := Lower(tmpl, db)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = plan.Key(node)
	}

	const goroutines = 16
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(queries)
				stmt, err := Parse(queries[i])
				if err != nil {
					errs <- err
					return
				}
				tmpl, params := Parameterize(stmt)
				node, err := Lower(tmpl, db)
				if err != nil {
					errs <- err
					return
				}
				if got := plan.Key(node); got != want[i] {
					errs <- fmt.Errorf("goroutine %d: key mismatch for %q:\n  got  %s\n  want %s", g, queries[i], got, want[i])
					return
				}
				if _, err := plan.BindParams(node, params); err != nil {
					errs <- err
					return
				}
				// Direct ParseAndLower shares the same paths.
				if _, err := ParseAndLower(queries[i], db); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// bindLiterals is the inverse of Parameterize: it returns
// a deep copy of stmt with each Param slot replaced by Lit(params[Idx-1]).
// Slots out of range are left in place.
func bindLiterals(stmt *SelectStmt, params []value.Value) *SelectStmt {
	b := &binder{params: params}
	return b.stmt(stmt)
}

type binder struct {
	params []value.Value
}

func (b *binder) stmt(s *SelectStmt) *SelectStmt {
	out := *s
	out.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		out.Items[i] = it
		if it.Expr != nil {
			out.Items[i].Expr = b.expr(it.Expr)
		}
	}
	out.From = make([]FromItem, len(s.From))
	for i, f := range s.From {
		out.From[i] = f
		if f.Sub != nil {
			out.From[i].Sub = b.stmt(f.Sub)
		}
		if f.Join.On != nil {
			out.From[i].Join.On = b.expr(f.Join.On)
		}
	}
	if s.Where != nil {
		out.Where = b.expr(s.Where)
	}
	out.GroupBy = append([]ColRef(nil), s.GroupBy...)
	if s.Having != nil {
		out.Having = b.expr(s.Having)
	}
	out.OrderBy = append([]OrderItem(nil), s.OrderBy...)
	return &out
}

func (b *binder) expr(e Expr) Expr {
	switch x := e.(type) {
	case param:
		if x.Idx >= 1 && x.Idx <= len(b.params) {
			return lit{Val: b.params[x.Idx-1]}
		}
		return e
	case binExpr:
		return binExpr{Op: x.Op, L: b.expr(x.L), R: b.expr(x.R)}
	case unaryExpr:
		return unaryExpr{Op: x.Op, E: b.expr(x.E)}
	case aggCall:
		out := x
		if x.Arg != nil {
			out.Arg = b.expr(x.Arg)
		}
		return out
	case subqueryExpr:
		return subqueryExpr{Stmt: b.stmt(x.Stmt)}
	default:
		return e
	}
}

package reorder

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/relation"
	"repro/internal/value"
)

func tinyDB() Database {
	t1 := relation.NewBuilder("t", "a", "b").
		Row(value.NewInt(1), value.NewInt(10)).
		Row(value.NewInt(2), value.NewInt(20)).
		Relation()
	s1 := relation.NewBuilder("s", "a", "c").
		Row(value.NewInt(2), value.NewInt(200)).
		Relation()
	return Database{"t": t1, "s": s1}
}

// runSQL is Parse, Optimize and Execute with no limits.
func runSQL(query string, db Database) (*Relation, error) {
	q, err := Parse(query, db)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	res, err := Optimize(ctx, q, db, Options{})
	if err != nil {
		return nil, err
	}
	return Execute(ctx, res.Best.Plan, db, Limits{})
}

func TestFacadeEndToEnd(t *testing.T) {
	db := tinyDB()
	query := "select t.a, s.c from t left outer join s on t.a = s.a"
	node, err := Parse(query, db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := Optimize(ctx, node, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost > res.Original.Cost {
		t.Error("optimizer must not regress")
	}
	rows, err := Execute(ctx, res.Best.Plan, db, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Errorf("rows = %d, want 2", rows.Len())
	}
	if s := Explain(res); !strings.Contains(s, "best plan") {
		t.Errorf("Explain output: %q", s)
	}
	if s := ExplainPlan(node); !strings.Contains(s, "LOJ") {
		t.Errorf("ExplainPlan output: %q", s)
	}
}

func TestFacadeSQL(t *testing.T) {
	db := tinyDB()
	rows, err := runSQL("select t.a from t where t.b >= 20", db)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 {
		t.Errorf("rows = %d", rows.Len())
	}
	if _, err := runSQL("select nope from t", db); err == nil {
		t.Error("bad SQL must fail")
	}
}

func TestFacadeHypergraphAndTrees(t *testing.T) {
	q4 := experiments.Q4()
	h, err := Hypergraph(q4)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Nodes) != 5 || len(h.Edges) != 4 {
		t.Errorf("hypergraph shape: %d nodes, %d edges", len(h.Nodes), len(h.Edges))
	}
	broken, strict, err := AssociationTreeCounts(q4)
	if err != nil {
		t.Fatal(err)
	}
	if strict != 7 || broken <= strict {
		t.Errorf("tree counts: broken %d, strict %d", broken, strict)
	}
}

func TestFacadeEnumerateEquivalence(t *testing.T) {
	q := experiments.Query2()
	plans := Enumerate(q, 100)
	if len(plans) < 3 {
		t.Fatalf("only %d plans", len(plans))
	}
	db := Database{}
	for i, name := range []string{"r1", "r2", "r3"} {
		db[name] = datagen.Uniform(newRand(int64(i)), name, datagen.UniformConfig{Rows: 20, Domain: 5, NullFrac: 0.1})
	}
	for _, p := range plans {
		ok, err := Equivalent(q, p, db)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("plan not equivalent: %s", p)
		}
	}
	orders := JoinOrders(plans)
	if len(orders) != 3 {
		t.Errorf("join orders = %v, want all three linear orders", orders)
	}
}

// TestFacadeSupplierOptimization is the E7 integration check through
// the public API: the full optimizer beats the baseline on the
// Example 1.1 workload and stays correct.
func TestFacadeSupplierOptimization(t *testing.T) {
	cfg := datagen.DefaultSupplierConfig
	cfg.DetailRows = 2000
	db := datagen.Supplier(cfg)
	q := datagen.SupplierQuery()
	ctx := context.Background()
	full, err := Optimize(ctx, q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Optimize(ctx, q, db, Options{Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Best.Cost >= base.Best.Cost {
		t.Errorf("full best %.0f should beat baseline %.0f", full.Best.Cost, base.Best.Cost)
	}
	ok, err := Equivalent(q, full.Best.Plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("chosen plan not equivalent")
	}
}

func TestFacadeSimplify(t *testing.T) {
	q, err := Parse("select t.a from t left outer join s on t.a = s.a where s.c >= 0", tinyDB())
	if err != nil {
		t.Fatal(err)
	}
	s := Simplify(q)
	text := ExplainPlan(s)
	if strings.Contains(text, "LOJ") {
		t.Errorf("the filter on s should simplify the outer join:\n%s", text)
	}
}

// TestFacadeLimits: Optimize degrades on an exprs trip and stops on a
// cancelled context; Execute aborts with a typed error on a rows trip.
func TestFacadeLimits(t *testing.T) {
	q := experiments.Query2()
	db := Database{}
	for i, name := range []string{"r1", "r2", "r3"} {
		db[name] = datagen.Uniform(newRand(int64(i)), name, datagen.UniformConfig{Rows: 20, Domain: 5})
	}
	ctx := context.Background()
	res, err := Optimize(ctx, q, db, Options{Limits: Limits{MaxExprs: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == "" {
		t.Error("MaxExprs 1 should degrade the optimization")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Optimize(cancelled, q, db, Options{}); !errors.Is(err, ErrCancelled) {
		t.Errorf("cancelled Optimize: err = %v, want ErrCancelled", err)
	}
	if _, err := Execute(ctx, q, db, Limits{MaxRows: 1}); !guard.IsBudget(err) {
		t.Errorf("MaxRows 1 Execute: err = %v, want a budget error", err)
	}
}

func TestFacadeLoadCSVDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.csv"), []byte("a,b\n1,2\n3,\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ignore.txt"), []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := LoadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(db) != 1 || db["x"].Len() != 2 {
		t.Fatalf("loaded %v", db)
	}
	rows, err := runSQL("select a from x where b = 2", db)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 {
		t.Errorf("rows = %d", rows.Len())
	}
	if _, err := LoadCSVDir(filepath.Join(dir, "nope")); err == nil {
		t.Error("missing dir must fail")
	}
	empty := t.TempDir()
	if _, err := LoadCSVDir(empty); err == nil {
		t.Error("empty dir must fail")
	}
}

// TestFacadePlanSerialization renders a plan as Graphviz DOT.
func TestFacadePlanSerialization(t *testing.T) {
	if s := PlanDOT(experiments.Query2()); !strings.Contains(s, "digraph") {
		t.Error("PlanDOT output wrong")
	}
}

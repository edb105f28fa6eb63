package reorder

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/batch"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/value"
)

// The service executes on the columnar engine. These tests pin what
// that switch must not lose at the serving boundary: executor counters
// land in the service's own registry, base tables are shaped once
// however many requests scan them, ORDER BY answers come back ordered,
// and the feedback loop still sees every node's cardinality.

// supplierSQL is Example 1.1 of the paper; its optimized plan carries a
// generalized selection.
const supplierSQL = "select v2.supkey as supkey, v2.partkey as partkey, v2.qty as qty, v3.aggqty95 as aggqty95 " +
	"from (select agg94.supkey as supkey, agg94.partkey as partkey, agg94.qty as qty " +
	"from agg94, sup_detail where agg94.supkey = sup_detail.supkey and sup_detail.suprating = 'BANKRUPT') as v2 " +
	"left outer join (select supkey, partkey, count(*) as aggqty95 from detail95 group by supkey, partkey) as v3 " +
	"on v2.supkey = v3.supkey and v2.partkey = v3.partkey and v2.qty < 2 * v3.aggqty95"

// execCounters returns the registry's counters under prefix.
func execCounters(reg *obs.Registry, prefix string) map[string]int64 {
	out := map[string]int64{}
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, prefix) {
			out[name] = v
		}
	}
	return out
}

// TestServiceColumnarCountersReachObserver: what the executor counts
// during a request is readable from Service.Observer() afterwards — a
// build/probe swap under feedback, and the row-engine seam a
// generalized selection's padding runs on. Before, both were written
// to obs.Default() and the service reported zero whatever happened.
func TestServiceColumnarCountersReachObserver(t *testing.T) {
	ctx := context.Background()

	svc := feedbackService(t, true, 2)
	if _, err := svc.Query(ctx, Request{SQL: skewQuery}); err != nil {
		t.Fatal(err)
	}
	reg := svc.Observer().Registry
	if n := reg.Snapshot().Counters["exec.adapt.swaps"]; n == 0 {
		t.Error("exec.adapt.swaps = 0 in the service registry after a swapping query")
	}
	// A swap stays inside the columnar kernel; nothing in this plan
	// needs the row engine.
	if fb := execCounters(reg, "exec.vector.fallback."); len(fb) != 0 {
		t.Errorf("swapping query fell back to the row engine: %v", fb)
	}

	gs := newTestService(t, ServiceConfig{DB: datagen.Supplier(datagen.DefaultSupplierConfig)})
	resp, err := gs.Query(ctx, Request{SQL: supplierSQL})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.PlanKey, "GS[") {
		t.Fatalf("test premise: plan carries no generalized selection: %s", resp.PlanKey)
	}
	fb := execCounters(gs.Observer().Registry, "exec.vector.fallback.")
	if fb["exec.vector.fallback.gensel-pad"] != 1 || len(fb) != 1 {
		t.Errorf("fallbacks after one GS-compensated query = %v, want exactly one gensel-pad", fb)
	}
}

// TestServiceColumnarSharedImage: concurrent requests over the same
// tables build each table's columnar image once, and later requests
// build none; a table no query scans gets no image and no statistics.
func TestServiceColumnarSharedImage(t *testing.T) {
	db := serveDB()
	db["ballast"] = relation.NewBuilder("ballast", "x").Row(value.NewInt(1)).Relation()
	builds := obs.Default().Counter("exec.image.builds")
	analyzed := obs.Default().Counter("stats.analyze.tables")
	before, analyzedBefore := builds.Value(), analyzed.Value()
	svc := newTestService(t, ServiceConfig{DB: db, MaxConcurrent: 8, MaxQueue: 64})
	if got := builds.Value() - before; got != 0 {
		t.Fatalf("NewService built %d images; they are built on first scan", got)
	}
	if got := analyzed.Value() - analyzedBefore; got != 0 {
		t.Fatalf("NewService analyzed %d tables; they are analyzed on first use", got)
	}
	ctx := context.Background()
	query := func() {
		if _, err := svc.Query(ctx, Request{SQL: "select t.a, s.c from t, s where t.a = s.a and t.b >= 3"}); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			query()
		}()
	}
	wg.Wait()
	if got := builds.Value() - before; got != 2 {
		t.Fatalf("16 concurrent requests over t and s built %d images, want 2", got)
	}
	query()
	if got := builds.Value() - before; got != 2 {
		t.Fatalf("a later request re-shaped a base table (%d builds)", got)
	}
	if got := analyzed.Value() - analyzedBefore; got != 2 {
		t.Fatalf("requests over t and s analyzed %d tables, want 2 (ballast is never read)", got)
	}
}

// TestServiceColumnarAnalyzeOnce: sixteen concurrent first requests —
// optimized side by side, bypassing the plan cache — analyze each table
// they read exactly once and no other table, and every request gets the
// plan an optimizer over the eagerly analyzed catalog picks.
func TestServiceColumnarAnalyzeOnce(t *testing.T) {
	db := serveDB()
	u := relation.NewBuilder("u", "c", "d")
	for i := 0; i < 12; i++ {
		u.Row(value.NewInt(int64(100+i%4)), value.NewInt(int64(i)))
	}
	db["u"] = u.Relation()
	db["ballast"] = relation.NewBuilder("ballast", "x").Row(value.NewInt(1)).Relation()
	queries := []string{
		"select t.a, s.c from t, s where t.a = s.a and t.b >= 3",
		"select s.a, u.d from s, u where s.c = u.c and u.d < 5",
		"select t.b from t where t.a = 2",
		"select t.a, u.d from t, s, u where t.a = s.a and s.c = u.c",
	}
	eager := optimizer.New(stats.NewEstimator(stats.FromDatabase(db)))
	want := make([]string, len(queries))
	for i, q := range queries {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		tmpl, params := sql.Parameterize(stmt)
		node, err := sql.Lower(tmpl, db)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eager.Optimize(node, db)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := plan.BindParams(res.Best.Plan, params)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = plan.Key(bound)
	}

	analyzed := obs.Default().Counter("stats.analyze.tables")
	before := analyzed.Value()
	svc := newTestService(t, ServiceConfig{DB: db, MaxConcurrent: 16, MaxQueue: 64})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := svc.Query(context.Background(), Request{SQL: queries[i], Cache: "bypass"})
			if err != nil {
				t.Error(err)
				return
			}
			if resp.PlanKey != want[i] {
				t.Errorf("%s: plan %s, eager catalog picks %s", queries[i], resp.PlanKey, want[i])
			}
		}(g % len(queries))
	}
	wg.Wait()
	if got := analyzed.Value() - before; got != 3 {
		t.Fatalf("16 concurrent first requests over t, s and u analyzed %d tables, want 3", got)
	}
}

// orderedKV builds a relation (k, v) physically ascending on k.
func orderedKV(name string, keys, fanout int) *relation.Relation {
	b := relation.NewBuilder(name, "k", "v")
	for i := 0; i < keys; i++ {
		for j := 0; j < fanout; j++ {
			b.Row(value.NewInt(int64(i)), value.NewInt(int64(i*fanout+j)))
		}
	}
	return b.Relation()
}

// orderKey is one ORDER BY key of a result: its column and direction.
type orderKey struct {
	col  int
	desc bool
}

// checkOrdered fails unless resp's rows stand in keys' order under
// plan.SortRows's comparator and, as a multiset, equal plan.Eval of
// query as written over db.
func checkOrdered(t *testing.T, name, query string, db Database, resp *Response, keys ...orderKey) {
	t.Helper()
	for i := 1; i < len(resp.Rows); i++ {
		for _, k := range keys {
			c := plan.CompareForSort(cellValue(resp.Rows[i-1][k.col]), cellValue(resp.Rows[i][k.col]))
			if k.desc {
				c = -c
			}
			if c > 0 {
				t.Fatalf("%s: row %d out of order: %v then %v", name, i, resp.Rows[i-1], resp.Rows[i])
			}
			if c < 0 {
				break
			}
		}
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	node, err := sql.Lower(stmt, db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := node.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, name, want, resp)
}

// sameRows fails unless resp's rows equal want's as a multiset.
func sameRows(t *testing.T, name string, want *relation.Relation, resp *Response) {
	t.Helper()
	count := map[string]int{}
	for _, row := range boxRows(batch.FromRelation(want)) {
		count[fmt.Sprint(row)]++
	}
	for _, row := range resp.Rows {
		count[fmt.Sprint(row)]--
	}
	for row, n := range count {
		if n != 0 {
			t.Fatalf("%s: row %s appears %+d times more in plan.Eval than in the response", name, row, n)
		}
	}
}

// cellValue is jsonValue's inverse.
func cellValue(c any) value.Value {
	switch x := c.(type) {
	case int64:
		return value.NewInt(x)
	case float64:
		return value.NewFloat(x)
	case string:
		return value.NewString(x)
	case bool:
		return value.NewBool(x)
	}
	return value.Null
}

// TestServiceColumnarOrderBy: ORDER BY answers are ordered and hold
// the query's rows, whatever the physical order of the tables: sorted
// on the key (the sort finds its input in order), sorted but for the
// last row, or not sorted at all; ascending, descending, on two keys
// and on a key with NULLs. The plan always carries its root sort.
func TestServiceColumnarOrderBy(t *testing.T) {
	// n is ascending on k with NULLs last; p is ascending but for its
	// last row.
	nb := relation.NewBuilder("n", "k", "v")
	for i := 0; i < 30; i++ {
		k := value.NewInt(int64(i / 3))
		if i >= 24 {
			k = value.Null
		}
		nb.Row(k, value.NewInt(int64(i%7)))
	}
	pb := relation.NewBuilder("p", "k", "v")
	for i := 0; i < 30; i++ {
		pb.Row(value.NewString(fmt.Sprintf("k%03d", i)), value.NewFloat(float64(i)/2))
	}
	pb.Row(value.NewString("k000"), value.NewFloat(-1))
	db := Database{"l": orderedKV("l", 40, 2), "r": orderedKV("r", 40, 3), "n": nb.Relation(), "p": pb.Relation()}
	svc := newTestService(t, ServiceConfig{DB: db})
	ctx := context.Background()
	asc, desc := orderKey{0, false}, orderKey{0, true}
	cases := []struct {
		name, sql string
		keys      []orderKey
	}{
		{"sorted scan", "select l.k, l.v from l where l.v >= 0 order by l.k", []orderKey{asc}},
		{"join", "select l.k, l.v, r.v as rv from l, r where l.k = r.k and l.v >= 3 order by l.k", []orderKey{asc}},
		{"group by", "select l.k, count(*) as n from l group by l.k order by l.k", []orderKey{asc}},
		{"join and group by", "select l.k, count(*) as n from l, r where l.k = r.k group by l.k order by l.k", []orderKey{asc}},
		{"desc", "select l.k, l.v, r.v as rv from l, r where l.k = r.k and l.v >= 3 order by rv desc", []orderKey{{2, true}}},
		{"two keys", "select l.k, l.v from l order by l.k desc, l.v", []orderKey{desc, {1, false}}},
		{"null key", "select n.k, n.v from n order by n.k", []orderKey{asc}},
		{"null key desc", "select n.k, n.v from n order by n.k desc", []orderKey{desc}},
		{"null key, two keys", "select n.k, n.v from n order by n.k, n.v desc", []orderKey{asc, {1, true}}},
		{"last row out of order", "select p.k, p.v from p order by p.k", []orderKey{asc}},
		{"last row out of order, two keys", "select p.k, p.v from p order by p.k, p.v", []orderKey{asc, {1, false}}},
	}
	for _, c := range cases {
		resp, err := svc.Query(ctx, Request{SQL: c.sql})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(resp.PlanKey, "SORT[") {
			t.Fatalf("%s: test premise: plan is %s", c.name, resp.PlanKey)
		}
		if len(resp.Rows) == 0 {
			t.Fatalf("%s: test premise: no rows", c.name)
		}
		checkOrdered(t, c.name, c.sql, db, resp, c.keys...)
	}
}

// TestServiceColumnarOrderByAfterAppend: a table appended to after its
// first ORDER BY request is answered in order — from the cached plan
// and from a fresh optimization alike. The order comes from the rows
// the sort reads, not from statistics taken before the append.
func TestServiceColumnarOrderByAfterAppend(t *testing.T) {
	l := orderedKV("l", 10, 1)
	db := Database{"l": l}
	svc := newTestService(t, ServiceConfig{DB: db})
	ctx := context.Background()
	const query = "select k, v from l where v >= 0 order by k"
	resp, err := svc.Query(ctx, Request{SQL: query})
	if err != nil {
		t.Fatal(err)
	}
	checkOrdered(t, "before the append", query, db, resp, orderKey{0, false})
	l.Append(relation.Tuple{value.NewInt(-5), value.NewInt(100), value.NewInt(10)})
	for _, cache := range []string{"", "bypass"} {
		resp, err := svc.Query(ctx, Request{SQL: query, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Rows) != 11 {
			t.Fatalf("cache %q: %d rows after the append, want 11", cache, len(resp.Rows))
		}
		checkOrdered(t, "cache "+resp.CacheStatus, query, db, resp, orderKey{0, false})
	}
}

// TestServiceColumnarFeedbackCorrections: the annotations the columnar
// RunInstrumentedAdaptive returns cover every node of the bound plan,
// so one request records one correction per composite subtree of its
// plan — what the row engine's annotations gave the loop before.
func TestServiceColumnarFeedbackCorrections(t *testing.T) {
	svc := feedbackService(t, true, 100) // never re-plan: one plan throughout
	stmt, err := sql.Parse(skewQuery)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, params := sql.Parameterize(stmt)
	node, err := sql.Lower(tmpl, svc.db)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := svc.optimizeTemplate(node, params, nil, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	composite := 0
	plan.Walk(cp.plan, func(n plan.Node) {
		if len(n.Children()) > 0 {
			composite++
		}
	})
	if composite < 4 {
		t.Fatalf("test premise: plan has only %d composite nodes", composite)
	}
	for i := 1; i <= 3; i++ {
		if _, err := svc.Query(context.Background(), Request{SQL: skewQuery}); err != nil {
			t.Fatal(err)
		}
		got := svc.Observer().Registry.Snapshot().Counters["feedback.corrections"]
		if got != int64(i*composite) {
			t.Fatalf("after %d requests feedback.corrections = %d, want %d (%d composite nodes each)",
				i, got, i*composite, composite)
		}
	}
}

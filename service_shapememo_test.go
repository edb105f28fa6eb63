package reorder

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/value"
)

// shapeMemoDB is the hit_point chain data: r1..r7(x, y), 50 rows over
// a 50-value domain.
func shapeMemoDB() Database {
	return datagen.Chain(7, datagen.UniformConfig{Rows: 50, Domain: 50, NullFrac: 0.05}, 1996)
}

// hitPointShapes are the hit_point templates, one %v verb each.
var hitPointShapes = []struct{ name, text string }{
	{"inner5", "select r1.x, r5.y from r1, r2, r3, r4, r5 " +
		"where r1.x = r2.x and r2.y = r3.y and r3.x = r4.x and r4.y = r5.y and r1.y < %v"},
	{"loj5_complex", "select r1.x, r5.y from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
		"left join r4 on r3.x = r4.x and r4.y >= r1.y left join r5 on r4.y = r5.y where r1.y < %v"},
	{"mix4_groupby", "select r1.y, count(*) as n from r1 join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
		"left join r4 on r3.x = r4.x where r1.x < %v group by r1.y"},
	{"corr_count", "select r1.x from r1 where r1.y < %v and r1.x >= (select count(*) from r2 where r2.y = r1.y)"},
	{"loj3_groupby", "select r1.y, count(*) as n from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
		"where r1.x >= %v group by r1.y"},
}

// shapeMemoQueries is the differential's request list: the hit_point
// and churn-style templates swept over literals of every kind, shapes
// whose slot maps are not the identity (BETWEEN's duplicated operand,
// IN's desugaring, LIMIT), generated join queries, and bad queries —
// among them a memoized shape whose literal does not convert.
func shapeMemoQueries() []string {
	var qs []string
	lits := []string{"4", "11", "0", "-0", "2.5", "1.", "99999999999999999999", "9223372036854775807", "'7'", "''"}
	for _, sh := range hitPointShapes {
		for _, l := range lits {
			qs = append(qs, fmt.Sprintf(sh.text, l))
		}
		qs = append(qs, fmt.Sprintf(sh.text, "1.2.3"), fmt.Sprintf(sh.text, "7"))
	}
	for i, chain := range [][]int{{1, 2, 3, 4}, {3, 6, 2, 7}, {5, 1, 4, 2}} {
		r := func(j int) string { return fmt.Sprintf("r%d", chain[j]) }
		var b strings.Builder
		fmt.Fprintf(&b, "select %s.x as a, %s.y as b from %s", r(0), r(3), r(0))
		for j := 1; j < 4; j++ {
			col := []string{"x", "y"}[j%2]
			fmt.Fprintf(&b, " left join %s on %s.%s = %s.%s", r(j), r(j-1), col, r(j), col)
		}
		fmt.Fprintf(&b, " where %s.y = %%d", r(0))
		for c := 0; c < 3; c++ {
			qs = append(qs, fmt.Sprintf(b.String(), (c+i)%3))
		}
	}
	for _, text := range []string{
		"select r1.x from r1 where r1.y between %d and %d",
		"select r1.x from r1 where %d between r1.x and r1.y and r1.y < %d",
		"select r1.x, r1.y from r1 where r1.y in (%d, 3, %d)",
		"select r1.x from r1, r2 where r1.x = r2.x and r2.y = %d order by r1.x limit %d",
		"SELECT R1.X FROM R1 -- a comment 'x'\n WHERE r1.Y >= %d AND r1.x < %d",
	} {
		for _, v := range [][2]int{{3, 20}, {20, 3}, {1, 1}, {7, 40}} {
			qs = append(qs, fmt.Sprintf(text, v[0], v[1]))
		}
	}
	rng := rand.New(rand.NewSource(1996))
	for seed := 1; seed <= 25; seed++ {
		q, _ := datagen.RandomJoinQuery(rand.New(rand.NewSource(int64(seed))))
		for c := 0; c < 3; c++ {
			qs = append(qs, joinSQL(q, func() string { return fmt.Sprint(rng.Intn(4)) }))
		}
	}
	return append(qs,
		"select r1.x from nosuch where nosuch.y = 3",
		"select r1.x from nosuch where nosuch.y = 4",
		"select from r1",
		"select r1.x from r1 where r1.y = 'open",
		"select r1.x from r1 where r1.y = 3 limit 1.5",
		"select r1.x from r1 where r1.y = 3 @",
	)
}

// joinSQL renders a datagen.RandomJoinQuery tree as SQL: a left-deep
// FROM clause in which a composite right operand becomes a derived
// table whose columns are renamed rel_col. lit renders each constant.
func joinSQL(n plan.Node, lit func() string) string {
	views := 0
	var from func(n plan.Node) (string, map[string]string)
	from = func(n plan.Node) (string, map[string]string) {
		switch x := n.(type) {
		case *plan.Scan:
			return x.Rel, map[string]string{x.Rel + ".x": x.Rel + ".x", x.Rel + ".y": x.Rel + ".y"}
		case *plan.Join:
			lf, scope := from(x.L)
			rf, rs := from(x.R)
			if _, ok := x.R.(*plan.Scan); !ok {
				views++
				alias := fmt.Sprintf("v%d", views)
				rf = fmt.Sprintf("(select %s from %s) as %s", selectList(rs), rf, alias)
				for a := range rs {
					rs[a] = alias + "." + strings.ReplaceAll(a, ".", "_")
				}
			}
			for a, name := range rs {
				scope[a] = name
			}
			kw := map[plan.JoinKind]string{plan.InnerJoin: "join", plan.LeftJoin: "left join", plan.RightJoin: "right join", plan.FullJoin: "full join"}[x.Kind]
			return fmt.Sprintf("%s %s %s on %s", lf, kw, rf, predSQL(x.Pred, scope, lit)), scope
		default:
			panic(fmt.Sprintf("joinSQL: unexpected node %T", n))
		}
	}
	f, scope := from(n)
	return "select " + selectList(scope) + " from " + f
}

// selectList renders scope's columns, sorted, each aliased rel_col.
func selectList(scope map[string]string) string {
	attrs := make([]string, 0, len(scope))
	for a := range scope {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for i, a := range attrs {
		attrs[i] = scope[a] + " as " + strings.ReplaceAll(a, ".", "_")
	}
	return strings.Join(attrs, ", ")
}

func predSQL(p expr.Pred, scope map[string]string, lit func() string) string {
	scalar := func(s expr.Scalar) string {
		switch x := s.(type) {
		case expr.Col:
			return scope[x.Attr.String()]
		case expr.Const:
			return lit()
		default:
			panic(fmt.Sprintf("predSQL: unexpected scalar %T", s))
		}
	}
	switch x := p.(type) {
	case expr.Cmp:
		return scalar(x.L) + " " + x.Op.String() + " " + scalar(x.R)
	case expr.Conj:
		parts := make([]string, len(x.Preds))
		for i, q := range x.Preds {
			parts[i] = predSQL(q, scope, lit)
		}
		return strings.Join(parts, " and ")
	default:
		panic(fmt.Sprintf("predSQL: unexpected predicate %T", p))
	}
}

// served is what a request's client sees, normalized for comparison:
// the row multiset is sorted.
type served struct {
	code, msg string
	planKey   string
	params    int
	columns   string
	rows      string
}

func servedOf(resp *Response, columns []string, rows [][]any, err error) served {
	if err != nil {
		se := &ServeError{}
		if !errors.As(err, &se) {
			return served{code: "untyped", msg: err.Error()}
		}
		return served{code: se.Code, msg: se.Error()}
	}
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = fmt.Sprintf("%#v", r)
	}
	sort.Strings(lines)
	return served{planKey: resp.PlanKey, params: resp.Params, columns: strings.Join(columns, ","), rows: strings.Join(lines, "\n")}
}

// viaFrontEnd serves q as the service did before the shape memo: Parse
// → Parameterize → Lower → key, the winner from svc's plan cache (built
// if absent), BindParams, plan.Key of the bound tree, execution.
func viaFrontEnd(svc *Service, q string) served {
	fail := func(err error, parseStage bool) served { return servedOf(nil, nil, nil, classify(err, parseStage)) }
	stmt, err := sql.Parse(q)
	if err != nil {
		return fail(err, true)
	}
	tmpl, params := sql.Parameterize(stmt)
	node, err := sql.Lower(tmpl, svc.db)
	if err != nil {
		return fail(err, true)
	}
	key := plan.Key(node)
	reg := obs.NewRegistry()
	b := guard.New(context.Background(), Limits{}, reg)
	entry, _, err := svc.cache.Do(context.Background(), key, plan.Fingerprint(node), svc.fillCache(key, node, params, nil, b, reg))
	if err != nil {
		return fail(err, false)
	}
	bound, err := plan.BindParams(entry.Value.(*cachedPlan).plan, params)
	if err != nil {
		return fail(err, false)
	}
	rel, _, err := executor.Exec(bound, svc.db, executor.Options{Budget: b})
	if err != nil {
		return fail(err, false)
	}
	var cols []string
	for _, a := range rel.Schema.Attrs() {
		cols = append(cols, a.String())
	}
	return servedOf(&Response{PlanKey: plan.Key(bound), Params: len(params)}, cols, boxRows(rel), nil)
}

// checkShapeMemo serves q through the service and through the full
// front end and reports any difference: plan key, parameter count,
// columns, row multiset, error code and message. For a query the front
// end accepts it also checks the template and parameters the memo
// resolved.
func checkShapeMemo(t *testing.T, svc *Service, q string) (ok bool) {
	resp, err := svc.Query(context.Background(), Request{SQL: q})
	var got served
	if err != nil {
		got = servedOf(nil, nil, nil, err)
	} else {
		got = servedOf(resp, resp.Columns, resp.Rows, nil)
	}
	want := viaFrontEnd(svc, q)
	if got != want {
		t.Errorf("%q:\n  memo      %+v\n  front end %+v", q, got, want)
		return false
	}
	if want.code != "" {
		return true
	}
	tpl, params, err := svc.frontEnd(Request{SQL: q})
	stmt, _ := sql.Parse(q)
	tmpl, wantParams := sql.Parameterize(stmt)
	node, _ := sql.Lower(tmpl, svc.db)
	if err != nil || tpl.key != plan.Key(node) || tpl.hash != plan.Fingerprint(node) || fmt.Sprint(params) != fmt.Sprint(wantParams) {
		t.Errorf("%q: memo resolved template %q params %v (err %v), front end %q params %v", q, tpl.key, params, err, plan.Key(node), wantParams)
		return false
	}
	return true
}

// TestServiceShapeMemoMatchesFrontEnd is the shape memo's differential:
// every request, whether its shape is new, memoized, or memoized with a
// literal that fails to convert, is served exactly as the full front
// end serves it.
func TestServiceShapeMemoMatchesFrontEnd(t *testing.T) {
	svc := newTestService(t, ServiceConfig{DB: shapeMemoDB()})
	queries := shapeMemoQueries()
	failed := 0
	for _, q := range queries {
		if !checkShapeMemo(t, svc, q) {
			failed++
		}
		if failed > 5 {
			t.Fatal("too many differences")
		}
	}
	d := svc.CacheDebug()
	if d.ShapeHits < int64(len(queries))/2 {
		t.Errorf("shape memo hits %d of %d requests: the sweeps must hit", d.ShapeHits, len(queries))
	}
	// A memoized shape with an unconvertible literal falls back to the
	// front end and fails like it, counted as a miss.
	q := fmt.Sprintf(hitPointShapes[0].text, "1.2.3")
	before := svc.CacheDebug()
	if _, err := svc.Query(context.Background(), Request{SQL: q}); err == nil || err.(*ServeError).Code != "bad_query" {
		t.Fatalf("%q: err %v, want bad_query", q, err)
	}
	after := svc.CacheDebug()
	if after.ShapeHits != before.ShapeHits || after.ShapeMisses != before.ShapeMisses+1 || after.ShapeEntries != before.ShapeEntries {
		t.Errorf("unconvertible literal moved the memo: %+v → %+v", before, after)
	}
}

// TestServiceShapeMemoConcurrent runs the differential from several
// goroutines at once over one service, each in its own order, so that
// memo fills, hits and plan-cache builds race.
func TestServiceShapeMemoConcurrent(t *testing.T) {
	svc := newTestService(t, ServiceConfig{DB: shapeMemoDB(), MaxConcurrent: 4, MaxQueue: 64})
	queries := shapeMemoQueries()
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(g))).Perm(len(queries))
			for _, i := range order {
				if !checkShapeMemo(t, svc, queries[i]) {
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServiceCacheDebugShapeMemo: /debug/cache reports the shape memo;
// a hit resolves the memoized template itself — the same node, so its
// cached keys — and bypass requests neither read nor fill the memo.
func TestServiceCacheDebugShapeMemo(t *testing.T) {
	svc := newTestService(t, ServiceConfig{DB: shapeMemoDB()})
	ctx := context.Background()
	text := hitPointShapes[1].text
	for i := 0; i < 5; i++ {
		if _, err := svc.Query(ctx, Request{SQL: fmt.Sprintf(text, 4+i)}); err != nil {
			t.Fatal(err)
		}
	}
	d := svc.CacheDebug()
	if d.ShapeEntries != 1 || d.ShapeHits != 4 || d.ShapeMisses != 1 {
		t.Fatalf("after five requests of one shape: entries=%d hits=%d misses=%d, want 1/4/1", d.ShapeEntries, d.ShapeHits, d.ShapeMisses)
	}
	a, _, _ := svc.frontEnd(Request{SQL: fmt.Sprintf(text, 9)})
	b, params, _ := svc.frontEnd(Request{SQL: fmt.Sprintf(text, 10)})
	if a != b || len(params) != 1 || params[0] != value.NewInt(10) {
		t.Fatalf("memo hit did not reuse the template: %p %p params %v", a, b, params)
	}
	d = svc.CacheDebug()
	for i := 0; i < 3; i++ {
		if _, err := svc.Query(ctx, Request{SQL: fmt.Sprintf(hitPointShapes[0].text, 4+i), Cache: "bypass"}); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Query(ctx, Request{SQL: fmt.Sprintf(text, 4+i), Cache: "bypass"}); err != nil {
			t.Fatal(err)
		}
	}
	if e := svc.CacheDebug(); e.ShapeEntries != d.ShapeEntries || e.ShapeHits != d.ShapeHits || e.ShapeMisses != d.ShapeMisses {
		t.Fatalf("bypass requests touched the memo: entries/hits/misses %d/%d/%d → %d/%d/%d",
			d.ShapeEntries, d.ShapeHits, d.ShapeMisses, e.ShapeEntries, e.ShapeHits, e.ShapeMisses)
	}

	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/cache", nil))
	var wire struct {
		Entries int   `json:"shape_entries"`
		Hits    int64 `json:"shape_hits"`
		Misses  int64 `json:"shape_misses"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Entries != 1 || wire.Hits != 6 || wire.Misses != 1 {
		t.Fatalf("/debug/cache shape memo %+v, want 1 entry, 6 hits, 1 miss: %s", wire, rec.Body)
	}
}

// TestShapeMemoBounded: the memo never holds more than shapeMemoCap
// shapes, and refreshing a present shape evicts nothing.
func TestShapeMemoBounded(t *testing.T) {
	var m shapeMemo
	tpl := &template{}
	for i := 0; i < shapeMemoCap+100; i++ {
		m.put([]byte(fmt.Sprint(i)), tpl)
	}
	if n := m.len(); n != shapeMemoCap {
		t.Fatalf("memo holds %d shapes, cap %d", n, shapeMemoCap)
	}
	var present string
	for k := range m.m {
		present = k
		break
	}
	m.put([]byte(present), tpl)
	if n := m.len(); n != shapeMemoCap || m.get([]byte(present)) != tpl {
		t.Fatalf("refreshing a present shape changed the memo: %d shapes", n)
	}
}

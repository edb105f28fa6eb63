// End-to-end pins for a root ORDER BY: whatever the physical order of
// the base tables, the winner is exactly one enforcer sort at the root
// over the order-free winner. Lives in the external package alongside
// memo_test.go.
package optimizer_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/value"
)

// orderedRel builds a relation named name with columns (k, v) whose k
// column is physically ascending with the given fan-out (duplicates
// per key).
func orderedRel(name string, keys, fanout int) *relation.Relation {
	b := relation.NewBuilder(name, "k", "v")
	for i := 0; i < keys; i++ {
		for j := 0; j < fanout; j++ {
			b.Row(value.NewInt(int64(i)), value.NewInt(int64(i*fanout+j)))
		}
	}
	return b.Relation()
}

// shuffledRel is orderedRel with the rows permuted so no prefix is
// sorted (deterministic LCG permutation).
func shuffledRel(name string, keys, fanout int) *relation.Relation {
	n := keys * fanout
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	// Deterministic shuffle: multiply-and-mod walk over the rows.
	for i := n - 1; i > 0; i-- {
		j := (i*7 + 3) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	b := relation.NewBuilder(name, "k", "v")
	for _, p := range perm {
		b.Row(value.NewInt(int64(p/fanout)), value.NewInt(int64(p)))
	}
	return b.Relation()
}

// orderedJoinQuery is SELECT * FROM l JOIN r ON l.k = r.k ORDER BY
// l.k.
func orderedJoinQuery() *plan.Sort {
	j := plan.NewJoin(plan.InnerJoin, expr.EqCols("l", "k", "r", "k"),
		plan.NewScan("l"), plan.NewScan("r"))
	keys := []plan.SortKey{{Attr: schema.Attr("l", "k")}}
	return plan.NewSortOrigin(keys, -1, j, plan.SortOriginQuery)
}

func optimizeOrdered(t *testing.T, q plan.Node, db plan.Database) (*optimizer.Result, map[string]int64) {
	t.Helper()
	reg := obs.NewRegistry()
	est := stats.NewEstimator(stats.FromDatabase(db))
	o := optimizer.New(est)
	o.Opts.Obs = reg
	res, err := o.Optimize(q, db)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return res, reg.Snapshot().Counters
}

// countSorts walks a plan counting Sort nodes by origin.
func countSorts(n plan.Node) (enforcer, query, other int) {
	plan.Walk(n, func(m plan.Node) {
		if s, ok := m.(*plan.Sort); ok {
			switch s.Origin {
			case plan.SortOriginEnforcer:
				enforcer++
			case plan.SortOriginQuery:
				query++
			default:
				other++
			}
		}
	})
	return
}

// checkRootSort pins the one rule: res's winner is an enforcer sort on
// q's keys at the root, no other sort anywhere, over exactly the plan
// the optimizer picks for q without its ORDER BY; Result.Order, the
// counters and EXPLAIN report the one enforcer; and the winner returns
// q's rows, in order, on the row engine and the columnar engine alike.
func checkRootSort(t *testing.T, q *plan.Sort, db plan.Database) {
	t.Helper()
	res, counters := optimizeOrdered(t, q, db)
	root, ok := res.Best.Plan.(*plan.Sort)
	if !ok || root.Origin != plan.SortOriginEnforcer || root.Limit >= 0 {
		t.Fatalf("winner root is not an enforcer sort:\n%s", plan.Indent(res.Best.Plan))
	}
	if enf, qry, other := countSorts(res.Best.Plan); enf != 1 || qry != 0 || other != 0 {
		t.Fatalf("want one sort in the plan, got enforcer=%d query=%d other=%d:\n%s",
			enf, qry, other, plan.Indent(res.Best.Plan))
	}
	free, _ := optimizeOrdered(t, q.Input, db)
	if plan.Key(root.Input) != plan.Key(free.Best.Plan) {
		t.Fatalf("sorted plan is not the order-free winner:\n%s\nwant under the sort:\n%s",
			plan.Indent(root.Input), plan.Indent(free.Best.Plan))
	}
	if res.Order == nil || res.Order.Enforced != 1 || fmt.Sprint(res.Order.Required) != fmt.Sprint(plan.Order(q.Keys)) {
		t.Fatalf("Result.Order = %+v, want required %v enforced 1", res.Order, q.Keys)
	}
	if counters["memo.order.enforced"] != 1 {
		t.Errorf("memo.order.enforced = %d, want 1", counters["memo.order.enforced"])
	}
	if !strings.Contains(optimizer.Explain(res), "(enforced 1)") {
		t.Errorf("EXPLAIN lacks the enforcer provenance:\n%s", optimizer.Explain(res))
	}
	if err := plan.Validate(res.Best.Plan, db); err != nil {
		t.Fatalf("winner fails validation: %v\n%s", err, plan.Indent(res.Best.Plan))
	}
	want, err := q.Eval(db)
	if err != nil {
		t.Fatalf("reference eval: %v", err)
	}
	ran, err := executor.Run(res.Best.Plan, db)
	if err != nil {
		t.Fatalf("executing winner: %v", err)
	}
	col, _, err := executor.Exec(res.Best.Plan, db, executor.Options{})
	if err != nil {
		t.Fatalf("executing winner columnar: %v", err)
	}
	for engine, got := range map[string]*relation.Relation{"Run": ran, "Exec": col.ToRelation()} {
		if !got.EqualAsMultisets(want) {
			t.Fatalf("%s: winner output differs from reference as a multiset", engine)
		}
		for i := 1; i < got.Len(); i++ {
			for _, k := range q.Keys {
				ki := got.Schema().IndexOf(k.Attr)
				c := plan.CompareForSort(got.Tuple(i - 1)[ki], got.Tuple(i)[ki])
				if k.Desc {
					c = -c
				}
				if c > 0 {
					t.Fatalf("%s: output not sorted on %s at row %d", engine, k, i)
				}
				if c < 0 {
					break
				}
			}
		}
	}
}

// TestOrderBySortedInputsIsOneRootSort: over tables already sorted on
// the key — where merge join and streaming aggregation would deliver
// the order for free — the winner is still one root sort over the
// order-free winner; the columnar sort hands input that arrives in
// order on unchanged after one pass of comparisons, which is what
// makes that sort cheap.
func TestOrderBySortedInputsIsOneRootSort(t *testing.T) {
	t.Run("join", func(t *testing.T) {
		db := plan.Database{
			"l": orderedRel("l", 40, 2),
			"r": orderedRel("r", 40, 3),
		}
		checkRootSort(t, orderedJoinQuery(), db)
	})
	t.Run("groupby", func(t *testing.T) {
		b := relation.NewBuilder("s", "k", "v")
		for i := 0; i < 200; i++ {
			b.Row(value.NewString(fmt.Sprintf("key-%08d", i)), value.NewInt(int64((i*2654435761)%1000)))
		}
		db := plan.Database{"s": b.Relation()}
		k := schema.Attr("s", "k")
		g := plan.NewGroupBy([]schema.Attribute{k},
			[]algebra.Aggregate{
				{Func: algebra.CountStar, Out: schema.Attr("q", "n")},
				{Func: algebra.Sum, Arg: expr.Column("s", "v"), Out: schema.Attr("q", "s"), NullIfEmpty: true},
			},
			plan.NewScan("s"))
		checkRootSort(t, plan.NewSortOrigin([]plan.SortKey{{Attr: k}}, -1, g, plan.SortOriginQuery), db)
	})
}

// TestOrderEnforcedOnUnsortedInputs: with unsorted base tables the
// winner is the same shape — one root enforcer over the order-free
// winner — and its rows come back in order.
func TestOrderEnforcedOnUnsortedInputs(t *testing.T) {
	db := plan.Database{
		"l": shuffledRel("l", 40, 2),
		"r": shuffledRel("r", 40, 3),
	}
	checkRootSort(t, orderedJoinQuery(), db)
}

// TestOrderEnforcerAtRootForThetaJoin: a non-equi join, sorted
// descending on one key and ascending on the next, gets the same one
// root enforcer.
func TestOrderEnforcerAtRootForThetaJoin(t *testing.T) {
	db := plan.Database{
		"l": shuffledRel("l", 10, 2),
		"r": shuffledRel("r", 10, 2),
	}
	pred := expr.Cmp{Op: value.LT, L: expr.Column("l", "k"), R: expr.Column("r", "k")}
	j := plan.NewJoin(plan.InnerJoin, pred, plan.NewScan("l"), plan.NewScan("r"))
	keys := []plan.SortKey{{Attr: schema.Attr("l", "k"), Desc: true}, {Attr: schema.Attr("r", "v")}}
	checkRootSort(t, plan.NewSortOrigin(keys, -1, j, plan.SortOriginQuery), db)
}

// TestOrderTopKKeepsRootSort: ORDER BY ... LIMIT k is not stripped
// into a required property — the top-K sort stays at the root and the
// plan below optimizes order-free.
func TestOrderTopKKeepsRootSort(t *testing.T) {
	db := plan.Database{
		"l": orderedRel("l", 40, 2),
		"r": orderedRel("r", 40, 3),
	}
	j := plan.NewJoin(plan.InnerJoin, expr.EqCols("l", "k", "r", "k"),
		plan.NewScan("l"), plan.NewScan("r"))
	keys := []plan.SortKey{{Attr: schema.Attr("l", "k")}}
	q := plan.NewSortOrigin(keys, 5, j, plan.SortOriginQuery)
	res, counters := optimizeOrdered(t, q, db)

	if res.Order != nil {
		t.Fatalf("top-K query should not set Result.Order, got %+v", res.Order)
	}
	if counters["memo.order.enforced"] != 0 {
		t.Errorf("memo.order.enforced = %d, want 0", counters["memo.order.enforced"])
	}
	root, ok := res.Best.Plan.(*plan.Sort)
	if !ok {
		t.Fatalf("top-K winner root is %T, want *plan.Sort:\n%s", res.Best.Plan, plan.Indent(res.Best.Plan))
	}
	if root.Limit != 5 {
		t.Fatalf("root sort limit = %d, want 5", root.Limit)
	}
	got, err := executor.Run(res.Best.Plan, db)
	if err != nil {
		t.Fatalf("executing winner: %v", err)
	}
	if got.Len() != 5 {
		t.Fatalf("top-K returned %d rows, want 5", got.Len())
	}
}

// TestOrderFreeQueriesUnchanged: queries without a root ORDER BY must
// be untouched by the order rule — no Order info (their best cost is
// pinned against the saturate-and-rank oracle by
// TestMemoMatchesSaturate; this pins the counters stay silent).
func TestOrderFreeQueriesUnchanged(t *testing.T) {
	db := memoTestDB(3)
	res, counters := optimizeOrdered(t, memoQuery2(), db)
	if res.Order != nil {
		t.Fatalf("order-free query set Result.Order: %+v", res.Order)
	}
	if c := counters["memo.order.enforced"]; c != 0 {
		t.Errorf("memo.order.enforced = %d, want 0 on an order-free query", c)
	}
}

// End-to-end pins for the order-aware memo: a root ORDER BY over
// sorted base tables must be satisfied by a merge join or a streaming
// aggregation with zero enforcer sorts, while unsorted inputs get
// exactly one enforcer at the root. Lives in the external package
// alongside memo_test.go.
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
// l.k — the redundant-sort shape: a merge join on k delivers the
// required order for free.
func orderedJoinQuery() plan.Node {
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

// TestOrderEliminatedBySortedMerge: with both inputs physically
// sorted on the join key, the optimizer must satisfy ORDER BY l.k
// with a merge join and no sort anywhere in the plan, and the
// executed output must match the reference evaluation and be
// physically ordered.
func TestOrderEliminatedBySortedMerge(t *testing.T) {
	db := plan.Database{
		"l": orderedRel("l", 40, 2),
		"r": orderedRel("r", 40, 3),
	}
	q := orderedJoinQuery()
	res, counters := optimizeOrdered(t, q, db)

	if res.Order == nil {
		t.Fatal("Result.Order is nil: root ORDER BY was not pushed into the memo")
	}
	if !res.Order.Eliminated() {
		t.Fatalf("order requirement not eliminated (enforced=%d):\n%s",
			res.Order.Enforced, plan.Indent(res.Best.Plan))
	}
	if !res.Order.Delivered.Satisfies(res.Order.Required) {
		t.Fatalf("delivered %s does not satisfy required %s",
			res.Order.Delivered, res.Order.Required)
	}
	enf, qry, other := countSorts(res.Best.Plan)
	if enf != 0 || qry != 0 || other != 0 {
		t.Fatalf("expected a sort-free plan, got enforcer=%d query=%d other=%d:\n%s",
			enf, qry, other, plan.Indent(res.Best.Plan))
	}
	var merges int
	plan.Walk(res.Best.Plan, func(m plan.Node) {
		if _, ok := m.(*plan.MergeJoin); ok {
			merges++
		}
	})
	if merges != 1 {
		t.Fatalf("expected exactly one merge join, got %d:\n%s", merges, plan.Indent(res.Best.Plan))
	}
	if counters["memo.order.required"] != 1 {
		t.Errorf("memo.order.required = %d, want 1", counters["memo.order.required"])
	}
	if counters["memo.order.eliminated"] != 1 || counters["memo.order.enforced"] != 0 {
		t.Errorf("order counters: eliminated=%d enforced=%d, want 1/0",
			counters["memo.order.eliminated"], counters["memo.order.enforced"])
	}
	if err := plan.Validate(res.Best.Plan, db); err != nil {
		t.Fatalf("winner fails validation: %v\n%s", err, plan.Indent(res.Best.Plan))
	}

	// Execute and pin against the reference evaluation of the query.
	got, err := executor.Run(res.Best.Plan, db)
	if err != nil {
		t.Fatalf("executing winner: %v", err)
	}
	want, err := q.Eval(db)
	if err != nil {
		t.Fatalf("reference eval: %v", err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("winner returned %d rows, reference %d", got.Len(), want.Len())
	}
	if !got.EqualAsMultisets(want) {
		t.Fatal("winner output differs from reference as a multiset")
	}
	// The stream must actually be sorted on l.k.
	ki := got.Schema().IndexOf(schema.Attr("l", "k"))
	for i := 1; i < got.Len(); i++ {
		if plan.CompareForSort(got.Tuple(i - 1)[ki], got.Tuple(i)[ki]) > 0 {
			t.Fatalf("output not sorted on l.k at row %d", i)
		}
	}
	if !strings.Contains(optimizer.Explain(res), "(eliminated)") {
		t.Errorf("EXPLAIN lacks the eliminated provenance:\n%s", optimizer.Explain(res))
	}
}

// TestOrderEliminatedByStreamAgg: GROUP BY k ORDER BY k over a
// relation physically sorted on a string key must be satisfied by one
// streaming aggregation and no sort anywhere in the plan; the output
// must match the reference evaluation and be ordered on k.
func TestOrderEliminatedByStreamAgg(t *testing.T) {
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
	q := plan.NewSortOrigin([]plan.SortKey{{Attr: k}}, -1, g, plan.SortOriginQuery)
	res, counters := optimizeOrdered(t, q, db)

	if res.Order == nil {
		t.Fatal("Result.Order is nil: root ORDER BY was not pushed into the memo")
	}
	enf, qry, other := countSorts(res.Best.Plan)
	if enf != 0 || qry != 0 || other != 0 {
		t.Fatalf("expected a sort-free plan, got enforcer=%d query=%d other=%d:\n%s",
			enf, qry, other, plan.Indent(res.Best.Plan))
	}
	var streams int
	plan.Walk(res.Best.Plan, func(m plan.Node) {
		if _, ok := m.(*plan.StreamAgg); ok {
			streams++
		}
	})
	if streams != 1 {
		t.Fatalf("expected exactly one streaming aggregation, got %d:\n%s", streams, plan.Indent(res.Best.Plan))
	}
	if counters["memo.order.eliminated"] != 1 || counters["memo.order.enforced"] != 0 {
		t.Errorf("order counters: eliminated=%d enforced=%d, want 1/0",
			counters["memo.order.eliminated"], counters["memo.order.enforced"])
	}
	if !strings.Contains(optimizer.Explain(res), "(eliminated)") {
		t.Errorf("EXPLAIN lacks the eliminated provenance:\n%s", optimizer.Explain(res))
	}
	if err := plan.Validate(res.Best.Plan, db); err != nil {
		t.Fatalf("winner fails validation: %v\n%s", err, plan.Indent(res.Best.Plan))
	}

	got, err := executor.Run(res.Best.Plan, db)
	if err != nil {
		t.Fatalf("executing winner: %v", err)
	}
	want, err := q.Eval(db)
	if err != nil {
		t.Fatalf("reference eval: %v", err)
	}
	if !got.EqualAsMultisets(want) {
		t.Fatal("winner output differs from reference as a multiset")
	}
	ki := got.Schema().IndexOf(k)
	for i := 1; i < got.Len(); i++ {
		if plan.CompareForSort(got.Tuple(i - 1)[ki], got.Tuple(i)[ki]) > 0 {
			t.Fatalf("output not sorted on s.k at row %d", i)
		}
	}
}

// TestOrderEnforcedOnUnsortedInputs: with unsorted base tables the
// requirement cannot be eliminated — the winner carries at least one
// enforcer sort (either a root enforcer over a hash join or
// sort-both-inputs feeding a merge join, whichever costs less) and
// Result.Order reports the exact count the plan carries.
func TestOrderEnforcedOnUnsortedInputs(t *testing.T) {
	db := plan.Database{
		"l": shuffledRel("l", 40, 2),
		"r": shuffledRel("r", 40, 3),
	}
	q := orderedJoinQuery()
	res, counters := optimizeOrdered(t, q, db)

	if res.Order == nil {
		t.Fatal("Result.Order is nil")
	}
	if res.Order.Eliminated() {
		t.Fatalf("requirement reported eliminated on unsorted inputs:\n%s", plan.Indent(res.Best.Plan))
	}
	enf, _, _ := countSorts(res.Best.Plan)
	if enf < 1 || res.Order.Enforced != enf {
		t.Fatalf("expected >=1 enforcer sort with an exact report, got walk=%d reported=%d:\n%s",
			enf, res.Order.Enforced, plan.Indent(res.Best.Plan))
	}
	if counters["memo.order.enforced"] != int64(enf) {
		t.Errorf("memo.order.enforced = %d, want %d (one per enforcer sort)", counters["memo.order.enforced"], enf)
	}
	if err := plan.Validate(res.Best.Plan, db); err != nil {
		t.Fatalf("winner fails validation: %v\n%s", err, plan.Indent(res.Best.Plan))
	}
	got, err := executor.Run(res.Best.Plan, db)
	if err != nil {
		t.Fatalf("executing winner: %v", err)
	}
	want, err := q.Eval(db)
	if err != nil {
		t.Fatalf("reference eval: %v", err)
	}
	if !got.EqualAsMultisets(want) {
		t.Fatal("winner output differs from reference as a multiset")
	}
}

// TestOrderEnforcerAtRootForThetaJoin: a non-equi join has no merge
// implementation, so the only way to meet the requirement is a single
// enforcer sort over the join — pinning exact enforcer placement.
func TestOrderEnforcerAtRootForThetaJoin(t *testing.T) {
	db := plan.Database{
		"l": shuffledRel("l", 10, 2),
		"r": shuffledRel("r", 10, 2),
	}
	pred := expr.Cmp{Op: value.LT, L: expr.Column("l", "k"), R: expr.Column("r", "k")}
	j := plan.NewJoin(plan.InnerJoin, pred, plan.NewScan("l"), plan.NewScan("r"))
	keys := []plan.SortKey{{Attr: schema.Attr("l", "k")}}
	q := plan.NewSortOrigin(keys, -1, j, plan.SortOriginQuery)
	res, _ := optimizeOrdered(t, q, db)

	if res.Order == nil || res.Order.Eliminated() {
		t.Fatalf("theta join cannot deliver order for free: %+v", res.Order)
	}
	enf, _, _ := countSorts(res.Best.Plan)
	if enf != 1 || res.Order.Enforced != 1 {
		t.Fatalf("expected exactly one enforcer sort, got walk=%d reported=%d:\n%s",
			enf, res.Order.Enforced, plan.Indent(res.Best.Plan))
	}
	root, ok := res.Best.Plan.(*plan.Sort)
	if !ok || root.Origin != plan.SortOriginEnforcer {
		t.Fatalf("enforcer must sit at the root, got %T:\n%s", res.Best.Plan, plan.Indent(res.Best.Plan))
	}
	got, err := executor.Run(res.Best.Plan, db)
	if err != nil {
		t.Fatalf("executing winner: %v", err)
	}
	want, err := q.Eval(db)
	if err != nil {
		t.Fatalf("reference eval: %v", err)
	}
	if !got.EqualAsMultisets(want) {
		t.Fatal("winner output differs from reference as a multiset")
	}
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
	if counters["memo.order.required"] != 0 {
		t.Errorf("memo.order.required = %d, want 0", counters["memo.order.required"])
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
// be untouched by the order machinery — no contexts, no Order info
// (their best cost is pinned against the saturate-and-rank oracle by
// TestMemoMatchesSaturate; this pins the counters stay silent).
func TestOrderFreeQueriesUnchanged(t *testing.T) {
	db := memoTestDB(3)
	res, counters := optimizeOrdered(t, memoQuery2(), db)
	if res.Order != nil {
		t.Fatalf("order-free query set Result.Order: %+v", res.Order)
	}
	for _, c := range []string{"memo.order.required", "memo.order.contexts", "memo.order.enforced", "memo.order.eliminated"} {
		if counters[c] != 0 {
			t.Errorf("%s = %d, want 0 on an order-free query", c, counters[c])
		}
	}
}

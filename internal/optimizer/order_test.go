// End-to-end pins for a root ORDER BY: whatever the physical order of
// the base tables, the winner is exactly one sort at the root over the
// order-free winner. Lives in the external package alongside
// memo_test.go.
package optimizer_test

import (
	"fmt"
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
	return plan.NewSort(keys, -1, j)
}

func optimizeOrdered(t *testing.T, q plan.Node, db plan.Database) *optimizer.Result {
	t.Helper()
	o := optimizer.New(stats.NewEstimator(stats.FromDatabase(db)))
	o.Opts.Obs = obs.NewRegistry()
	res, err := o.Optimize(q, db)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return res
}

// checkRootSort pins the one rule for a root ORDER BY, with or
// without LIMIT: res's winner is one sort at the root, on q's keys and
// limit, with no other sort anywhere, over exactly the plan the
// optimizer picks for q without its sort; and the winner returns q's
// rows in order on the reference and the columnar engine alike — the
// same rows as a multiset without a limit, the same key values row by
// row with one.
func checkRootSort(t *testing.T, q *plan.Sort, db plan.Database) {
	t.Helper()
	res := optimizeOrdered(t, q, db)
	root, ok := res.Best.Plan.(*plan.Sort)
	if !ok || fmt.Sprint(root.Keys) != fmt.Sprint(q.Keys) || root.Limit != q.Limit {
		t.Fatalf("winner root is not the query's sort:\n%s", plan.Indent(res.Best.Plan))
	}
	sorts := 0
	plan.Walk(res.Best.Plan, func(m plan.Node) {
		if _, ok := m.(*plan.Sort); ok {
			sorts++
		}
	})
	if sorts != 1 {
		t.Fatalf("want one sort in the plan, got %d:\n%s", sorts, plan.Indent(res.Best.Plan))
	}
	free := optimizeOrdered(t, q.Input, db)
	if plan.Key(root.Input) != plan.Key(free.Best.Plan) {
		t.Fatalf("sorted plan is not the order-free winner:\n%s\nwant under the sort:\n%s",
			plan.Indent(root.Input), plan.Indent(free.Best.Plan))
	}
	if err := plan.Validate(res.Best.Plan, db); err != nil {
		t.Fatalf("winner fails validation: %v\n%s", err, plan.Indent(res.Best.Plan))
	}
	want, err := q.Eval(db)
	if err != nil {
		t.Fatalf("reference eval: %v", err)
	}
	ran, err := res.Best.Plan.Eval(db)
	if err != nil {
		t.Fatalf("evaluating winner: %v", err)
	}
	col, _, err := executor.Exec(res.Best.Plan, db, executor.Options{})
	if err != nil {
		t.Fatalf("executing winner columnar: %v", err)
	}
	for engine, got := range map[string]*relation.Relation{"Eval": ran, "Exec": col.ToRelation()} {
		if q.Limit < 0 && !got.EqualAsMultisets(want) {
			t.Fatalf("%s: winner output differs from reference as a multiset", engine)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s: winner returned %d rows, want %d", engine, got.Len(), want.Len())
		}
		for i := 0; i < got.Len(); i++ {
			for _, k := range q.Keys {
				gi, wi := got.Schema().IndexOf(k.Attr), want.Schema().IndexOf(k.Attr)
				if plan.CompareForSort(got.Tuple(i)[gi], want.Tuple(i)[wi]) != 0 {
					t.Fatalf("%s: row %d has %s = %v, want %v", engine, i, k, got.Tuple(i)[gi], want.Tuple(i)[wi])
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
		checkRootSort(t, plan.NewSort([]plan.SortKey{{Attr: k}}, -1, g), db)
	})
}

// TestOrderByUnsortedInputsIsOneRootSort: with unsorted base tables the
// winner is the same shape — one root sort over the order-free
// winner — and its rows come back in order.
func TestOrderByUnsortedInputsIsOneRootSort(t *testing.T) {
	db := plan.Database{
		"l": shuffledRel("l", 40, 2),
		"r": shuffledRel("r", 40, 3),
	}
	checkRootSort(t, orderedJoinQuery(), db)
}

// TestOrderEnforcerAtRootForThetaJoin: a non-equi join, sorted
// descending on one key and ascending on the next, gets the same one
// root sort.
func TestOrderEnforcerAtRootForThetaJoin(t *testing.T) {
	db := plan.Database{
		"l": shuffledRel("l", 10, 2),
		"r": shuffledRel("r", 10, 2),
	}
	pred := expr.Cmp{Op: value.LT, L: expr.Column("l", "k"), R: expr.Column("r", "k")}
	j := plan.NewJoin(plan.InnerJoin, pred, plan.NewScan("l"), plan.NewScan("r"))
	keys := []plan.SortKey{{Attr: schema.Attr("l", "k"), Desc: true}, {Attr: schema.Attr("r", "v")}}
	checkRootSort(t, plan.NewSort(keys, -1, j), db)
}

// TestOrderTopKKeepsRootSort: ORDER BY ... LIMIT k plans the same way
// — the top-K sort at the root over the order-free winner.
func TestOrderTopKKeepsRootSort(t *testing.T) {
	db := plan.Database{
		"l": orderedRel("l", 40, 2),
		"r": orderedRel("r", 40, 3),
	}
	j := plan.NewJoin(plan.InnerJoin, expr.EqCols("l", "k", "r", "k"),
		plan.NewScan("l"), plan.NewScan("r"))
	checkRootSort(t, plan.NewSort([]plan.SortKey{{Attr: schema.Attr("l", "k")}}, 5, j), db)
}

// TestOrderFreeQueriesUnchanged: a query without a root ORDER BY gets
// no sort (its best cost is pinned against the saturate-and-rank
// oracle by TestMemoMatchesSaturate).
func TestOrderFreeQueriesUnchanged(t *testing.T) {
	res := optimizeOrdered(t, memoQuery2(), memoTestDB(3))
	plan.Walk(res.Best.Plan, func(m plan.Node) {
		if _, ok := m.(*plan.Sort); ok {
			t.Fatalf("order-free query planned a sort:\n%s", plan.Indent(res.Best.Plan))
		}
	})
}

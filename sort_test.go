package reorder

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/plan"
)

// A root Sort is an ordinary operator: with or without LIMIT, the
// winner is that one Sort over exactly the plan the optimizer picks for
// the query without it — simplified, reordered and priced the same.

// optimizeBest returns q's winner and fails the test on an error.
func optimizeBest(t *testing.T, q Node, db Database) *Result {
	t.Helper()
	res, err := Optimize(context.Background(), q, db, Options{})
	if err != nil {
		t.Fatalf("Optimize %s: %v", q, err)
	}
	return res
}

// checkUnderSort fails unless sorted's winner is a Sort at the root
// over free's winner.
func checkUnderSort(t *testing.T, label string, sorted, free *Result) {
	t.Helper()
	root, ok := sorted.Best.Plan.(*plan.Sort)
	if !ok {
		t.Fatalf("%s: winner root is %T, want *plan.Sort:\n%s", label, sorted.Best.Plan, plan.Indent(sorted.Best.Plan))
	}
	if plan.Key(root.Input) != plan.Key(free.Best.Plan) {
		t.Fatalf("%s: plan under the sort (cost %.1f, %d expressions):\n%s\nwant the order-free winner (cost %.1f, %d expressions):\n%s",
			label, sorted.Best.Cost, sorted.Considered, plan.Indent(root.Input),
			free.Best.Cost, free.Considered, plan.Indent(free.Best.Plan))
	}
}

// TestSortUnderLimitIsOrderFreeWinner: a LIMIT over a left-join chain
// whose padded rows a WHERE clause rejects must not hide the outer
// joins from simplification — the plan under the top-K sort is the
// winner of the query without it.
func TestSortUnderLimitIsOrderFreeWinner(t *testing.T) {
	db := datagen.Chain(5, datagen.UniformConfig{Rows: 300, Domain: 150, NullFrac: 0.05}, 1)
	const base = "select r1.x, r4.y from r1 left join r2 on r1.x = r2.x " +
		"left join r3 on r2.y = r3.y left join r4 on r3.x = r4.x " +
		"where r4.y = 7 and r2.y >= 3"
	q, err := Parse(base, db)
	if err != nil {
		t.Fatal(err)
	}
	free := optimizeBest(t, q, db)
	for _, suffix := range []string{" limit 10", " order by r1.x limit 10", " order by r1.x"} {
		sq, err := Parse(base+suffix, db)
		if err != nil {
			t.Fatalf("%s: %v", suffix, err)
		}
		checkUnderSort(t, suffix, optimizeBest(t, sq, db), free)
	}
}

// TestRootSortPropertyRandomQueries: over generated join queries, a
// root Sort without a limit and with one no smaller than the answer
// plans as the order-free winner under the sort, and Execute returns
// plan.Eval's rows in key order.
func TestRootSortPropertyRandomQueries(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, n := datagen.RandomJoinQuery(rng)
		db := datagen.RandomJoinDB(rng, n)
		want, err := q.Eval(db)
		if err != nil {
			t.Fatalf("seed %d: Eval: %v", seed, err)
		}
		var keys []plan.SortKey
		for k := 1 + rng.Intn(2); k > 0; k-- {
			a := want.Schema().At(rng.Intn(want.Schema().Len()))
			keys = append(keys, plan.SortKey{Attr: a, Desc: rng.Intn(2) == 0})
		}
		free := optimizeBest(t, q, db)
		for _, limit := range []int{-1, want.Len() + rng.Intn(3)} {
			label := fmt.Sprintf("seed %d limit %d", seed, limit)
			res := optimizeBest(t, plan.NewSort(keys, limit, q), db)
			checkUnderSort(t, label, res, free)
			got, err := Execute(ctx, res.Best.Plan, db, Limits{})
			if err != nil {
				t.Fatalf("%s: Execute: %v", label, err)
			}
			if !got.EqualAsMultisets(want) {
				t.Fatalf("%s: Execute returned other rows than Eval", label)
			}
			cmp, err := plan.KeyCompare(got.Schema(), keys, func(c int) func(i, j int32) int {
				return func(i, j int32) int { return plan.CompareForSort(got.Tuple(int(i))[c], got.Tuple(int(j))[c]) }
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < got.Len(); i++ {
				if cmp(int32(i-1), int32(i)) > 0 {
					t.Fatalf("%s: rows %d and %d out of key order %v", label, i-1, i, keys)
				}
			}
		}
	}
}

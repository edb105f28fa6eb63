// Unnesting: the Section 1.1 join-aggregate query with nested
// correlated COUNT subqueries,
//
//	Select r1.a From r1
//	Where r1.b >= (Select count(*) From r2
//	               Where r2.c = r1.c and r2.d >= (Select count(*) From r3
//	                                              Where r2.e = r3.e and r1.f = r3.f))
//
// evaluated two ways: Tuple Iteration Semantics (the nested-loops
// strategy of early commercial systems) and the unnested outer-join +
// group-by plan whose HAVING step is a generalized selection — the
// paper's primitive closing the classic count bug.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	reorder "repro"
	"repro/internal/experiments"
)

func main() {
	ctx := context.Background()
	q := experiments.E8Query()
	fmt.Println("sweeping |r1| (inner relations scale with it):")
	fmt.Printf("%-8s %14s %14s %9s\n", "|r1|", "TIS", "unnested", "speedup")
	for _, n := range []int{100, 200, 400, 800} {
		db := experiments.E8DB(n, experiments.DefaultE8Config())

		start := time.Now()
		tis, err := q.TIS(db)
		if err != nil {
			log.Fatal(err)
		}
		tisTime := time.Since(start)

		unnested, err := q.Unnest(db)
		if err != nil {
			log.Fatal(err)
		}
		start = time.Now()
		got, err := reorder.Execute(ctx, unnested, db, reorder.Limits{})
		if err != nil {
			log.Fatal(err)
		}
		unTime := time.Since(start)

		if !got.EqualAsMultisets(tis) {
			log.Fatalf("plans disagree at n=%d", n)
		}
		fmt.Printf("%-8d %14s %14s %8.1fx\n", n, tisTime, unTime,
			float64(tisTime)/float64(unTime))
	}

	// Show the unnested plan once; note the generalized selection
	// preserving r1 between the two aggregation levels.
	db := experiments.E8DB(100, experiments.DefaultE8Config())
	unnested, err := q.Unnest(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nunnested plan:")
	fmt.Println(reorder.ExplainPlan(unnested))

	// The same query can come straight from SQL text.
	sqlText := `
	  select r1.a from r1
	  where r1.b >= (select count(*) from r2
	                 where r2.c = r1.c and r2.d >= (select count(*) from r3
	                                                where r2.e = r3.e and r1.f = r3.f))`
	node, err := reorder.Parse(sqlText, db)
	if err != nil {
		log.Fatal(err)
	}
	got, err := reorder.Execute(ctx, node, db, reorder.Limits{})
	if err != nil {
		log.Fatal(err)
	}
	want, _ := q.TIS(db)
	fmt.Printf("SQL front end lowers to the same unnested plan: %d rows (TIS agrees: %v)\n",
		got.Len(), got.EqualAsMultisets(want))
}

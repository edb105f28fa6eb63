// Supplier audit: the paper's motivating Example 1.1. A business
// analyst wants suppliers to discontinue: BANKRUPT suppliers joined
// against their 1994 aggregates, outer-joined to the 1995 per-part
// transaction counts, with the outer join predicate referencing the
// aggregated column (QTY < 2 * 95AGGQTY).
//
// The query as written must aggregate the big 95DETAIL relation
// before the join. The paper's reordering joins the few bankrupt
// suppliers first and aggregates last; this example shows the
// optimizer discovering that plan and the resulting speedup.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	reorder "repro"
	"repro/internal/datagen"
)

func main() {
	cfg := datagen.DefaultSupplierConfig
	cfg.DetailRows = 30000
	cfg.BankruptFrac = 0.02
	db := datagen.Supplier(cfg)
	fmt.Printf("workload: %d suppliers (%.0f%% bankrupt), %d agg94 rows, %d detail95 rows\n\n",
		cfg.Suppliers, cfg.BankruptFrac*100, cfg.AggRows, cfg.DetailRows)

	asWritten := datagen.SupplierQuery()
	fmt.Println("query as written (aggregate detail95 first):")
	fmt.Println(reorder.ExplainPlan(asWritten))

	ctx := context.Background()
	res, err := reorder.Optimize(ctx, asWritten, db, reorder.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(reorder.Explain(res))

	base, err := reorder.Optimize(ctx, asWritten, db, reorder.Options{Baseline: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline optimizer (no aggregation push-up): best cost %.0f over %d plans\n\n",
		base.Best.Cost, base.Considered)

	run := func(name string, p reorder.Node) {
		start := time.Now()
		out, err := reorder.Execute(ctx, p, db, reorder.Limits{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %8d rows in %s\n", name, out.Len(), time.Since(start))
	}
	run("as written:", asWritten)
	run("optimizer's choice:", res.Best.Plan)

	same, err := reorder.Equivalent(asWritten, res.Best.Plan, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplans equivalent: %v\n", same)
}

// CSV workbench: load a directory of CSV files as a database, run ad
// hoc SQL with outer joins and aggregation through the optimizer, and
// emit the chosen plan as Graphviz DOT. This example writes its own
// sample data to a temporary directory so it is fully self-contained:
//
//	go run ./examples/csv_workbench
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	reorder "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "reorder-csv")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	files := map[string]string{
		"orders.csv": "id,customer,amount\n" +
			"1,ada,120\n2,grace,80\n3,ada,200\n4,alan,50\n5,grace,300\n6,,75\n",
		"customers.csv": "name,region\n" +
			"ada,emea\ngrace,amer\nbarbara,apac\n",
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	db, err := reorder.LoadCSVDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d tables from %s\n\n", len(db), dir)

	queries := []string{
		// Outer join keeps customer-less orders; the filter on the
		// preserved side pushes down.
		`select orders.id, orders.amount, customers.region
		 from orders left outer join customers on orders.customer = customers.name
		 where orders.amount >= 75
		 order by amount desc limit 4`,
		// Aggregation with HAVING.
		`select customer, count(*) as orders, sum(amount) as total
		 from orders group by customer having sum(amount) > 100`,
		// Boolean predicates.
		`select id from orders
		 where customer in ('ada', 'grace') and not (amount between 100 and 250)`,
	}
	ctx := context.Background()
	var first reorder.Node
	for i, q := range queries {
		fmt.Printf("--- query %d\n%s\n", i+1, q)
		node, err := reorder.Parse(q, db)
		if err != nil {
			log.Fatal(err)
		}
		res, err := reorder.Optimize(ctx, node, db, reorder.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			first = res.Best.Plan
		}
		rows, err := reorder.Execute(ctx, res.Best.Plan, db, reorder.Limits{})
		if err != nil {
			log.Fatal(err)
		}
		if i != 0 { // query 1 carries its own ORDER BY
			rows.SortForDisplay()
		}
		fmt.Printf("\n%s", rows)
		fmt.Printf("(%d plans considered, best cost %.0f)\n\n", res.Considered, res.Best.Cost)
	}

	// The chosen plan of the first query, as Graphviz DOT.
	fmt.Println("plan of query 1 as DOT (pipe into `dot -Tsvg`):")
	fmt.Println(reorder.PlanDOT(first))
}

// Quickstart: build a tiny database, run a SQL query with outer joins
// through the optimizer, and print the plan space and result.
package main

import (
	"context"
	"fmt"
	"log"

	reorder "repro"
	"repro/internal/relation"
	"repro/internal/value"
)

func main() {
	// A small employees/departments database. NULL department ids
	// make the outer-join semantics visible.
	employees := relation.NewBuilder("emp", "name", "dept", "salary").
		Row(value.NewString("ada"), value.NewInt(1), value.NewInt(120)).
		Row(value.NewString("grace"), value.NewInt(2), value.NewInt(130)).
		Row(value.NewString("alan"), value.Null, value.NewInt(95)).
		Row(value.NewString("edsger"), value.NewInt(3), value.NewInt(110)).
		Relation()
	departments := relation.NewBuilder("dept", "id", "dname").
		Row(value.NewInt(1), value.NewString("research")).
		Row(value.NewInt(2), value.NewString("systems")).
		Row(value.NewInt(9), value.NewString("empty")).
		Relation()
	db := reorder.Database{"emp": employees, "dept": departments}

	query := `select emp.name, dept.dname
	          from emp left outer join dept on emp.dept = dept.id
	          where emp.salary >= 100`

	node, err := reorder.Parse(query, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan as written:")
	fmt.Println(reorder.ExplainPlan(node))

	ctx := context.Background()
	res, err := reorder.Optimize(ctx, node, db, reorder.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(reorder.Explain(res))

	rows, err := reorder.Execute(ctx, res.Best.Plan, db, reorder.Limits{})
	if err != nil {
		log.Fatal(err)
	}
	rows.SortForDisplay()
	fmt.Println("result:")
	fmt.Println(rows)

	// The equivalence class is small for this two-relation query but
	// demonstrates the enumeration API.
	plans := reorder.Enumerate(node, 0)
	fmt.Printf("equivalence class: %d plans, join orders %v\n",
		len(plans), reorder.JoinOrders(plans))
}

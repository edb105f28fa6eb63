package reorder_test

import (
	"context"
	"fmt"
	"log"

	reorder "repro"
	"repro/internal/relation"
	"repro/internal/value"
)

func exampleDB() reorder.Database {
	emp := relation.NewBuilder("emp", "name", "dept", "salary").
		Row(value.NewString("ada"), value.NewInt(1), value.NewInt(120)).
		Row(value.NewString("grace"), value.NewInt(2), value.NewInt(130)).
		Row(value.NewString("alan"), value.Null, value.NewInt(95)).
		Relation()
	dept := relation.NewBuilder("dept", "id", "dname").
		Row(value.NewInt(1), value.NewString("research")).
		Row(value.NewInt(2), value.NewString("systems")).
		Relation()
	return reorder.Database{"emp": emp, "dept": dept}
}

// ExampleExecute parses, optimizes and runs a query.
func ExampleExecute() {
	db := exampleDB()
	ctx := context.Background()
	q, err := reorder.Parse(
		`select emp.name, dept.dname
		 from emp left outer join dept on emp.dept = dept.id
		 order by name`, db)
	if err != nil {
		log.Fatal(err)
	}
	res, err := reorder.Optimize(ctx, q, db, reorder.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rows, err := reorder.Execute(ctx, res.Best.Plan, db, reorder.Limits{})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < rows.Len(); i++ {
		t := rows.Tuple(i)
		fmt.Printf("%s %s\n", t[0], t[1])
	}
	// Output:
	// ada research
	// alan -
	// grace systems
}

// ExampleOptimize shows cost-based plan selection and the identity
// chain that produced the winner.
func ExampleOptimize() {
	db := exampleDB()
	q, err := reorder.Parse(
		`select emp.name from emp join dept on emp.dept = dept.id
		 where dept.dname = 'systems'`, db)
	if err != nil {
		log.Fatal(err)
	}
	res, err := reorder.Optimize(context.Background(), q, db, reorder.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("considered %d plans; best filters before joining: %v\n",
		res.Considered, res.Best.Cost < res.Original.Cost)
	// The memo engine counts admitted group expressions, which include
	// shared subplans the old exhaustive enumeration never listed.
	// Output:
	// considered 9 plans; best filters before joining: true
}

// ExampleAssociationTreeCounts reproduces the paper's plan-space
// widening on Example 3.2's query Q4.
func ExampleAssociationTreeCounts() {
	db := exampleDB()
	_ = db
	q, err := reorder.Parse(
		`select t.a from t left outer join s on t.a = s.a`,
		reorder.Database{
			"t": relation.NewBuilder("t", "a").Relation(),
			"s": relation.NewBuilder("s", "a").Relation(),
		})
	if err != nil {
		log.Fatal(err)
	}
	// Strip the final projection: the enumerators work on join trees.
	broken, strict, err := reorder.AssociationTreeCounts(q.Children()[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Definition 3.2 trees: %d, [BHAR95a] trees: %d\n", broken, strict)
	// Output:
	// Definition 3.2 trees: 1, [BHAR95a] trees: 1
}

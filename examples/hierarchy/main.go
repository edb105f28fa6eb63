// Hierarchy: the paper's conclusion notes that "the outer join
// operation is used to traverse parent child hierarchies", so
// hierarchical applications benefit from its reorderings. This
// example models a two-level org chart — departments, teams, members
// — where teams may be empty and departments teamless, and asks for
// per-department member counts with a filter on the aggregated count
// referencing an outer join chain: exactly the aggregation-over-outer
// -join shape the paper's machinery reorders.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	reorder "repro"
	"repro/internal/relation"
	"repro/internal/value"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	db := reorder.Database{}

	depts := relation.NewBuilder("dept", "id", "name")
	for i := 0; i < 12; i++ {
		depts.Row(value.NewInt(int64(i)), value.NewString(fmt.Sprintf("dept-%d", i)))
	}
	db["dept"] = depts.Relation()

	teams := relation.NewBuilder("team", "id", "dept_id", "name")
	for i := 0; i < 30; i++ {
		// Some departments get no teams (ids 10, 11 never drawn).
		teams.Row(value.NewInt(int64(i)), value.NewInt(int64(rng.Intn(10))),
			value.NewString(fmt.Sprintf("team-%d", i)))
	}
	db["team"] = teams.Relation()

	members := relation.NewBuilder("member", "id", "team_id")
	for i := 0; i < 400; i++ {
		// Some teams stay empty (ids 25..29 never drawn).
		members.Row(value.NewInt(int64(i)), value.NewInt(int64(rng.Intn(25))))
	}
	db["member"] = members.Relation()

	// Departments with their total head count, keeping teamless
	// departments (outer joins down the hierarchy), only where the
	// head count stays small — a filter over the aggregated column.
	query := `
	  select dept.name as dept, count(member.id) as heads
	  from dept
	  left outer join team on team.dept_id = dept.id
	  left outer join member on member.team_id = team.id
	  group by dept.name
	  having count(member.id) <= 30
	  order by dept`
	ctx := context.Background()
	run := func(query string) (*reorder.Relation, *reorder.Result) {
		node, err := reorder.Parse(query, db)
		if err != nil {
			log.Fatal(err)
		}
		res, err := reorder.Optimize(ctx, node, db, reorder.Options{})
		if err != nil {
			log.Fatal(err)
		}
		rows, err := reorder.Execute(ctx, res.Best.Plan, db, reorder.Limits{})
		if err != nil {
			log.Fatal(err)
		}
		return rows, res
	}
	rows, res := run(query)
	fmt.Println(rows)
	fmt.Printf("(%d plans considered; teamless departments report 0 heads — the outer joins preserve them)\n\n",
		res.Considered)

	// The same hierarchy walked bottom-up: members per team including
	// empty teams, via a right outer join.
	query2 := `
	  select team.name as team, count(member.id) as heads
	  from member right outer join team on member.team_id = team.id
	  group by team.name
	  having count(member.id) = 0
	  order by team`
	rows2, _ := run(query2)
	fmt.Printf("empty teams (%d):\n%s", rows2.Len(), rows2)
}

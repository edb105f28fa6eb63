package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

// RandomJoinQuery builds a join query over r1..rn (n in 3..5) that is
// a function of the generator's state alone: relations are combined
// pairwise in random order and shape (bushy trees included) by inner,
// left and full outer joins whose predicates have one to three
// conjuncts — always one linking the two operands, then a mix of
// further linking conjuncts (a second pair of relations makes the
// predicate complex) and one-sided ones (a comparison inside one
// operand, or against a constant). It returns the query and n.
//
// This is the query class of the paper restricted to joins; the
// differential suites of internal/memo and internal/optimizer draw
// from it.
func RandomJoinQuery(rng *rand.Rand) (plan.Node, int) {
	// Five relations cost whole-tree saturation seconds; keep them a
	// minority.
	n := []int{3, 3, 3, 4, 4, 4, 4, 4, 5}[rng.Intn(9)]
	type part struct {
		node plan.Node
		rels []string
	}
	var parts []part
	for _, i := range rng.Perm(n) {
		name := fmt.Sprintf("r%d", i+1)
		parts = append(parts, part{plan.NewScan(name), []string{name}})
	}
	col := func(rels []string) expr.Col {
		return expr.Column(rels[rng.Intn(len(rels))], []string{"x", "y"}[rng.Intn(2)])
	}
	ops := []value.CmpOp{value.EQ, value.EQ, value.LT, value.GE}
	kinds := []plan.JoinKind{plan.InnerJoin, plan.InnerJoin, plan.LeftJoin, plan.LeftJoin, plan.FullJoin}
	for len(parts) > 1 {
		i := rng.Intn(len(parts))
		j := rng.Intn(len(parts) - 1)
		if j >= i {
			j++
		}
		l, r := parts[i], parts[j]
		conj := []expr.Pred{expr.Eq(col(l.rels), col(r.rels))}
		for extra := rng.Intn(3); extra > 0; extra-- {
			switch rng.Intn(4) {
			case 0, 1: // linking
				conj = append(conj, expr.Cmp{Op: ops[rng.Intn(len(ops))], L: col(l.rels), R: col(r.rels)})
			case 2: // one-sided, column against column
				side := [][]string{l.rels, r.rels}[rng.Intn(2)]
				conj = append(conj, expr.Cmp{Op: ops[rng.Intn(len(ops))], L: col(side), R: col(side)})
			default: // one-sided, column against constant
				side := [][]string{l.rels, r.rels}[rng.Intn(2)]
				conj = append(conj, expr.Cmp{Op: value.GE, L: col(side), R: expr.Int(int64(rng.Intn(2)))})
			}
		}
		joined := part{
			node: plan.NewJoin(kinds[rng.Intn(len(kinds))], expr.And(conj...), l.node, r.node),
			rels: append(append([]string(nil), l.rels...), r.rels...),
		}
		if i < j {
			i, j = j, i
		}
		parts = append(parts[:i], parts[i+1:]...)
		parts[j] = joined
	}
	return parts[0].node, n
}

// RandomJoinDB builds r1..rn(x, y) for RandomJoinQuery: three to six
// rows each over a three-value domain, so duplicates are certain, with
// NULLs in both columns — small enough that plan.Eval of an outer-join
// query is instant.
func RandomJoinDB(rng *rand.Rand, n int) plan.Database {
	db := plan.Database{}
	val := func() value.Value {
		if rng.Intn(5) == 0 {
			return value.Null
		}
		return value.NewInt(int64(rng.Intn(3)))
	}
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("r%d", i)
		b := relation.NewBuilder(name, "x", "y")
		for rows := 3 + rng.Intn(4); rows > 0; rows-- {
			b.Row(val(), val())
		}
		db[name] = b.Relation()
	}
	return db
}

package core

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/simplify"
	"repro/internal/value"
)

// randomQuery builds a random join tree over rels: random shape,
// random operator kinds, random 1–2-conjunct predicates connecting
// the two operand subtrees (so hypergraph construction always
// succeeds). This is the adversarial input generator for the
// whole-engine soundness fuzz test.
func randomQuery(rng *rand.Rand, rels []string) plan.Node {
	if len(rels) == 1 {
		return plan.NewScan(rels[0])
	}
	cut := 1 + rng.Intn(len(rels)-1)
	perm := rng.Perm(len(rels))
	var lRels, rRels []string
	for i, p := range perm {
		if i < cut {
			lRels = append(lRels, rels[p])
		} else {
			rRels = append(rRels, rels[p])
		}
	}
	l := randomQuery(rng, lRels)
	r := randomQuery(rng, rRels)

	atom := func() expr.Pred {
		lr := lRels[rng.Intn(len(lRels))]
		rr := rRels[rng.Intn(len(rRels))]
		cols := []string{"x", "y"}
		lc, rc := cols[rng.Intn(2)], cols[rng.Intn(2)]
		ops := []value.CmpOp{value.EQ, value.EQ, value.EQ, value.LE, value.NE}
		return expr.Cmp{Op: ops[rng.Intn(len(ops))], L: expr.Column(lr, lc), R: expr.Column(rr, rc)}
	}
	pred := atom()
	if rng.Intn(2) == 0 {
		pred = expr.And(pred, atom())
	}
	kinds := []plan.JoinKind{plan.InnerJoin, plan.InnerJoin, plan.LeftJoin, plan.LeftJoin, plan.RightJoin, plan.FullJoin}
	return plan.NewJoin(kinds[rng.Intn(len(kinds))], pred, l, r)
}

// TestSaturationFuzz is the whole-engine soundness net: for random
// query shapes over 3–5 relations, every plan in the saturated
// equivalence class must evaluate to the original query's result on
// random databases. Any unsound rewrite rule, compensation spec or
// executor bug surfaces here.
func TestSaturationFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20240705))
	queries := 40
	if testing.Short() {
		queries = 8
	}
	for qi := 0; qi < queries; qi++ {
		n := 3 + rng.Intn(3)
		rels := make([]string, n)
		for i := range rels {
			rels[i] = relNames[i]
		}
		// The paper's machinery assumes simple queries; simplification
		// is itself an identity, so fuzz over the simplified form.
		q := simplify.Simplify(randomQuery(rng, rels))
		plans := Saturate(q, SaturateOptions{MaxPlans: 120})
		for trial := 0; trial < 3; trial++ {
			db := randDB(rng, 5, 3, relNames...)
			want, err := q.Eval(db)
			if err != nil {
				t.Fatalf("query %d (%s): %v", qi, q, err)
			}
			for _, p := range plans {
				got, err := p.Eval(db)
				if err != nil {
					t.Fatalf("query %d plan %s: %v", qi, p, err)
				}
				if !got.EqualAsSets(want) {
					t.Fatalf("UNSOUND REWRITE\nquery %d: %s\nplan: %s\ngot:\n%s\nwant:\n%s",
						qi, q, p, got.Format(true), want.Format(true))
				}
			}
		}
	}
}

var relNames = []string{"r1", "r2", "r3", "r4", "r5"}

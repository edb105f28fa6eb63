package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
)

// chainOf builds a left-deep inner-join chain r1..rn and returns it
// with its scans.
func chainOf(n int) (Node, []*Scan) {
	scans := make([]*Scan, n)
	var q Node
	for i := range scans {
		scans[i] = NewScan(fmt.Sprintf("r%d", i+1))
		if i == 0 {
			q = scans[0]
			continue
		}
		q = NewJoin(InnerJoin, expr.EqCols(scans[i-1].Rel, "x", scans[i].Rel, "x"), q, scans[i])
	}
	return q, scans
}

// TestRefsIndexedMatchesWalking: on an indexed tree — narrow enough for
// one word, and 70 relations wide — RefsOnly and RefsSome answer as
// the walking fallback does on an identical unindexed tree, for
// predicates over one, two and three relations (one of them not a
// scanned relation at all) against one and two operands.
func TestRefsIndexedMatchesWalking(t *testing.T) {
	for _, n := range []int{5, 70} {
		indexed, scans := chainOf(n)
		plain, plainScans := chainOf(n)
		if ix := IndexRelations(indexed); ix == nil || len(ix.names) != n {
			t.Fatalf("n=%d: index %v", n, ix)
		}
		// Every prefix of the chain, and every scan, as operands.
		operands := func(q Node, ss []*Scan) []Node {
			var out []Node
			for ; ; q = q.(*Join).L {
				out = append(out, q)
				if _, leaf := q.(*Scan); leaf {
					break
				}
			}
			for _, s := range ss {
				out = append(out, s)
			}
			return out
		}
		ops, plainOps := operands(indexed, scans), operands(plain, plainScans)
		rng := rand.New(rand.NewSource(int64(n)))
		rel := func() string {
			if rng.Intn(8) == 0 {
				return "agg" // an aggregate's output qualifier: under no operand
			}
			return fmt.Sprintf("r%d", 1+rng.Intn(n))
		}
		for trial := 0; trial < 4000; trial++ {
			p := expr.Pred(expr.EqCols(rel(), "x", rel(), "y"))
			if rng.Intn(3) == 0 {
				p = expr.And(p, expr.Cmp{L: expr.Column(rel(), "x"), R: expr.Int(1)})
			}
			a, b := rng.Intn(len(ops)), rng.Intn(len(ops))
			if got, want := RefsOnly(p, ops[a], ops[b]), RefsOnly(p, plainOps[a], plainOps[b]); got != want {
				t.Fatalf("n=%d: RefsOnly(%s, %s, %s) = %v, walking says %v", n, p, ops[a], ops[b], got, want)
			}
			if got, want := RefsSome(p, ops[a]), RefsSome(p, plainOps[a]); got != want {
				t.Fatalf("n=%d: RefsSome(%s, %s) = %v, walking says %v", n, p, ops[a], got, want)
			}
		}
		// Bit 69 is not bit 5: r70's attribute is outside r1..r6.
		if n == 70 && RefsSome(expr.EqCols("r70", "x", "r70", "y"), ops[len(ops)-len(scans)-6]) {
			t.Errorf("r70 found under %s", ops[len(ops)-len(scans)-6])
		}
	}
}

// TestIndexRelationsReuseAndMix: re-indexing a tree returns its index;
// a tree over scans of two different indexes gets none and is scoped
// by walking, correctly.
func TestIndexRelationsReuseAndMix(t *testing.T) {
	a, aScans := chainOf(3)
	ix := IndexRelations(a)
	if again := IndexRelations(a); again != ix {
		t.Error("re-indexing built a second index")
	}
	b := NewScan("s1")
	if IndexRelations(b) == ix {
		t.Fatal("unrelated scan joined the first index")
	}
	mixed := NewJoin(InnerJoin, expr.EqCols("r3", "x", "s1", "x"), a, b)
	if IndexRelations(mixed) != nil {
		t.Error("scans of two indexes were given one")
	}
	p := expr.EqCols("r1", "x", "s1", "x")
	if !RefsOnly(p, mixed) || !RefsOnly(p, aScans[0], b) || RefsOnly(p, a) || !RefsSome(p, b) || RefsSome(p, aScans[1]) {
		t.Error("mixed-index tree scoped wrongly")
	}
}

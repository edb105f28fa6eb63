package algebra

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/value"
)

// nestedLoop is the joins' definition: every pair of r1 × r2 in
// r1-major order, kept where p holds. With padLeft an r1 tuple that
// matched nothing follows NULL-padded on sch(r2); with padRight the
// unmatched r2 tuples follow last, NULL-padded on sch(r1).
func nestedLoop(p expr.Pred, r1, r2 *relation.Relation, padLeft, padRight bool) *relation.Relation {
	s := r1.Schema().Concat(r2.Schema())
	out := relation.New(s)
	nulls1 := make(relation.Tuple, r1.Schema().Len())
	nulls2 := make(relation.Tuple, r2.Schema().Len())
	nullFill(nulls1)
	nullFill(nulls2)
	t2s := r2.Tuples()
	matched2 := make([]bool, len(t2s))
	for _, t1 := range r1.Tuples() {
		matched := false
		for j, t2 := range t2s {
			t := append(t1.Clone(), t2...)
			if p.Eval(expr.TupleEnv{Schema: s, Tuple: t}).Holds() {
				out.Append(t)
				matched, matched2[j] = true, true
			}
		}
		if padLeft && !matched {
			out.Append(append(t1.Clone(), nulls2...))
		}
	}
	for j, t2 := range t2s {
		if padRight && !matched2[j] {
			out.Append(append(nulls1.Clone(), t2...))
		}
	}
	return out
}

// joinKinds pairs each join with its nested-loop definition; the right
// outer join is defined, as it is computed, as the mirrored left join.
var joinKinds = []struct {
	name string
	join func(p expr.Pred, r1, r2 *relation.Relation) *relation.Relation
	def  func(p expr.Pred, r1, r2 *relation.Relation) *relation.Relation
}{
	{"inner", Join, func(p expr.Pred, r1, r2 *relation.Relation) *relation.Relation {
		return nestedLoop(p, r1, r2, false, false)
	}},
	{"left", LeftOuter, func(p expr.Pred, r1, r2 *relation.Relation) *relation.Relation {
		return nestedLoop(p, r1, r2, true, false)
	}},
	{"right", RightOuter, func(p expr.Pred, r1, r2 *relation.Relation) *relation.Relation {
		return nestedLoop(p, r2, r1, true, false).Reorder(r1.Schema().Concat(r2.Schema()))
	}},
	{"full", FullOuter, func(p expr.Pred, r1, r2 *relation.Relation) *relation.Relation {
		return nestedLoop(p, r1, r2, true, true)
	}},
}

// joinPreds are the predicates the join is held to its definition on,
// over l(a, b) and r(c, d): equality conjuncts alone, in either
// orientation, with residuals beside them, and with none at all.
var joinPreds = []expr.Pred{
	expr.EqCols("l", "a", "r", "c"),
	expr.EqCols("r", "c", "l", "a"),
	expr.And(expr.EqCols("l", "a", "r", "c"), expr.EqCols("r", "d", "l", "b")),
	expr.And(expr.EqCols("l", "a", "r", "c"), expr.Cmp{Op: value.LT, L: expr.Column("l", "b"), R: expr.Column("r", "d")}),
	expr.And(expr.EqCols("l", "a", "l", "b"), expr.EqCols("l", "b", "r", "d")),
	expr.And(expr.Eq(expr.Column("l", "a"), expr.Int(1)), expr.EqCols("l", "b", "r", "c")),
	expr.Or(expr.EqCols("l", "a", "r", "c"), expr.EqCols("l", "b", "r", "d")),
	expr.Cmp{Op: value.GE, L: expr.Column("l", "a"), R: expr.Column("r", "d")},
	expr.Cmp{Op: value.NE, L: expr.Column("l", "b"), R: expr.Column("r", "c")},
	expr.True{},
}

// joinValue maps a byte onto the value domain where hashing and
// equality part ways: NULL, INT and FLOAT that compare equal (1 and
// 1.0), −0 and +0, NaN, strings, bools, and ±(2^53+1), which hash as
// the float64 ±2^53 they are not equal to.
func joinValue(b byte) value.Value {
	const big = 1<<53 + 1
	switch b % 16 {
	case 0:
		return value.Null
	case 1, 2, 3:
		return value.NewInt(int64(b % 16))
	case 4:
		return value.NewFloat(1)
	case 5:
		return value.NewFloat(math.Copysign(0, -1))
	case 6:
		return value.NewFloat(0)
	case 7:
		return value.NewInt(0)
	case 8:
		return value.NewFloat(math.NaN())
	case 9:
		return value.NewInt(big)
	case 10:
		return value.NewInt(-big)
	case 11:
		return value.NewFloat(big - 1)
	case 12:
		return value.NewFloat(-(big - 1))
	case 13:
		return value.NewString("1")
	case 14:
		return value.NewBool(true)
	}
	return value.NewFloat(2.5)
}

// joinRel builds a relation over cols from cells, one value a byte,
// len(cols) values a row.
func joinRel(name string, cols []string, cells []byte) *relation.Relation {
	b := relation.NewBuilder(name, cols...)
	for i := 0; i+len(cols) <= len(cells); i += len(cols) {
		row := make([]value.Value, len(cols))
		for j := range row {
			row[j] = joinValue(cells[i+j])
		}
		b.Row(row...)
	}
	return b.Relation()
}

// sameRows reports whether a and b hold the same rows in the same
// order, value for value: kinds equal, and floats equal bit for bit, so
// a −0 in place of a +0 or an INT in place of an equal FLOAT differs.
func sameRows(a, b *relation.Relation) bool {
	ta, tb := a.Tuples(), b.Tuples()
	if a.Schema().String() != b.Schema().String() || len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		for c, v := range ta[i] {
			w := tb[i][c]
			if v.Kind() != w.Kind() || !value.Equal(v, w) ||
				v.Kind() == value.KindFloat && math.Float64bits(v.Float()) != math.Float64bits(w.Float()) {
				return false
			}
		}
	}
	return true
}

// checkJoinDefinition holds every join kind to its nested-loop
// definition on l and r under p, row for row.
func checkJoinDefinition(t *testing.T, p expr.Pred, l, r *relation.Relation) {
	t.Helper()
	for _, k := range joinKinds {
		if got, want := k.join(p, l, r), k.def(p, l, r); !sameRows(got, want) {
			t.Fatalf("%s join on %s differs from the nested loop\nl:\n%s\nr:\n%s\ngot:\n%s\nwant:\n%s",
				k.name, p, l, r, got, want)
		}
	}
	if p == (expr.True{}) {
		if got, want := Product(l, r), nestedLoop(p, l, r, false, false); !sameRows(got, want) {
			t.Fatalf("product differs from the nested loop\ngot:\n%s\nwant:\n%s", got, want)
		}
	}
}

// TestJoinMatchesNestedLoop: on random relations over the edge-value
// domain, every join kind under every predicate of joinPreds returns
// its nested-loop definition's rows in its order.
func TestJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cells := func() []byte {
		c := make([]byte, 2*rng.Intn(12))
		for i := range c {
			// Half the draws from a small domain, so that keys repeat.
			if c[i] = byte(rng.Intn(256)); rng.Intn(2) == 0 {
				c[i] %= 5
			}
		}
		return c
	}
	for trial := 0; trial < 300; trial++ {
		l := joinRel("l", []string{"a", "b"}, cells())
		r := joinRel("r", []string{"c", "d"}, cells())
		for _, p := range joinPreds {
			checkJoinDefinition(t, p, l, r)
		}
	}
}

// FuzzTupleJoin: over any two relations of edge values and any
// predicate of joinPreds, every join kind returns its nested-loop
// definition's rows in its order. left and right hold two bytes a row.
func FuzzTupleJoin(f *testing.F) {
	f.Add(byte(0), []byte{1, 2, 4, 0, 0, 3}, []byte{1, 1, 7, 2, 0, 0})
	f.Add(byte(2), []byte{5, 6, 6, 5, 8, 8}, []byte{6, 5, 7, 7, 8, 8})
	f.Add(byte(3), []byte{9, 11, 11, 9, 10, 12}, []byte{11, 11, 9, 12, 12, 10})
	f.Add(byte(4), []byte{3, 3, 13, 13, 14, 14}, []byte{3, 3, 13, 3, 14, 1})
	f.Add(byte(6), []byte{1, 4, 2, 0}, []byte{4, 1, 0, 2})
	f.Add(byte(9), []byte{1, 2}, []byte{3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, pred byte, left, right []byte) {
		if len(left) > 64 || len(right) > 64 {
			return
		}
		p := joinPreds[int(pred)%len(joinPreds)]
		checkJoinDefinition(t, p, joinRel("l", []string{"a", "b"}, left), joinRel("r", []string{"c", "d"}, right))
	})
}

// TestHashJoinNullKeys pins that NULL join keys never match but
// preserved sides still pad.
func TestHashJoinNullKeys(t *testing.T) {
	l := relation.NewBuilder("l", "x").Row(value.Null).Row(value.NewInt(1)).Relation()
	r := relation.NewBuilder("r", "x").Row(value.Null).Row(value.NewInt(1)).Relation()
	out := FullOuter(expr.EqCols("l", "x", "r", "x"), l, r)
	// 1=1 matches; both NULL rows pad on their own side: 3 rows.
	if out.Len() != 3 {
		t.Fatalf("got %d rows, want 3:\n%s", out.Len(), out.String())
	}
}

// TestHashJoinScale is a coarse guard against accidentally quadratic
// equi-joins: 20k x 20k rows must join quickly, so that plan.Eval stays
// usable as the reference on benchmark-sized data.
func TestHashJoinScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	n := 20000
	b1 := relation.NewBuilder("l", "x")
	b2 := relation.NewBuilder("r", "x")
	for i := 0; i < n; i++ {
		b1.Row(value.NewInt(int64(i)))
		b2.Row(value.NewInt(int64(i)))
	}
	out := Join(expr.EqCols("l", "x", "r", "x"), b1.Relation(), b2.Relation())
	if out.Len() != n {
		t.Fatalf("got %d rows, want %d", out.Len(), n)
	}
}

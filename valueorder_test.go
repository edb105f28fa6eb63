package reorder

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// The value order end to end: NaN equals NaN and sorts above +Inf, −0
// equals +0, and an INT equals a FLOAT only when the float is integral
// and converts exactly. Every query below must return the same multiset
// through plan.Eval (the nested-loop reference) and through Execute
// (the columnar engine's typed, boxed and hashed kernels), on the plan
// as parsed and as optimized.

// agreeOnQuery runs query on db through plan.Eval and through Execute,
// unoptimized and optimized, fails unless the three answers are equal
// multisets, and returns Eval's.
func agreeOnQuery(t *testing.T, db Database, query string) *Relation {
	t.Helper()
	q, err := Parse(query, db)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	want, err := q.Eval(db)
	if err != nil {
		t.Fatalf("%s: Eval: %v", query, err)
	}
	ctx := context.Background()
	res, err := Optimize(ctx, q, db, Options{})
	if err != nil {
		t.Fatalf("%s: Optimize: %v", query, err)
	}
	for label, n := range map[string]Node{"parsed": q, "optimized": res.Best.Plan} {
		got, err := Execute(ctx, n, db, Limits{})
		if err != nil {
			t.Fatalf("%s: Execute %s: %v", query, label, err)
		}
		if !got.EqualAsMultisets(want) {
			t.Errorf("%s: Execute on the %s plan returns\n%v\nplan.Eval returns\n%v", query, label, got, want)
		}
	}
	return want
}

// floatTable is name(id, f) with one row per value of fs.
func floatTable(name string, fs ...float64) *relation.Relation {
	b := relation.NewBuilder(name, "id", "f")
	for i, f := range fs {
		b.Row(value.NewInt(int64(i)), value.NewFloat(f))
	}
	return b.Relation()
}

// ids lists the values of column rel.id in r, sorted.
func ids(r *Relation, rel string) []int64 {
	c := r.Schema().IndexOf(schema.Attr(rel, "id"))
	var out []int64
	for _, t := range r.Tuples() {
		if !t[c].IsNull() {
			out = append(out, t[c].Int())
		}
	}
	slices.Sort(out)
	return out
}

// TestValueOrderNaNEquiJoin: a 4×4 equi-join on FLOAT columns holding
// NaNs of two payloads matches NaN with NaN and nothing else, as INNER,
// LEFT and FULL join.
func TestValueOrderNaNEquiJoin(t *testing.T) {
	nan, nan2 := math.NaN(), math.Float64frombits(0x7ff8000000000002)
	db := Database{
		"l": floatTable("l", nan, nan2, 1, 2),
		"r": floatTable("r", nan2, 1, nan, 3),
	}
	for _, c := range []struct {
		join string
		rows int
	}{
		{"join", 5},            // 2×2 NaN pairs, 1 = 1
		{"left outer join", 6}, // and l's 2
		{"full outer join", 7}, // and r's 3
	} {
		got := agreeOnQuery(t, db, "select l.id as lid, r.id as rid from l "+c.join+" r on l.f = r.f")
		if got.Len() != c.rows {
			t.Errorf("%s: %d rows, want %d:\n%v", c.join, got.Len(), c.rows, got)
		}
	}
}

// TestValueOrderFloatColumnLiteral: on a FLOAT column, = 1.0 and = 1
// select the same rows — the 1.0 and not the NaNs.
func TestValueOrderFloatColumnLiteral(t *testing.T) {
	db := Database{"t": floatTable("t", math.NaN(), 1, 1.5, math.NaN(), math.Copysign(0, -1))}
	for _, q := range []string{"select t.id from t where t.f = 1.0", "select t.id from t where t.f = 1"} {
		if got := ids(agreeOnQuery(t, db, q), "t"); !slices.Equal(got, []int64{1}) {
			t.Errorf("%s: ids %v, want [1]", q, got)
		}
	}
	if got := ids(agreeOnQuery(t, db, "select t.id from t where t.f = 0"), "t"); !slices.Equal(got, []int64{4}) {
		t.Errorf("t.f = 0: ids %v, want [4] (−0 equals 0)", got)
	}
}

// TestValueOrderColumnKinds: t.f = t.g, where f is pure FLOAT and g
// mixes INT and FLOAT, selects the rows t.f = t.h does, where h is pure
// FLOAT holding g's numbers — as a selection and as a join.
func TestValueOrderColumnKinds(t *testing.T) {
	nan := math.NaN()
	i, f := value.NewInt, value.NewFloat
	rows := [][3]value.Value{
		{f(1), i(1), f(1)},
		{f(nan), f(nan), f(nan)},
		{f(nan), i(2), f(2)},
		{f(math.Copysign(0, -1)), i(0), f(0)},
		{f(1.5), f(1.5), f(1.5)},
		{f(3), i(4), f(4)},
	}
	table := func(name string) *relation.Relation {
		b := relation.NewBuilder(name, "id", "f", "g", "h")
		for k, row := range rows {
			b.Row(append([]value.Value{i(int64(k))}, row[:]...)...)
		}
		return b.Relation()
	}
	db := Database{"t": table("t"), "s": table("s")}
	want := []int64{0, 1, 3, 4}
	for _, q := range []string{
		"select t.id from t where t.f = t.g",
		"select t.id from t where t.f = t.h",
		"select t.id from t, s where t.f = s.g and t.id = s.id",
		"select t.id from t, s where t.f = s.h and t.id = s.id",
	} {
		if got := ids(agreeOnQuery(t, db, q), "t"); !slices.Equal(got, want) {
			t.Errorf("%s: ids %v, want %v", q, got, want)
		}
	}
}

// TestValueOrderMinMax: MIN and MAX over {NaN, 1, 3} are 1 and NaN
// whichever row holds the NaN.
func TestValueOrderMinMax(t *testing.T) {
	nan := math.NaN()
	for _, fs := range [][]float64{{nan, 1, 3}, {1, nan, 3}, {1, 3, nan}} {
		db := Database{"t": floatTable("t", fs...)}
		got := agreeOnQuery(t, db, "select min(t.f) as lo, max(t.f) as hi from t")
		if got.Len() != 1 {
			t.Fatalf("%v: %d rows", fs, got.Len())
		}
		if lo, hi := got.Tuple(0)[0], got.Tuple(0)[1]; !value.Equal(lo, value.NewFloat(1)) || !value.Equal(hi, value.NewFloat(nan)) {
			t.Errorf("%v: min %v, max %v; want 1, NaN", fs, lo, hi)
		}
	}
}

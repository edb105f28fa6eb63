package algebra

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// example21 builds the three relations of Example 2.1.
func example21() (r1, r2, r3 *relation.Relation) {
	s := value.NewString
	r1 = relation.NewBuilder("r1", "a", "b", "c", "f").
		Row(s("a1"), s("b1"), s("c1"), s("f1")).
		Row(s("a2"), s("b1"), s("c1"), s("f2")).
		Row(s("a2"), s("b1"), s("c2"), s("f2")).
		Relation()
	r2 = relation.NewBuilder("r2", "c", "d", "e").
		Row(s("c1"), s("d1"), s("e1")).
		Relation()
	r3 = relation.NewBuilder("r3", "e", "f").
		Row(s("e1"), s("f1")).
		Row(s("e1"), s("f3")).
		Relation()
	return
}

var (
	p12 = expr.EqCols("r1", "c", "r2", "c")
	p13 = expr.EqCols("r1", "f", "r3", "f")
	p23 = expr.EqCols("r2", "e", "r3", "e")
)

func strAt(t *testing.T, r *relation.Relation, row int, attr schema.Attribute) string {
	t.Helper()
	v := r.Tuple(row)[r.Schema().IndexOf(attr)]
	return v.String()
}

// TestExample21T1 reproduces table T1: (r1 →p12 r2) →(p13∧p23) r3.
func TestExample21T1(t *testing.T) {
	r1, r2, r3 := example21()
	t1 := LeftOuter(expr.And(p13, p23), LeftOuter(p12, r1, r2), r3)
	t1.SortForDisplay()
	if t1.Len() != 3 {
		t.Fatalf("T1 has %d rows, want 3:\n%s", t1.Len(), t1)
	}
	// Row with a1 joins r2 and r3(e1,f1); the two a2 rows are padded
	// on r3 (and the c2 row padded on r2 as well).
	type row struct{ a, d, e3, f3 string }
	want := []row{
		{"a1", "d1", "e1", "f1"},
		{"a2", "d1", "-", "-"},
		{"a2", "-", "-", "-"},
	}
	for i, w := range want {
		got := row{
			a:  strAt(t, t1, i, schema.Attr("r1", "a")),
			d:  strAt(t, t1, i, schema.Attr("r2", "d")),
			e3: strAt(t, t1, i, schema.Attr("r3", "e")),
			f3: strAt(t, t1, i, schema.Attr("r3", "f")),
		}
		if got != w {
			t.Errorf("T1 row %d = %+v, want %+v\n%s", i, got, w, t1)
		}
	}
}

// TestExample21T2 computes table T2: (r1 →p12 r2) →p23 r3. Dropping
// p13 from the outer join lets the a2/c1 tuple (and the a1 tuple)
// match both r3 rows, so unlike T1 the a2/c1 tuple carries non-null
// e and f values — the difference the paper points out.
func TestExample21T2(t *testing.T) {
	r1, r2, r3 := example21()
	t2 := LeftOuter(p23, LeftOuter(p12, r1, r2), r3)
	if t2.Len() != 5 {
		t.Fatalf("T2 has %d rows, want 5 (two matches each for the two c1 tuples, one padded row):\n%s", t2.Len(), t2)
	}
	padded := 0
	for i := 0; i < t2.Len(); i++ {
		if t2.Tuple(i)[t2.Schema().IndexOf(schema.Attr("r3", "e"))].IsNull() {
			padded++
			if got := strAt(t, t2, i, schema.Attr("r1", "c")); got != "c2" {
				t.Errorf("padded T2 row should be the c2 tuple, got r1.c=%s", got)
			}
		}
	}
	if padded != 1 {
		t.Errorf("T2 has %d padded rows, want 1:\n%s", padded, t2)
	}
}

// TestExample21Compensation is the paper's punchline for Example 2.1:
// applying σ*_{p13}[r1r2] on top of T2 compensates for the broken-up
// complex predicate and yields exactly T1.
func TestExample21Compensation(t *testing.T) {
	r1, r2, r3 := example21()
	t1 := LeftOuter(expr.And(p13, p23), LeftOuter(p12, r1, r2), r3)
	t2 := LeftOuter(p23, LeftOuter(p12, r1, r2), r3)
	got := MustGenSelect(p13, []map[string]bool{RelSet("r1", "r2")}, t2)
	if !got.EqualAsSets(t1) {
		t.Fatalf("σ*_p13[r1r2](T2) != T1\ngot:\n%s\nwant:\n%s", got.String(), t1.String())
	}
}

// randRel builds a random relation with the given name, columns, row
// count and value domain size. Small domains force joins, NULLs and
// duplicates to occur.
func randRel(rng *rand.Rand, name string, cols []string, rows, domain int) *relation.Relation {
	b := relation.NewBuilder(name, cols...)
	for i := 0; i < rows; i++ {
		vals := make([]value.Value, len(cols))
		for j := range cols {
			if rng.Intn(8) == 0 {
				vals[j] = value.Null
			} else {
				vals[j] = value.NewInt(int64(rng.Intn(domain)))
			}
		}
		b.Row(vals...)
	}
	return b.Relation()
}

// TestGSSubsumesJoins checks the Section 2 equations
//
//	r1 ⋈p r2 = σ*_p[](r1 × r2)
//	r1 →p r2 = σ*_p[r1](r1 × r2)
//	r1 ↔p r2 = σ*_p[r1,r2](r1 × r2)
//
// on randomized inputs. The equations hold whenever both inputs are
// non-empty; the empty-side caveat of Definition 2.1 (π is taken over
// r = r1 × r2, which loses the preserved side when the other side is
// empty) is pinned separately in TestGSEmptySideCaveat.
func TestGSSubsumesJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		r1 := randRel(rng, "r1", []string{"a", "b"}, 1+rng.Intn(6), 4)
		r2 := randRel(rng, "r2", []string{"b", "c"}, 1+rng.Intn(6), 4)
		p := expr.EqCols("r1", "b", "r2", "b")
		prod := Product(r1, r2)

		if got, want := MustGenSelect(p, nil, prod), Join(p, r1, r2); !got.EqualAsSets(want) {
			t.Fatalf("trial %d: σ*_p[](r1×r2) != r1⋈r2\ngot:\n%s\nwant:\n%s", trial, got.String(), want.String())
		}
		if got, want := MustGenSelect(p, []map[string]bool{RelSet("r1")}, prod), LeftOuter(p, r1, r2); !got.EqualAsSets(want) {
			t.Fatalf("trial %d: σ*_p[r1](r1×r2) != r1→r2\ngot:\n%s\nwant:\n%s", trial, got.String(), want.String())
		}
		if got, want := MustGenSelect(p, []map[string]bool{RelSet("r1"), RelSet("r2")}, prod), FullOuter(p, r1, r2); !got.EqualAsSets(want) {
			t.Fatalf("trial %d: σ*_p[r1,r2](r1×r2) != r1↔r2\ngot:\n%s\nwant:\n%s", trial, got.String(), want.String())
		}
	}
}

// TestGSEmptySideCaveat documents that Definition 2.1 taken literally
// (projections over r, not over the preserved relations' own
// extensions) diverges from the left outer join when the
// null-supplying side is empty: the cartesian product is empty, so
// nothing is preserved.
func TestGSEmptySideCaveat(t *testing.T) {
	r1 := relation.NewBuilder("r1", "a").Row(value.NewInt(1)).Relation()
	r2 := relation.NewBuilder("r2", "a").Relation()
	p := expr.EqCols("r1", "a", "r2", "a")
	loj := LeftOuter(p, r1, r2)
	if loj.Len() != 1 {
		t.Fatalf("LOJ with empty null-supplier should preserve r1, got %d rows", loj.Len())
	}
	gs := MustGenSelect(p, []map[string]bool{RelSet("r1")}, Product(r1, r2))
	if gs.Len() != 0 {
		t.Fatalf("literal Definition 2.1 over an empty product preserves nothing, got %d rows", gs.Len())
	}
}

// TestRightOuter checks r1 ←p r2 = mirror of r2 →p r1 with r1's
// columns leading.
func TestRightOuter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		r1 := randRel(rng, "r1", []string{"a"}, rng.Intn(5), 3)
		r2 := randRel(rng, "r2", []string{"a"}, rng.Intn(5), 3)
		p := expr.EqCols("r1", "a", "r2", "a")
		got := RightOuter(p, r1, r2)
		want := LeftOuter(p, r2, r1)
		if !got.EqualAsSets(want) {
			t.Fatalf("trial %d: ← is not the mirror of →", trial)
		}
		if !slices.Equal(got.Schema().Attrs(), r1.Schema().Concat(r2.Schema()).Attrs()) {
			t.Fatalf("trial %d: ← schema %s", trial, got.Schema())
		}
	}
}

// TestFullOuterDecomposition checks r1 ↔p r2 = (r1 ⋈p r2) ∪ padded(r1
// ▷p r2) ∪ padded(r2 ▷p r1), the Section 1.2 definition.
func TestFullOuterDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		r1 := randRel(rng, "r1", []string{"a", "b"}, rng.Intn(6), 3)
		r2 := randRel(rng, "r2", []string{"b", "c"}, rng.Intn(6), 3)
		p := expr.EqCols("r1", "b", "r2", "b")
		full := FullOuter(p, r1, r2)
		join := Join(p, r1, r2)
		want := join.
			OuterUnion(antiJoin(p, r1, r2)).
			OuterUnion(antiJoin(p, r2, r1)).
			Reorder(full.Schema())
		if !full.EqualAsSets(want) {
			t.Fatalf("trial %d: full outer join decomposition failed\ngot:\n%s\nwant:\n%s",
				trial, full.String(), want.String())
		}
	}
}

// TestAntiJoinComplementsJoin checks that the join and anti-join
// partition r1 by matchedness.
func TestAntiJoinComplementsJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		r1 := randRel(rng, "r1", []string{"a"}, rng.Intn(8), 3)
		r2 := randRel(rng, "r2", []string{"a"}, rng.Intn(8), 3)
		p := expr.EqCols("r1", "a", "r2", "a")
		join := Join(p, r1, r2)
		anti := antiJoin(p, r1, r2)
		rid := schema.RID("r1")
		matched := make(map[string]bool)
		for _, tu := range join.Tuples() {
			matched[tu[join.Schema().IndexOf(rid)].Key()] = true
		}
		for _, tu := range anti.Tuples() {
			if matched[tu[anti.Schema().IndexOf(rid)].Key()] {
				t.Fatalf("trial %d: anti-join kept a matched tuple", trial)
			}
		}
		if join.Project([]schema.Attribute{rid}, true).Len()+anti.Len() != r1.Len() {
			t.Fatalf("trial %d: join/anti-join do not partition r1", trial)
		}
	}
}

// TestSelectNullIntolerance pins footnote 2: predicates evaluate to
// (effectively) false on NULL inputs.
func TestSelectNullIntolerance(t *testing.T) {
	r := relation.NewBuilder("r", "a").
		Row(value.NewInt(1)).
		Row(value.Null).
		Relation()
	for _, op := range []value.CmpOp{value.EQ, value.NE, value.LT, value.LE, value.GT, value.GE} {
		p := expr.Cmp{Op: op, L: expr.Column("r", "a"), R: expr.Column("r", "a")}
		got := Select(p, r)
		for _, tu := range got.Tuples() {
			if tu[got.Schema().IndexOf(schema.Attr("r", "a"))].IsNull() {
				t.Errorf("op %s selected a NULL tuple", op)
			}
		}
	}
}

func TestGroupProjectBasics(t *testing.T) {
	r := relation.NewBuilder("r", "g", "v").
		Row(value.NewInt(1), value.NewInt(10)).
		Row(value.NewInt(1), value.NewInt(20)).
		Row(value.NewInt(2), value.Null).
		Row(value.NewInt(2), value.NewInt(5)).
		Row(value.Null, value.NewInt(7)).
		Relation()
	g := schema.Attr("r", "g")
	aggs := []Aggregate{
		{Func: CountStar, Out: schema.Attr("q", "cstar")},
		{Func: Count, Arg: expr.Column("r", "v"), Out: schema.Attr("q", "cnt")},
		{Func: Sum, Arg: expr.Column("r", "v"), Out: schema.Attr("q", "sum")},
		{Func: Min, Arg: expr.Column("r", "v"), Out: schema.Attr("q", "min")},
		{Func: Max, Arg: expr.Column("r", "v"), Out: schema.Attr("q", "max")},
		{Func: Avg, Arg: expr.Column("r", "v"), Out: schema.Attr("q", "avg")},
	}
	out := GroupProject([]schema.Attribute{g}, aggs, r)
	if out.Len() != 3 {
		t.Fatalf("got %d groups, want 3 (NULL groups with NULL):\n%s", out.Len(), out)
	}
	byKey := map[string][]string{}
	for _, tu := range out.Tuples() {
		row := make([]string, 0, 6)
		for _, a := range aggs {
			row = append(row, tu[out.Schema().IndexOf(a.Out)].String())
		}
		byKey[tu[out.Schema().IndexOf(g)].String()] = row
	}
	check := func(key string, want []string) {
		t.Helper()
		got := byKey[key]
		if len(got) != len(want) {
			t.Fatalf("group %s missing", key)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("group %s agg %d = %s, want %s", key, i, got[i], want[i])
			}
		}
	}
	check("1", []string{"2", "2", "30", "10", "20", "15"})
	check("2", []string{"2", "1", "5", "5", "5", "5"})
	check("-", []string{"1", "1", "7", "7", "7", "7"})
}

func TestGroupProjectDistinctAggs(t *testing.T) {
	r := relation.NewBuilder("r", "v").
		Row(value.NewInt(3)).
		Row(value.NewInt(3)).
		Row(value.NewInt(4)).
		Row(value.Null).
		Relation()
	aggs := []Aggregate{
		{Func: CountDistinct, Arg: expr.Column("r", "v"), Out: schema.Attr("q", "cd")},
		{Func: SumDistinct, Arg: expr.Column("r", "v"), Out: schema.Attr("q", "sd")},
		{Func: AvgDistinct, Arg: expr.Column("r", "v"), Out: schema.Attr("q", "ad")},
	}
	out := GroupProject(nil, aggs, r)
	if out.Len() != 1 {
		t.Fatalf("want one row, got %d", out.Len())
	}
	tu := out.Tuple(0)
	if got := tu[out.Schema().IndexOf(schema.Attr("q", "cd"))].Int(); got != 2 {
		t.Errorf("count(distinct) = %d, want 2", got)
	}
	if got := tu[out.Schema().IndexOf(schema.Attr("q", "sd"))].Int(); got != 7 {
		t.Errorf("sum(distinct) = %d, want 7", got)
	}
	if got := tu[out.Schema().IndexOf(schema.Attr("q", "ad"))].Float(); got != 3.5 {
		t.Errorf("avg(distinct) = %v, want 3.5", got)
	}
}

func TestGroupProjectEmptyInput(t *testing.T) {
	r := relation.NewBuilder("r", "g", "v").Relation()
	aggs := []Aggregate{{Func: CountStar, Out: schema.Attr("q", "c")}}
	withKeys := GroupProject([]schema.Attribute{schema.Attr("r", "g")}, aggs, r)
	if withKeys.Len() != 0 {
		t.Errorf("empty input with GROUP BY should give 0 groups, got %d", withKeys.Len())
	}
	scalar := GroupProject(nil, aggs, r)
	if scalar.Len() != 1 || scalar.Tuple(0)[scalar.Schema().IndexOf(schema.Attr("q", "c"))].Int() != 0 {
		t.Errorf("scalar aggregate over empty input should give one row with count 0:\n%s", scalar)
	}
}

// TestGroupProjectDistinctOnly checks π_X with no aggregates = SELECT
// DISTINCT X.
func TestGroupProjectDistinctOnly(t *testing.T) {
	r := relation.NewBuilder("r", "a", "b").
		Row(value.NewInt(1), value.NewInt(2)).
		Row(value.NewInt(1), value.NewInt(2)).
		Row(value.NewInt(1), value.NewInt(3)).
		Relation()
	out := GroupProject([]schema.Attribute{schema.Attr("r", "a"), schema.Attr("r", "b")}, nil, r)
	if out.Len() != 2 {
		t.Fatalf("distinct projection: got %d rows, want 2", out.Len())
	}
}

// TestMGOJ checks that MGOJ with a full left-side preservation equals
// the left outer join (on non-empty inputs) and that a partial
// preservation keeps only the specified projection.
func TestMGOJ(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		r1 := randRel(rng, "r1", []string{"a", "b"}, 1+rng.Intn(5), 3)
		r2 := randRel(rng, "r2", []string{"b", "c"}, 1+rng.Intn(5), 3)
		p := expr.EqCols("r1", "b", "r2", "b")
		got, err := MGOJ(p, []map[string]bool{RelSet("r1")}, r1, r2)
		if err != nil {
			t.Fatal(err)
		}
		want := LeftOuter(p, r1, r2)
		if !got.EqualAsSets(want) {
			t.Fatalf("trial %d: MGOJ[r1] != LOJ", trial)
		}
	}
}

func TestGenSelectBadSpec(t *testing.T) {
	r := relation.NewBuilder("r1", "a").Row(value.NewInt(1)).Relation()
	_, err := GenSelect(expr.True{}, []map[string]bool{RelSet("nosuch")}, r)
	if err == nil {
		t.Fatal("expected error for preserved spec naming an absent relation")
	}
}

func TestCountRel(t *testing.T) {
	r1, r2, _ := example21()
	joined := Join(p12, r1, r2)
	out := GroupProject(
		[]schema.Attribute{schema.Attr("r1", "c"), schema.Attr("r2", "d")},
		[]Aggregate{CountRel("r1", schema.Attr("v1", "c"))},
		joined,
	)
	if out.Len() != 1 {
		t.Fatalf("want one (c1,d1) group, got %d:\n%s", out.Len(), out)
	}
	if got := out.Tuple(0)[out.Schema().IndexOf(schema.Attr("v1", "c"))].Int(); got != 2 {
		t.Errorf("count(r1) = %d, want 2 (two r1 tuples with c=c1)", got)
	}
}

// antiJoin returns r1 ▷_p r2: the tuples of r1 with no p-match in r2,
// the reference the full-outer-join decomposition tests build with.
func antiJoin(p expr.Pred, r1, r2 *relation.Relation) *relation.Relation {
	s := r1.Schema().Concat(r2.Schema())
	out := relation.New(r1.Schema())
	scratch := make(relation.Tuple, s.Len())
	for _, t1 := range r1.Tuples() {
		matched := false
		copy(scratch, t1)
		for _, t2 := range r2.Tuples() {
			copy(scratch[len(t1):], t2)
			if p.Eval(expr.TupleEnv{Schema: s, Tuple: scratch}).Holds() {
				matched = true
				break
			}
		}
		if !matched {
			out.Append(t1.Clone())
		}
	}
	return out
}

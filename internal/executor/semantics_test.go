package executor

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// The kernel-semantics differential: every columnar kernel that
// compares values — the typed and boxed select kernels, the dense,
// hashed and partitioned join lookups, grouping, DISTINCT,
// MIN/MAX and sort — decides equality and order as plan.Eval does, on
// the values at the edges of the value order.

// semKinds are the physical kinds a column is drawn as, each with its
// share of the value domain {NaN (two payloads), ±0, ±Inf, 1, 1.5,
// 2^53, 2^53+1, MinInt64, MaxInt64, "a", true}; NULL joins every kind.
var semKinds = func() []struct {
	phys batch.Phys
	vals []value.Value
} {
	i, f := value.NewInt, value.NewFloat
	ints := []value.Value{i(0), i(1), i(1 << 53), i(1<<53 + 1), i(math.MinInt64), i(math.MaxInt64)}
	floats := []value.Value{
		f(math.NaN()), f(math.Float64frombits(0xfff8000000000001)), f(math.Copysign(0, -1)), f(0),
		f(math.Inf(1)), f(math.Inf(-1)), f(1), f(1.5), f(1 << 53), f(math.MinInt64), f(math.MaxInt64),
	}
	strs := []value.Value{value.NewString("a"), value.NewString("b")}
	anys := slices.Concat([]value.Value{value.NewBool(true)}, ints, floats, strs)
	return []struct {
		phys batch.Phys
		vals []value.Value
	}{{batch.PhysInt, ints}, {batch.PhysFloat, floats}, {batch.PhysStr, strs}, {batch.PhysAny, anys}}
}()

// semValue decodes one cell of kind k (an index into semKinds) from a
// byte: one of the kind's values, or NULL.
func semValue(k, b byte) value.Value {
	vals := semKinds[k%4].vals
	if i := int(b) % (len(vals) + 1); i < len(vals) {
		return vals[i]
	}
	return value.Null
}

var semOps = []value.CmpOp{value.EQ, value.NE, value.LT, value.LE, value.GT, value.GE}

// semTable is t(a, b, id) over the value pairs, one row each.
func semTable(pairs [][2]value.Value) *relation.Relation {
	b := relation.NewBuilder("t", "a", "b", "id")
	for i, p := range pairs {
		b.Row(p[0], p[1], value.NewInt(int64(i)))
	}
	return b.Relation()
}

// keyTable is name(k, id) over the values.
func keyTable(name string, vals []value.Value) *relation.Relation {
	b := relation.NewBuilder(name, "k", "id")
	for i, v := range vals {
		b.Row(v, value.NewInt(int64(i)))
	}
	return b.Relation()
}

// checkUnary runs the differential's single-table plans over t = rel:
// selections a θ b, a θ c, c θ a and a θ $1 bound to c for every c of
// consts; GROUP BY a with COUNT(*), MIN(b) and MAX(b); MIN and MAX of a
// over the whole table; DISTINCT a and DISTINCT a, b; and sorts on (a,
// b desc) and on a desc under a limit.
func checkUnary(t *testing.T, rel *relation.Relation, op value.CmpOp, consts []value.Value) {
	t.Helper()
	a, b := expr.Column("t", "a"), expr.Column("t", "b")
	scan := plan.NewScan("t")
	db := plan.Database{"t": rel}
	plans := []plan.Node{plan.NewSelect(expr.Cmp{Op: op, L: a, R: b}, scan)}
	for _, c := range consts {
		bound, err := plan.BindParams(plan.NewSelect(expr.Cmp{Op: op, L: a, R: expr.Param{Idx: 1}}, scan), []value.Value{c})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans,
			plan.NewSelect(expr.Cmp{Op: op, L: a, R: expr.Const{Val: c}}, scan),
			plan.NewSelect(expr.Cmp{Op: op, L: expr.Const{Val: c}, R: a}, scan),
			bound)
	}
	agg := func(f algebra.AggFunc, arg expr.Scalar, out string) algebra.Aggregate {
		return algebra.Aggregate{Func: f, Arg: arg, Out: schema.Attr("g", out)}
	}
	ta, tb := schema.Attr("t", "a"), schema.Attr("t", "b")
	plans = append(plans,
		plan.NewGroupBy([]schema.Attribute{ta}, []algebra.Aggregate{
			agg(algebra.CountStar, nil, "n"), agg(algebra.Min, b, "lo"), agg(algebra.Max, b, "hi")}, scan),
		plan.NewGroupBy(nil, []algebra.Aggregate{agg(algebra.Min, a, "lo"), agg(algebra.Max, a, "hi")}, scan),
		plan.NewProject([]schema.Attribute{ta}, true, scan),
		plan.NewProject([]schema.Attribute{ta, tb}, true, scan),
		plan.NewSortOrigin([]plan.SortKey{{Attr: ta}, {Attr: tb, Desc: true}}, -1, scan, ""),
		plan.NewSortOrigin([]plan.SortKey{{Attr: ta, Desc: true}}, 3, scan, ""),
	)
	for _, p := range plans {
		checkPlan(t, p, db)
	}
}

// checkJoins runs every join kind of l(k) = lk against r(k) = rk on
// l.k θ r.k, and for θ = EQ through every lookup of equiJoinPaths too.
func checkJoins(t *testing.T, lk, rk []value.Value, op value.CmpOp) {
	t.Helper()
	db := plan.Database{"l": keyTable("l", lk), "r": keyTable("r", rk)}
	pred := expr.Cmp{Op: op, L: expr.Column("l", "k"), R: expr.Column("r", "k")}
	for _, kind := range joinKinds {
		p := plan.NewJoin(kind, pred, plan.NewScan("l"), plan.NewScan("r"))
		checkPlan(t, p, db)
		if op != value.EQ {
			continue
		}
		want, err := p.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		for path, got := range equiJoinPaths(t, kind, batch.Of(db["l"]), batch.Of(db["r"])) {
			if !got.EqualAsMultisets(want) {
				t.Fatalf("%s, %s lookup, keys %v and %v:\n got %v\nwant %v", p, path, lk, rk, got, want)
			}
		}
	}
}

// checkPlan runs p on the columnar walker at every batch size and fails
// unless its answer is plan.Eval's: the same rows in the same order
// under a root sort, the same multiset otherwise.
func checkPlan(t *testing.T, p plan.Node, db plan.Database) {
	t.Helper()
	want, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	_, sorted := p.(*plan.Sort)
	for _, bs := range vecBatchSizes {
		got, err := runVec(p, db, nil, bs)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		same := got.EqualAsMultisets(want)
		for i := 0; sorted && same && i < got.Len(); i++ {
			same = got.Tuple(i).EqualTuple(want.Tuple(i))
		}
		if !same {
			t.Fatalf("%s at batch %d:\n got %v\nwant %v", p, bs, got, want)
		}
	}
}

// equiJoinPaths joins l and r on l.k = r.k through every lookup the
// columnar join takes: the dense index (when r's key qualifies), the
// hash table and the partitioned join.
func equiJoinPaths(t *testing.T, kind plan.JoinKind, l, r *batch.Rel) map[string]*relation.Relation {
	t.Helper()
	e := &vecEngine{batch: execBatchRows, reg: obs.NewRegistry()}
	env, key := l.Schema.Concat(r.Schema), []int{0}
	out := map[string]*relation.Relation{}
	probe := func(path string, lk *joinLookup) {
		lsel, rsel, err := e.probeJoin(kind, expr.True{}, env, l, r, lk, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[path] = batch.Gather2(env, l, lsel, r, rsel).ToRelation()
	}
	if lk, _ := denseLookup(l, r, key, key); lk != nil {
		probe("dense", lk)
	}
	lk, _ := hashLookup(l, r, key, key)
	probe("hashed", lk)
	part, err := e.partitionJoin(kind, expr.True{}, env, l, r, key, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	out["partitioned"] = part.ToRelation()
	return out
}

// TestKernelSemanticsMatchEval: for every pair of column kinds (Int,
// Float, Str, Any) and every θ, checkUnary holds on a table of every
// pair of the two kinds' values and NULL, and on its NULL-free rows
// (which take the typed sort comparators), with every domain value and
// NULL as the constant, and checkJoins holds with each kind's values
// and NULL on one side and the other's, twice over, on the other. Two
// int columns over {0, 1} and NULL take the dense lookup and dense
// grouping too.
func TestKernelSemanticsMatchEval(t *testing.T) {
	consts := append([]value.Value{value.Null}, semKinds[3].vals...)
	for _, ki := range semKinds {
		for _, kj := range semKinds {
			lk, rk := append(ki.vals, value.Null), append(kj.vals, value.Null)
			var pairs, nonNull [][2]value.Value
			for _, x := range lk {
				for _, y := range rk {
					pairs = append(pairs, [2]value.Value{x, y})
					if !x.IsNull() && !y.IsNull() {
						nonNull = append(nonNull, [2]value.Value{x, y})
					}
				}
			}
			rels := []*relation.Relation{semTable(pairs), semTable(nonNull)}
			for _, rel := range rels {
				img := batch.Of(rel)
				if img.Col(0).Phys != ki.phys || img.Col(1).Phys != kj.phys {
					t.Fatalf("premise: columns are %s and %s, want %s and %s", img.Col(0).Phys, img.Col(1).Phys, ki.phys, kj.phys)
				}
			}
			for _, op := range semOps {
				t.Run(fmt.Sprintf("%s-%s/%s", ki.phys, kj.phys, op), func(t *testing.T) {
					for _, rel := range rels {
						checkUnary(t, rel, op, consts)
					}
					checkJoins(t, lk, append(rk, rk...), op)
				})
			}
		}
	}
	zero, one, null := value.NewInt(0), value.NewInt(1), value.Null
	lk, rk := []value.Value{one, zero, null, one, one, zero}, []value.Value{zero, one, one, null, one, zero}
	if dl, _ := denseLookup(batch.Of(keyTable("l", lk)), batch.Of(keyTable("r", rk)), []int{0}, []int{0}); dl == nil {
		t.Fatal("premise: the {0, 1} keys are not dense")
	}
	var pairs [][2]value.Value
	for i := range lk {
		pairs = append(pairs, [2]value.Value{lk[i], rk[i]})
	}
	for _, op := range semOps {
		checkUnary(t, semTable(pairs), op, []value.Value{zero, one})
		checkJoins(t, lk, rk, op)
	}
}

// FuzzKernelSemantics: checkUnary over any column kinds, cells and
// constant, and checkJoins of the two columns. shape packs the kinds of
// a and b (bits 0-1, 2-3) and θ (bits 4-7, modulo 6); konst is an
// Any-kind cell; cells holds two bytes a row.
func FuzzKernelSemantics(f *testing.F) {
	f.Add(byte(0x01), byte(0), []byte{0, 1, 1, 0, 2, 2, 7, 7})
	f.Add(byte(0x05), byte(1), []byte{0, 1, 1, 0, 3, 3, 11, 2, 8, 9, 10, 8})
	f.Add(byte(0x07), byte(13), []byte{0, 12, 1, 13, 8, 9, 2, 3})
	f.Add(byte(0x3d), byte(5), []byte{4, 5, 6, 7, 14, 15, 16, 17, 20, 1})
	f.Add(byte(0x4f), byte(18), []byte{3, 9, 9, 3, 19, 0, 0, 19, 1, 1})
	f.Add(byte(0x52), byte(20), []byte{0, 0, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, shape, konst byte, cells []byte) {
		var pairs [][2]value.Value
		var lk, rk []value.Value
		for i := 0; i+1 < len(cells) && len(pairs) < 64; i += 2 {
			a, b := semValue(shape&3, cells[i]), semValue(shape>>2&3, cells[i+1])
			pairs, lk, rk = append(pairs, [2]value.Value{a, b}), append(lk, a), append(rk, b)
		}
		op := semOps[int(shape>>4)%len(semOps)]
		checkUnary(t, semTable(pairs), op, []value.Value{semValue(3, konst)})
		checkJoins(t, lk, rk, op)
	})
}

package plan

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/value"
)

// skeletonFixture has twelve slots (so "$1" is a prefix of "$10",
// "$11" and "$12"), a slot referenced twice, slots inside arithmetic
// and an aggregate argument, and a param-free subtree.
func skeletonFixture() Node {
	p := func(i int) expr.Scalar { return expr.Param{Idx: i} }
	var preds []expr.Pred
	for i := 1; i <= 12; i++ {
		preds = append(preds, expr.Cmp{Op: value.LE, L: expr.Column("r1", "y"), R: p(i)})
	}
	preds = append(preds, expr.Cmp{Op: value.GT, L: expr.Column("r2", "y"),
		R: expr.Arith{Op: expr.Mul, L: p(3), R: expr.Column("r1", "x")}})
	join := NewJoin(LeftJoin,
		expr.Conj{Preds: []expr.Pred{
			expr.Cmp{Op: value.EQ, L: expr.Column("r1", "x"), R: expr.Column("r2", "x")},
			expr.Cmp{Op: value.NE, L: expr.Column("r2", "y"), R: p(1)},
		}},
		NewSelect(expr.Conj{Preds: preds}, NewScan("r1")),
		NewScan("r2"))
	return NewGroupBy([]schema.Attribute{schema.Attr("r1", "y")},
		[]algebra.Aggregate{{Func: algebra.Sum, Arg: expr.Arith{Op: expr.Add, L: expr.Column("r2", "x"), R: p(12)},
			Out: schema.Attr("", "s")}},
		join)
}

// TestKeySkeletonSplicesBoundKey: splicing a binding into the skeleton
// is byte-identical to keying the tree BindParams builds, across value
// kinds and renderings that need quoting.
func TestKeySkeletonSplicesBoundKey(t *testing.T) {
	tmpl := skeletonFixture()
	k := NewKeySkeleton(tmpl)
	if k == nil {
		t.Fatalf("no skeleton for %s", Key(tmpl))
	}
	for trial, gen := range []func(i int) value.Value{
		func(i int) value.Value { return value.NewInt(int64(i)) },
		func(i int) value.Value { return value.NewInt(int64(-i) * 1e17) },
		func(i int) value.Value { return value.NewFloat(float64(i) / 7) },
		func(i int) value.Value { return value.NewFloat(math.Inf(1 - 2*(i%2))) },
		func(i int) value.Value { return value.NewString(fmt.Sprintf("s\"$%d\\\n'", i)) },
		func(i int) value.Value {
			switch i % 3 {
			case 0:
				return value.NewInt(int64(i))
			case 1:
				return value.NewString("")
			default:
				return value.NewFloat(1e300)
			}
		},
	} {
		params := make([]value.Value, 12)
		for i := range params {
			params[i] = gen(i)
		}
		bound, err := BindParams(tmpl, params)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := k.Splice(params), Key(bound); got != want {
			t.Fatalf("trial %d: splice differs from the bound key:\n  splice %s\n  key    %s", trial, got, want)
		}
	}
}

// TestKeySkeletonRefusesForeignDollar: a "$" the plan did not render
// for a parameter makes the skeleton unusable, and a param-free plan's
// skeleton is its key.
func TestKeySkeletonRefusesForeignDollar(t *testing.T) {
	for name, n := range map[string]Node{
		"relation": NewSelect(expr.Cmp{Op: value.EQ, L: expr.Column("t$1", "y"), R: expr.Param{Idx: 1}}, NewScan("t$1")),
		"constant": NewSelect(expr.Conj{Preds: []expr.Pred{
			expr.Cmp{Op: value.EQ, L: expr.Column("t", "y"), R: expr.Param{Idx: 1}},
			expr.Cmp{Op: value.EQ, L: expr.Column("t", "x"), R: expr.Str("$1")},
		}}, NewScan("t")),
		"lone": NewSelect(expr.Cmp{Op: value.EQ, L: expr.Column("t", "y"), R: expr.Str("$")}, NewScan("t")),
	} {
		if k := NewKeySkeleton(n); k != nil {
			t.Errorf("%s: skeleton accepted for %s", name, Key(n))
		}
	}
	free := NewSelect(expr.Cmp{Op: value.EQ, L: expr.Column("t", "y"), R: expr.Int(3)}, NewScan("t"))
	k := NewKeySkeleton(free)
	if k == nil || k.Splice(nil) != Key(free) {
		t.Fatalf("param-free skeleton %v does not splice to %s", k, Key(free))
	}
}

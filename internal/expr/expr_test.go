package expr

import (
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

func env(cols map[string]value.Value) Env {
	attrs := make([]schema.Attribute, 0, len(cols))
	vals := make([]value.Value, 0, len(cols))
	for k, v := range cols {
		attrs = append(attrs, schema.Attr("r", k))
		vals = append(vals, v)
	}
	return TupleEnv{Schema: schema.New(attrs...), Tuple: vals}
}

func TestColAndConst(t *testing.T) {
	e := env(map[string]value.Value{"a": value.NewInt(7)})
	if got := Column("r", "a").Eval(e); got.Int() != 7 {
		t.Errorf("col eval = %v", got)
	}
	if got := Column("r", "missing").Eval(e); !got.IsNull() {
		t.Errorf("missing column must be NULL, got %v", got)
	}
	if got := Int(3).Eval(e); got.Int() != 3 {
		t.Errorf("const = %v", got)
	}
	if Str("x").Eval(e).Str() != "x" || (Const{Val: value.NewFloat(1.5)}).Eval(e).Float() != 1.5 {
		t.Error("literal constructors wrong")
	}
}

func TestArith(t *testing.T) {
	e := env(map[string]value.Value{"a": value.NewInt(6), "b": value.NewInt(4), "n": value.Null})
	a, b := Column("r", "a"), Column("r", "b")
	cases := []struct {
		op   ArithOp
		want int64
	}{{Add, 10}, {Sub, 2}, {Mul, 24}}
	for _, c := range cases {
		if got := (Arith{Op: c.op, L: a, R: b}).Eval(e); got.Int() != c.want {
			t.Errorf("6 %v 4 = %v", c.op, got)
		}
	}
	if got := (Arith{Op: Div, L: a, R: b}).Eval(e); got.Float() != 1.5 {
		t.Errorf("6/4 = %v", got)
	}
	if got := (Arith{Op: Div, L: a, R: Int(0)}).Eval(e); !got.IsNull() {
		t.Errorf("division by zero must be NULL, got %v", got)
	}
	if got := (Arith{Op: Add, L: a, R: Column("r", "n")}).Eval(e); !got.IsNull() {
		t.Errorf("NULL propagation failed: %v", got)
	}
	if got := (Arith{Op: Add, L: Str("x"), R: Int(1)}).Eval(e); !got.IsNull() {
		t.Errorf("non-numeric arithmetic must be NULL: %v", got)
	}
	// Float contagion.
	if got := (Arith{Op: Mul, L: Const{Val: value.NewFloat(0.5)}, R: Int(4)}).Eval(e); got.Float() != 2 {
		t.Errorf("0.5*4 = %v", got)
	}
}

func TestCmpThreeValued(t *testing.T) {
	e := env(map[string]value.Value{"a": value.NewInt(1), "n": value.Null})
	eq := Eq(Column("r", "a"), Int(1))
	if eq.Eval(e) != value.True {
		t.Error("1 = 1 must be true")
	}
	unknown := Eq(Column("r", "n"), Int(1))
	if unknown.Eval(e) != value.Unknown {
		t.Error("NULL = 1 must be unknown")
	}
}

func TestConjShortCircuitAndThreeValue(t *testing.T) {
	e := env(map[string]value.Value{"a": value.NewInt(1), "n": value.Null})
	f := Eq(Column("r", "a"), Int(2))     // false
	u := Eq(Column("r", "n"), Int(1))     // unknown
	tr := Eq(Column("r", "a"), Int(1))    // true
	if And(f, u).Eval(e) != value.False { // false and unknown = false
		t.Error("false ∧ unknown must be false")
	}
	if And(tr, u).Eval(e) != value.Unknown {
		t.Error("true ∧ unknown must be unknown")
	}
	if And(tr, tr).Eval(e) != value.True {
		t.Error("true ∧ true must be true")
	}
	if (True{}).Eval(e) != value.True {
		t.Error("True must hold")
	}
}

func TestAndFlattening(t *testing.T) {
	a := Eq(Column("r1", "x"), Column("r2", "x"))
	b := Eq(Column("r2", "y"), Column("r3", "y"))
	c := Eq(Column("r1", "z"), Column("r3", "z"))
	p := And(And(a, b), True{}, c)
	conj := Conjuncts(p)
	if len(conj) != 3 {
		t.Fatalf("conjuncts = %d, want 3", len(conj))
	}
	if And().String() != "true" {
		t.Error("empty And must be true")
	}
	if And(a) != Pred(a) {
		t.Error("singleton And must unwrap")
	}
	if len(Conjuncts(True{})) != 0 {
		t.Error("True has no conjuncts")
	}
	if And(nil, a).String() != a.String() {
		t.Error("nil preds are dropped")
	}
}

func TestRelsAndClassification(t *testing.T) {
	simple := Eq(Column("r1", "x"), Column("r2", "x"))
	complexPred := And(simple, Eq(Column("r1", "y"), Column("r3", "y")))
	if got := Rels(complexPred); len(got) != 3 || got[0] != "r1" {
		t.Errorf("rels = %v", got)
	}
	if !References(complexPred, map[string]bool{"r3": true}) {
		t.Error("References wrong")
	}
}

func TestChainEnv(t *testing.T) {
	inner := env(map[string]value.Value{"a": value.NewInt(1)})
	outerAttrs := schema.New(schema.Attr("s", "b"))
	outer := TupleEnv{Schema: outerAttrs, Tuple: []value.Value{value.NewInt(2)}}
	chain := ChainEnv{Inner: inner, Outer: outer}
	if v, ok := chain.Lookup(schema.Attr("r", "a")); !ok || v.Int() != 1 {
		t.Error("inner lookup failed")
	}
	if v, ok := chain.Lookup(schema.Attr("s", "b")); !ok || v.Int() != 2 {
		t.Error("outer lookup failed")
	}
	if _, ok := chain.Lookup(schema.Attr("z", "z")); ok {
		t.Error("unknown attribute must miss")
	}
	noOuter := ChainEnv{Inner: inner}
	if _, ok := noOuter.Lookup(schema.Attr("s", "b")); ok {
		t.Error("nil outer must miss")
	}
}

func TestStrings(t *testing.T) {
	p := And(EqCols("r1", "x", "r2", "x"), Cmp{Op: value.LT, L: Column("r1", "y"), R: Int(3)})
	if p.String() != "r1.x = r2.x and r1.y < 3" {
		t.Errorf("conj string = %q", p.String())
	}
	a := Arith{Op: Mul, L: Int(2), R: Column("r", "c")}
	if a.String() != "(2 * r.c)" {
		t.Errorf("arith string = %q", a.String())
	}
	for _, op := range []ArithOp{Add, Sub, Mul, Div} {
		if op.String() == "?" {
			t.Errorf("missing String for %d", op)
		}
	}
}

func TestDisjAndNot(t *testing.T) {
	e := env(map[string]value.Value{"a": value.NewInt(1), "n": value.Null})
	tr := Eq(Column("r", "a"), Int(1))
	fa := Eq(Column("r", "a"), Int(2))
	un := Eq(Column("r", "n"), Int(1))

	if Or(fa, tr).Eval(e) != value.True {
		t.Error("false ∨ true must be true")
	}
	if Or(fa, fa).Eval(e) != value.False {
		t.Error("false ∨ false must be false")
	}
	if Or(fa, un).Eval(e) != value.Unknown {
		t.Error("false ∨ unknown must be unknown")
	}
	if Or(tr, un).Eval(e) != value.True {
		t.Error("true ∨ unknown must be true")
	}
	// Flattening and unwrapping.
	if Or(tr) != Pred(tr) {
		t.Error("singleton Or must unwrap")
	}
	nested := Or(Or(fa, fa), tr)
	if len(nested.(disj).Preds) != 3 {
		t.Errorf("Or must flatten, got %s", nested)
	}
	if got := Or(fa, tr).String(); got != "(r.a = 2 or r.a = 1)" {
		t.Errorf("Or string = %q", got)
	}
	if got := Or(fa, tr).Attrs(nil); len(got) != 2 {
		t.Errorf("Or attrs = %v", got)
	}

	if (Not{P: tr}).Eval(e) != value.False || (Not{P: fa}).Eval(e) != value.True {
		t.Error("Not truth table wrong")
	}
	if (Not{P: un}).Eval(e) != value.Unknown {
		t.Error("Not(unknown) must stay unknown")
	}
	if got := (Not{P: tr}).String(); got != "not (r.a = 1)" {
		t.Errorf("Not string = %q", got)
	}
	if got := (Not{P: tr}).Attrs(nil); len(got) != 1 {
		t.Errorf("Not attrs = %v", got)
	}
}

func TestPredHelpers(t *testing.T) {
	if got := (True{}).Attrs(nil); len(got) != 0 {
		t.Errorf("True attrs = %v", got)
	}
	conj := Conj{Preds: []Pred{Eq(Column("r1", "x"), Column("r2", "x"))}}
	if got := conj.Attrs(nil); len(got) != 2 {
		t.Errorf("Conj attrs = %v", got)
	}
	set := RelSet(conj)
	if !set["r1"] || !set["r2"] || len(set) != 2 {
		t.Errorf("RelSet = %v", set)
	}
	if (Conj{}).String() != "true" {
		t.Error("empty Conj string")
	}
}

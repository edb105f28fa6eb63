package value

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genValue draws a random value, including NULLs, for property tests.
func genValue(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return Null
	case 1:
		return NewInt(int64(rng.Intn(7) - 3))
	case 2:
		return NewFloat(float64(rng.Intn(7)-3) / 2)
	case 3:
		return NewString(string(rune('a' + rng.Intn(4))))
	default:
		return NewBool(rng.Intn(2) == 0)
	}
}

// Generate implements quick.Generator.
func (Value) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genValue(rng))
}

func TestKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null, kindNull, "-"},
		{NewInt(42), KindInt, "42"},
		{NewFloat(2.5), KindFloat, "2.5"},
		{NewString("x"), KindString, "x"},
		{NewBool(true), KindBool, "true"},
		{NewBool(false), KindBool, "false"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("%v string = %q, want %q", c.v, c.v.String(), c.str)
		}
	}
	if !Null.IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull wrong")
	}
	if KindFloat.String() != "FLOAT" || Kind(99).String() == "" {
		t.Error("Kind.String wrong")
	}
}

func TestAccessorsPanic(t *testing.T) {
	assertPanics := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	assertPanics(func() { Null.Int() })
	assertPanics(func() { NewInt(1).Str() })
	assertPanics(func() { NewString("x").Float() })
	assertPanics(func() { NewInt(1).Bool() })
}

func TestCompareMixedNumeric(t *testing.T) {
	if c, ok := Compare(NewInt(2), NewFloat(2.0)); !ok || c != 0 {
		t.Errorf("2 vs 2.0: %d %v", c, ok)
	}
	if c, ok := Compare(NewInt(2), NewFloat(2.5)); !ok || c != -1 {
		t.Errorf("2 vs 2.5: %d %v", c, ok)
	}
	if _, ok := Compare(NewInt(1), NewString("1")); ok {
		t.Error("int vs string should be incomparable")
	}
	if _, ok := Compare(Null, NewInt(1)); ok {
		t.Error("NULL comparisons must fail")
	}
	if c, ok := Compare(NewBool(false), NewBool(true)); !ok || c != -1 {
		t.Errorf("false < true: %d %v", c, ok)
	}
	if c, ok := Compare(NewString("a"), NewString("b")); !ok || c != -1 {
		t.Errorf("string compare: %d %v", c, ok)
	}
}

// TestApplyNullIntolerant pins footnote 2: every operator yields
// Unknown on NULL operands.
func TestApplyNullIntolerant(t *testing.T) {
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		if got := Apply(op, Null, NewInt(1)); got != Unknown {
			t.Errorf("Apply(%v, NULL, 1) = %v", op, got)
		}
		if got := Apply(op, NewInt(1), Null); got != Unknown {
			t.Errorf("Apply(%v, 1, NULL) = %v", op, got)
		}
	}
}

func TestApplyOps(t *testing.T) {
	a, b := NewInt(1), NewInt(2)
	cases := map[CmpOp]Tristate{EQ: False, NE: True, LT: True, LE: True, GT: False, GE: False}
	for op, want := range cases {
		if got := Apply(op, a, b); got != want {
			t.Errorf("1 %v 2 = %v, want %v", op, got, want)
		}
	}
}

// TestFlipProperty: a θ b == b θ.Flip() a for all values and ops.
func TestFlipProperty(t *testing.T) {
	f := func(a, b Value) bool {
		for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
			if Apply(op, a, b) != Apply(op.Flip(), b, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTristateLaws checks commutativity, identity and De Morgan for
// three-valued logic by exhaustion.
func TestTristateLaws(t *testing.T) {
	all := []Tristate{True, False, Unknown}
	for _, a := range all {
		for _, b := range all {
			if a.And(b) != b.And(a) {
				t.Errorf("And not commutative at %v,%v", a, b)
			}
			if a.Or(b) != b.Or(a) {
				t.Errorf("Or not commutative at %v,%v", a, b)
			}
			if a.And(b).Not() != a.Not().Or(b.Not()) {
				t.Errorf("De Morgan (and) fails at %v,%v", a, b)
			}
			if a.Or(b).Not() != a.Not().And(b.Not()) {
				t.Errorf("De Morgan (or) fails at %v,%v", a, b)
			}
		}
		if a.And(True) != a || a.Or(False) != a {
			t.Errorf("identity laws fail at %v", a)
		}
		if a.And(False) != False || a.Or(True) != True {
			t.Errorf("absorbing laws fail at %v", a)
		}
		if a.Not().Not() != a {
			t.Errorf("double negation fails at %v", a)
		}
	}
	if !True.Holds() || False.Holds() || Unknown.Holds() {
		t.Error("Holds wrong")
	}
	if fromBool(true) != True || fromBool(false) != False {
		t.Error("FromBool wrong")
	}
}

// TestKeyEqualConsistency: Equal(a,b) iff Key(a) == Key(b).
func TestKeyEqualConsistency(t *testing.T) {
	f := func(a, b Value) bool {
		return Equal(a, b) == (a.Key() == b.Key())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestHash64EqualConsistency: Equal(a,b) implies equal hashes — the
// contract every collision-verified hash consumer relies on. (The
// converse need not hold: hashes may collide.)
func TestHash64EqualConsistency(t *testing.T) {
	f := func(a, b Value) bool {
		if Equal(a, b) && a.Hash64() != b.Hash64() {
			return false
		}
		return a.Hash64() == a.Hash64() // deterministic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestHash64Identities(t *testing.T) {
	if NewInt(3).Hash64() != NewFloat(3).Hash64() {
		t.Error("numerically equal int/float must share a hash bucket")
	}
	if NewFloat(0).Hash64() != NewFloat(negZero()).Hash64() {
		t.Error("-0 and +0 are Equal and must share a hash bucket")
	}
	if Null.Hash64() != Null.Hash64() {
		t.Error("NULL hash must be stable")
	}
	kinds := []Value{Null, NewInt(0), NewString(""), NewBool(false), NewBool(true)}
	seen := map[uint64]Value{}
	for _, v := range kinds {
		if prev, dup := seen[v.Hash64()]; dup {
			t.Errorf("kind-level collision between %#v and %#v", prev, v)
		}
		seen[v.Hash64()] = v
	}
}

// TestHash64HugeIntCollision pins the documented collision: distinct
// int64s beyond 2^53 that share a float64 image hash equal while Equal
// keeps them apart — exactly the case collision verification exists
// for (and the case the adversarial executor tests exploit).
func TestHash64HugeIntCollision(t *testing.T) {
	a, b := NewInt(1<<53), NewInt(1<<53+1)
	if Equal(a, b) {
		t.Fatal("2^53 and 2^53+1 are distinct ints")
	}
	if a.Hash64() != b.Hash64() {
		t.Fatal("expected a hash collision through the float64 image")
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

func TestEqualNullIdentity(t *testing.T) {
	if !Equal(Null, Null) {
		t.Error("NULL must be identical to NULL for grouping")
	}
	if Equal(Null, NewInt(0)) {
		t.Error("NULL != 0")
	}
	if !Equal(NewInt(3), NewFloat(3)) {
		t.Error("numerically equal int/float group together")
	}
}

func TestCmpOpString(t *testing.T) {
	want := map[CmpOp]string{EQ: "=", NE: "<>", LT: "<", LE: "<=", GT: ">", GE: ">="}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%v string = %q", op, op.String())
		}
	}
}

func TestGoString(t *testing.T) {
	if NewString("a b").GoString() != `"a b"` {
		t.Errorf("GoString = %q", NewString("a b").GoString())
	}
	if NewInt(3).GoString() != "3" {
		t.Errorf("GoString = %q", NewInt(3).GoString())
	}
}

// orderDomain holds the values at the edges of the value order: NULL,
// NaN with two payloads, ±0, ±Inf, and 1, 1.5, 2^53, 2^53+1, MinInt64
// and MaxInt64 as every kind that holds them (the float nearest
// MaxInt64 is 2^63), a string and a bool.
func orderDomain() []Value {
	f, i := NewFloat, NewInt
	return []Value{
		Null,
		f(math.NaN()), f(math.Float64frombits(0xfff8000000000001)),
		f(negZero()), f(0), i(0),
		f(math.Inf(1)), f(math.Inf(-1)),
		i(1), f(1), f(1.5),
		i(1 << 53), f(1 << 53), i(1<<53 + 1),
		i(math.MinInt64), f(math.MinInt64), i(math.MaxInt64), f(math.MaxInt64),
		NewString("a"), NewBool(true),
	}
}

// TestValueOrderProperties: over orderDomain, Equal is an equivalence,
// Key draws exactly its classes, Hash64 is constant on them, two floats
// are Equal exactly when their CanonicalFloat bits are, and
// Compare is a total preorder on each comparable kind (numbers,
// strings, bools) whose ties are exactly Equal's.
func TestValueOrderProperties(t *testing.T) {
	dom := orderDomain()
	for _, a := range dom {
		if !Equal(a, a) {
			t.Errorf("Equal(%v, %v) is false", a, a)
		}
		for _, b := range dom {
			eq := Equal(a, b)
			if eq != Equal(b, a) {
				t.Errorf("Equal(%v, %v) = %v but not symmetric", a, b, eq)
			}
			if eq != (a.Key() == b.Key()) {
				t.Errorf("Equal(%v, %v) = %v, keys %q and %q", a, b, eq, a.Key(), b.Key())
			}
			if eq && a.Hash64() != b.Hash64() {
				t.Errorf("Equal(%v, %v) but hashes differ", a, b)
			}
			if a.Kind() == KindFloat && b.Kind() == KindFloat &&
				eq != (math.Float64bits(CanonicalFloat(a.f)) == math.Float64bits(CanonicalFloat(b.f))) {
				t.Errorf("Equal(%v, %v) = %v, but not on canonical bits", a, b, eq)
			}
			ab, ok := Compare(a, b)
			comparable := !a.IsNull() && !b.IsNull() && (a.Kind() == b.Kind() || a.IsNumeric() && b.IsNumeric())
			if ok != comparable {
				t.Errorf("Compare(%v, %v) comparable = %v, want %v", a, b, ok, comparable)
			}
			if !ok {
				if eq && !a.IsNull() {
					t.Errorf("Equal(%v, %v) on incomparable values", a, b)
				}
				continue
			}
			if eq != (ab == 0) {
				t.Errorf("Compare(%v, %v) = %d but Equal = %v", a, b, ab, eq)
			}
			if ba, _ := Compare(b, a); ba != -ab {
				t.Errorf("Compare(%v, %v) = %d, Compare(%v, %v) = %d", a, b, ab, b, a, ba)
			}
			for _, c := range dom {
				bc, ok := Compare(b, c)
				if !ok {
					continue
				}
				if eq && Equal(b, c) && !Equal(a, c) {
					t.Errorf("Equal not transitive over %v, %v, %v", a, b, c)
				}
				if ac, _ := Compare(a, c); ab <= 0 && bc <= 0 && ac > 0 {
					t.Errorf("Compare not transitive: %v ≤ %v ≤ %v but %v > %v", a, b, c, a, c)
				}
			}
		}
	}
}

// TestValueOrderPins: NaN sorts above +Inf, and INT/FLOAT compare by
// exact value where the float64 image of the int would tie.
func TestValueOrderPins(t *testing.T) {
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{NewFloat(math.NaN()), NewFloat(math.Inf(1)), 1},
		{NewFloat(math.NaN()), NewInt(math.MaxInt64), 1},
		{NewInt(1<<53 + 1), NewFloat(1 << 53), 1},
		{NewInt(math.MaxInt64), NewFloat(math.MaxInt64), -1},
		{NewInt(math.MinInt64), NewFloat(math.MinInt64), 0},
		{NewInt(1), NewFloat(1.5), -1},
		{NewInt(-1), NewFloat(-1.5), 1},
		{NewInt(0), NewFloat(negZero()), 0},
	} {
		if got, ok := Compare(c.a, c.b); !ok || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, ok, c.want)
		}
	}
}

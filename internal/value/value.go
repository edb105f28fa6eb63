// Package value implements SQL scalar values with NULL and the
// three-valued logic that null in-tolerant predicate evaluation
// (Section 1.2 of Goel & Iyer, SIGMOD '96) is built on.
//
// A Value is a small immutable variant record: one of NULL, INT,
// FLOAT, STRING or BOOL. Comparisons between values follow SQL
// semantics: any comparison involving NULL yields Unknown, numeric
// kinds compare by value (an INT compares with a FLOAT), and
// cross-kind comparisons between non-numeric kinds are an error at
// plan-build time, surfaced here as Unknown.
//
// The package owns the one value order (Compare) that every predicate,
// join, grouping, hash and sort decides by; Equal, Key and Hash64 are
// its equality classes.
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported value kinds.
const (
	kindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case kindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is an immutable SQL scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a STRING value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a BOOL value.
func NewBool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the value's runtime kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == kindNull }

// Int returns the INT payload; it panics if the kind is not INT.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: Int() on %s", v.kind))
	}
	return v.i
}

// Float returns the FLOAT payload, converting from INT if needed; it
// panics for non-numeric kinds.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	}
	panic(fmt.Sprintf("value: Float() on %s", v.kind))
}

// Str returns the STRING payload; it panics if the kind is not STRING.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: Str() on %s", v.kind))
	}
	return v.s
}

// Bool returns the BOOL payload; it panics if the kind is not BOOL.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: Bool() on %s", v.kind))
	}
	return v.b
}

// IsNumeric reports whether the value is INT or FLOAT.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for plan and table printing. NULL renders
// as "-" to match the dashes in the paper's example tables.
func (v Value) String() string {
	switch v.kind {
	case kindNull:
		return "-"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// GoString renders the value unambiguously for debugging.
func (v Value) GoString() string {
	if v.kind == KindString {
		return strconv.Quote(v.s)
	}
	return v.String()
}

// Tristate is the result of a three-valued-logic predicate: True,
// False or Unknown. SQL's WHERE/ON clauses keep a tuple only when the
// predicate is True, so Unknown behaves like False for filtering —
// exactly the "null in-tolerant" behaviour the paper assumes.
type Tristate uint8

// The three logic values.
const (
	Unknown Tristate = iota
	False
	True
)

// String returns "true", "false" or "unknown".
func (t Tristate) String() string {
	switch t {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// fromBool lifts a Go bool into a Tristate.
func fromBool(b bool) Tristate {
	if b {
		return True
	}
	return False
}

// And is three-valued conjunction.
func (t Tristate) And(o Tristate) Tristate {
	if t == False || o == False {
		return False
	}
	if t == True && o == True {
		return True
	}
	return Unknown
}

// Or is three-valued disjunction.
func (t Tristate) Or(o Tristate) Tristate {
	if t == True || o == True {
		return True
	}
	if t == False && o == False {
		return False
	}
	return Unknown
}

// Not is three-valued negation.
func (t Tristate) Not() Tristate {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Holds reports whether the tristate is True; Unknown filters out.
func (t Tristate) Holds() bool { return t == True }

// Compare orders two values under the one value order every equality,
// grouping, hashing and sorting decision uses. It returns (-1|0|+1,
// true) when the values are comparable and (0, false) otherwise
// (either side NULL, or incompatible kinds). Numbers compare by exact
// value: −0 equals +0, NaN equals NaN and sorts above +Inf, and an INT
// equals a FLOAT only when the float is integral and converts to that
// int exactly. STRING compares lexicographically; BOOL orders false <
// true.
func Compare(a, b Value) (int, bool) {
	switch {
	case a.kind == kindNull || b.kind == kindNull:
		return 0, false
	case a.kind == KindInt && b.kind == KindInt:
		return cmp.Compare(a.i, b.i), true
	case a.kind == KindFloat && b.kind == KindFloat:
		return CompareFloat(a.f, b.f), true
	case a.kind == KindInt && b.kind == KindFloat:
		return compareIntFloat(a.i, b.f), true
	case a.kind == KindFloat && b.kind == KindInt:
		return -compareIntFloat(b.i, a.f), true
	case a.kind != b.kind:
		return 0, false
	case a.kind == KindString:
		return strings.Compare(a.s, b.s), true
	case a.kind == KindBool:
		return cmp.Compare(boolRank(a.b), boolRank(b.b)), true
	}
	return 0, false
}

// CompareFloat is Compare's order on two FLOATs: by value, −0 equal to
// +0, NaN equal to NaN and above +Inf.
func CompareFloat(a, b float64) int {
	if a != a || b != b {
		return -cmp.Compare(a, b) // cmp.Compare puts NaN first
	}
	return cmp.Compare(a, b)
}

// compareIntFloat is Compare's order on an INT against a FLOAT.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f || f >= 1<<63:
		return -1
	case f < -1<<63:
		return 1
	}
	t := math.Trunc(f) // within int64's range, so int64(t) is exact
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f)
}

func boolRank(b bool) int {
	if b {
		return 1
	}
	return 0
}

// CmpOp is a comparison operator θ ∈ {=, ≠, <, ≤, >, ≥} as used in
// the paper's predicates.
type CmpOp uint8

// The comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String renders the operator in SQL syntax.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// Flip returns the operator that gives the same result with swapped
// operands: a θ b  ⇔  b θ.Flip() a.
func (op CmpOp) Flip() CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default: // EQ, NE are symmetric
		return op
	}
}

// Accepts reports whether a θ b holds, given c, the three-way Compare
// of a and b.
func (op CmpOp) Accepts(c int) bool {
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	}
	return false
}

// Apply evaluates a θ b under three-valued logic. Any NULL operand or
// kind mismatch yields Unknown, which makes every predicate built on
// Apply null in-tolerant in the paper's sense (footnote 2).
func Apply(op CmpOp, a, b Value) Tristate {
	c, ok := Compare(a, b)
	if !ok {
		return Unknown
	}
	return fromBool(op.Accepts(c))
}

// Equal reports identity equality: Compare gives 0, or both values are
// NULL. It is the equality of grouping, duplicate elimination, set
// difference and hash-bucket verification, where SQL treats NULLs as
// identical — not the three-valued `=` predicate.
func Equal(a, b Value) bool {
	if a.kind == kindNull || b.kind == kindNull {
		return a.kind == b.kind
	}
	c, ok := Compare(a, b)
	return ok && c == 0
}

// Per-kind hash seeds; arbitrary odd 64-bit constants. Numeric kinds
// share one seed because Equal merges INT and FLOAT identities.
const (
	hashSeedNull    uint64 = 0x9e3779b97f4a7c15
	hashSeedNumeric uint64 = 0xc2b2ae3d27d4eb4f
	hashSeedString  uint64 = 0x165667b19e3779f9
	hashSeedBool    uint64 = 0x27d4eb2f165667c5
)

// FNV-1a parameters, shared with the tuple-level combiners in the
// relation package.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// mix64 is the splitmix64 finalizer: a cheap full-avalanche mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash64 returns an allocation-free 64-bit hash consistent with Equal:
// Equal(a, b) implies a.Hash64() == b.Hash64(). Numbers hash through
// their float64 image, so unequal ints beyond 2^53 may collide, and
// consumers confirm bucket hits with Equal.
func (v Value) Hash64() uint64 {
	switch v.kind {
	case kindNull:
		return hashSeedNull
	case KindInt:
		return hashFloat64(float64(v.i))
	case KindFloat:
		return hashFloat64(v.f)
	case KindString:
		return HashStr(v.s)
	case KindBool:
		return HashBoolean(v.b)
	}
	return 0
}

func hashFloat64(f float64) uint64 {
	return mix64(hashSeedNumeric ^ math.Float64bits(CanonicalFloat(f)))
}

// CanonicalFloat is the one float of f's class under CompareFloat: +0
// for ±0, one NaN for every NaN payload, f itself otherwise. Floats
// are Equal exactly when their canonical bits are equal.
func CanonicalFloat(f float64) float64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return math.NaN()
	}
	return f
}

// HashInt64 is NewInt(v).Hash64() without constructing the Value: the
// hash of an INT, through the shared float64 image. The vectorized
// kernels hash typed column slices with these helpers so columnar and
// tuple hashing are guaranteed to agree bucket-for-bucket.
func HashInt64(v int64) uint64 { return hashFloat64(float64(v)) }

// HashFloat64 is NewFloat(f).Hash64() without constructing the Value.
func HashFloat64(f float64) uint64 { return hashFloat64(f) }

// HashStr is NewString(s).Hash64() without constructing the Value.
func HashStr(s string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return mix64(h ^ hashSeedString)
}

// HashBoolean is NewBool(b).Hash64() without constructing the Value.
func HashBoolean(b bool) uint64 {
	if b {
		return mix64(hashSeedBool ^ 1)
	}
	return mix64(hashSeedBool)
}

// HashNull is Null.Hash64(): the hash grouping keys use for NULL
// (grouping treats NULL as identical to NULL).
func HashNull() uint64 { return hashSeedNull }

// HashCombine folds one value hash into a running order-sensitive
// tuple hash (FNV-1a style over 64-bit lanes). Start from HashSeed.
func HashCombine(h, vh uint64) uint64 { return (h ^ vh) * fnvPrime64 }

// HashSeed is the initial accumulator for HashCombine chains.
const HashSeed = fnvOffset64

// Key returns a string that is equal for exactly the values that
// Equal treats as identical. It is used as a map key for grouping and
// set operations.
func (v Value) Key() string {
	switch v.kind {
	case kindNull:
		return "n"
	case KindInt:
		return "i" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		if f := v.f; f == math.Trunc(f) && f >= -1<<63 && f < 1<<63 {
			return "i" + strconv.FormatInt(int64(f), 10)
		}
		return "f" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return "s" + v.s
	case KindBool:
		if v.b {
			return "bt"
		}
		return "bf"
	}
	return "?"
}

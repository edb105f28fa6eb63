// Package column is the storage every relation is made of: one typed
// vector per attribute with a null bitmap. A base table is its columns
// (relation.Relation stores nothing else), the columnar executor reads
// them in place, and rows are boxed from them only on demand.
//
// A column is a Vec: one physical representation (PhysInt, PhysFloat,
// PhysStr, PhysBool when the column is monomorphic, PhysAny otherwise)
// plus a 1-bit-per-row null bitmap. NULLs never degrade a column to
// PhysAny — they live in the bitmap with a zero payload slot, so a 10%
// NULL integer column still runs the int64 kernels.
//
// The physical kind is decided as values arrive (Vec.Append): a column
// takes the kind of its first non-NULL value and keeps it until a value
// of another kind arrives, when it becomes PhysAny. INT and FLOAT are
// different kinds, so a mixed numeric column keeps its exact values
// boxed. A column with no non-NULL value is PhysAny.
package column

import (
	"fmt"
	"slices"

	"repro/internal/value"
)

// Phys is a column's physical representation.
type Phys uint8

// The physical column kinds. PhysAny is the escape hatch for columns
// that mix value kinds (other than NULL): rows are kept as boxed
// value.Value and the kernels fall back to generic code for that
// column only.
const (
	PhysAny Phys = iota
	PhysInt
	PhysFloat
	PhysStr
	PhysBool
)

// String returns the kind's short name.
func (p Phys) String() string {
	switch p {
	case PhysAny:
		return "any"
	case PhysInt:
		return "int"
	case PhysFloat:
		return "float"
	case PhysStr:
		return "str"
	case PhysBool:
		return "bool"
	default:
		return fmt.Sprintf("phys(%d)", uint8(p))
	}
}

// physOf is the physical kind a non-NULL value of kind k is stored as.
func physOf(k value.Kind) Phys {
	switch k {
	case value.KindInt:
		return PhysInt
	case value.KindFloat:
		return PhysFloat
	case value.KindString:
		return PhysStr
	case value.KindBool:
		return PhysBool
	}
	return PhysAny
}

// Vec is one column: a typed payload slice selected by Phys, plus an
// optional null bitmap (nil when the column has no NULLs). Payload
// slots of NULL rows hold the zero value and must not be interpreted.
type Vec struct {
	Phys Phys
	// mixed records that a PhysAny column holds a non-NULL value, so
	// Append need not look for one again. (It sits beside Phys, in that
	// field's padding.)
	mixed bool

	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Any    []value.Value
	Nulls  []uint64
}

// Len returns the column's row count.
func (v *Vec) Len() int {
	switch v.Phys {
	case PhysInt:
		return len(v.Ints)
	case PhysFloat:
		return len(v.Floats)
	case PhysStr:
		return len(v.Strs)
	case PhysBool:
		return len(v.Bools)
	default:
		return len(v.Any)
	}
}

// IsNull reports whether row i is NULL.
func (v *Vec) IsNull(i int) bool {
	return v.Nulls != nil && v.Nulls[i>>6]&(1<<(uint(i)&63)) != 0
}

// SetNull marks row i NULL, growing the bitmap to cover n rows on
// first use. It is for kernels filling a column they are building.
func (v *Vec) SetNull(i, n int) {
	if v.Nulls == nil {
		v.Nulls = make([]uint64, (n+63)>>6)
	}
	v.Nulls[i>>6] |= 1 << (uint(i) & 63)
}

// At boxes row i into a value.Value. It allocates nothing (Value is a
// small struct); hot kernels still prefer the typed slices.
func (v *Vec) At(i int) value.Value {
	if v.IsNull(i) {
		return value.Null
	}
	switch v.Phys {
	case PhysInt:
		return value.NewInt(v.Ints[i])
	case PhysFloat:
		return value.NewFloat(v.Floats[i])
	case PhysStr:
		return value.NewString(v.Strs[i])
	case PhysBool:
		return value.NewBool(v.Bools[i])
	default:
		return v.Any[i]
	}
}

// Gather returns a new column holding rows sel[0], sel[1], … of v.
// Index -1 emits a NULL row — the outer-join padding convention.
func (v *Vec) Gather(sel []int32) Vec {
	out := Vec{Phys: v.Phys}
	switch v.Phys {
	case PhysInt:
		out.Ints = gather(v, &out, v.Ints, sel)
	case PhysFloat:
		out.Floats = gather(v, &out, v.Floats, sel)
	case PhysStr:
		out.Strs = gather(v, &out, v.Strs, sel)
	case PhysBool:
		out.Bools = gather(v, &out, v.Bools, sel)
	default:
		out.Any = gather(v, &out, v.Any, sel)
	}
	return out
}

// gather copies v's payload slots at sel into a new payload slice,
// marking padded (-1) and NULL source rows in out's bitmap.
func gather[T any](v, out *Vec, src []T, sel []int32) []T {
	dst := make([]T, len(sel))
	for i, s := range sel {
		if s < 0 || v.IsNull(int(s)) {
			out.SetNull(i, len(sel))
		} else {
			dst[i] = src[s]
		}
	}
	return dst
}

// Nulls returns an n-row column of NULLs.
func Nulls(n int) Vec {
	v := Vec{Any: make([]value.Value, n), Nulls: make([]uint64, (n+63)>>6)}
	for i := range v.Nulls {
		v.Nulls[i] = ^uint64(0)
	}
	return v
}

// Append adds x as the column's next row, deciding the column's kind as
// the package comment describes: a column with no non-NULL row takes
// x's kind, a value of another kind boxes the rows already held into
// PhysAny. It writes only past the column's last row and into its own
// null bitmap, so the caller must own the bitmap (a relation copies a
// shared one first).
func (v *Vec) Append(x value.Value) {
	if v.Nulls == nil { // the common case: a NULL-free column and a value of its kind
		switch k := x.Kind(); {
		case k == value.KindInt && v.Phys == PhysInt:
			v.Ints = append(v.Ints, x.Int())
			return
		case k == value.KindFloat && v.Phys == PhysFloat:
			v.Floats = append(v.Floats, x.Float())
			return
		case k == value.KindString && v.Phys == PhysStr:
			v.Strs = append(v.Strs, x.Str())
			return
		}
	}
	n := v.Len()
	if v.Nulls != nil {
		for len(v.Nulls) <= n>>6 {
			v.Nulls = append(v.Nulls, 0)
		}
	}
	bit := uint64(1) << (uint(n) & 63)
	if x.IsNull() {
		if v.Nulls == nil {
			v.Nulls = make([]uint64, n>>6+1)
		}
		v.Nulls[n>>6] |= bit
		switch v.Phys {
		case PhysInt:
			v.Ints = append(v.Ints, 0)
		case PhysFloat:
			v.Floats = append(v.Floats, 0)
		case PhysStr:
			v.Strs = append(v.Strs, "")
		case PhysBool:
			v.Bools = append(v.Bools, false)
		default:
			v.Any = append(v.Any, value.Null)
		}
		return
	}
	if v.Nulls != nil {
		v.Nulls[n>>6] &^= bit
	}
	switch p := physOf(x.Kind()); {
	case v.Phys == p:
	case v.Phys == PhysAny && !v.mixed:
		if v.allNull(n) {
			v.retype(p, n, n+1)
		} else {
			v.mixed = true
		}
	case v.Phys != PhysAny:
		v.box(n)
	}
	switch v.Phys {
	case PhysInt:
		v.Ints = append(v.Ints, x.Int())
	case PhysFloat:
		v.Floats = append(v.Floats, x.Float())
	case PhysStr:
		v.Strs = append(v.Strs, x.Str())
	case PhysBool:
		v.Bools = append(v.Bools, x.Bool())
	default:
		v.Any = append(v.Any, x)
	}
}

// allNull reports whether each of the column's n rows is NULL.
func (v *Vec) allNull(n int) bool {
	if n == 0 {
		return true
	}
	if v.Nulls == nil {
		return false
	}
	for w := 0; w < n>>6; w++ {
		if v.Nulls[w] != ^uint64(0) {
			return false
		}
	}
	tail := uint64(1)<<(uint(n)&63) - 1
	return tail == 0 || v.Nulls[n>>6]&tail == tail
}

// Reserve makes room for k more rows of the column's kind, so that
// appending them allocates nothing unless one changes the kind. A
// PhysAny column reserves nothing: its kind is not decided yet, or its
// rows are boxed.
func (v *Vec) Reserve(k int) {
	switch v.Phys {
	case PhysInt:
		v.Ints = slices.Grow(v.Ints, k)
	case PhysFloat:
		v.Floats = slices.Grow(v.Floats, k)
	case PhysStr:
		v.Strs = slices.Grow(v.Strs, k)
	case PhysBool:
		v.Bools = slices.Grow(v.Bools, k)
	}
}

// retype turns a column of n NULL rows into kind p, zero payloads under
// its bitmap, with room for c rows.
func (v *Vec) retype(p Phys, n, c int) {
	v.Phys, v.Any = p, nil
	switch p {
	case PhysInt:
		v.Ints = make([]int64, n, c)
	case PhysFloat:
		v.Floats = make([]float64, n, c)
	case PhysStr:
		v.Strs = make([]string, n, c)
	case PhysBool:
		v.Bools = make([]bool, n, c)
	}
}

// box turns a typed column of n rows into PhysAny, keeping its values.
func (v *Vec) box(n int) {
	boxed := make([]value.Value, n, n+1)
	for i := range boxed {
		boxed[i] = v.At(i)
	}
	*v = Vec{Phys: PhysAny, Any: boxed, Nulls: v.Nulls, mixed: true}
}

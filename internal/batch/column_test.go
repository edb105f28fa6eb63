package batch

import (
	"math"
	"testing"

	"repro/internal/column"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// sniffColumn is the reference column shape of vals: two passes, the
// first deciding the physical kind from the non-NULL values — the kind
// of the first, PhysAny as soon as a second kind appears (INT and FLOAT
// included) or when there is none — and the second filling the payload
// under a null bitmap.
func sniffColumn(vals []value.Value) column.Vec {
	phys, sniffed := PhysAny, false
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		var p column.Phys
		switch v.Kind() {
		case value.KindInt:
			p = PhysInt
		case value.KindFloat:
			p = PhysFloat
		case value.KindString:
			p = PhysStr
		case value.KindBool:
			p = PhysBool
		}
		if !sniffed {
			phys, sniffed = p, true
		} else if phys != p {
			phys = PhysAny
			break
		}
	}
	n := len(vals)
	out := column.Vec{Phys: phys}
	switch phys {
	case PhysInt:
		out.Ints = make([]int64, n)
	case PhysFloat:
		out.Floats = make([]float64, n)
	case PhysStr:
		out.Strs = make([]string, n)
	case PhysBool:
		out.Bools = make([]bool, n)
	default:
		out.Any = make([]value.Value, n)
	}
	for i, v := range vals {
		if v.IsNull() {
			out.SetNull(i, n)
			continue
		}
		switch phys {
		case PhysInt:
			out.Ints[i] = v.Int()
		case PhysFloat:
			out.Floats[i] = v.Float()
		case PhysStr:
			out.Strs[i] = v.Str()
		case PhysBool:
			out.Bools[i] = v.Bool()
		default:
			out.Any[i] = v
		}
	}
	return out
}

// identical reports whether a and b are the same value bit for bit:
// same kind, and for floats the same bits (NaN is NaN, -0 is not +0).
func identical(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch {
	case a.IsNull():
		return true
	case a.Kind() == value.KindInt:
		return a.Int() == b.Int()
	case a.Kind() == value.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case a.Kind() == value.KindString:
		return a.Str() == b.Str()
	default:
		return a.Bool() == b.Bool()
	}
}

// sameVec fails t unless got has want's physical kind, length, null
// rows and values.
func sameVec(t *testing.T, what string, got, want *column.Vec) {
	t.Helper()
	if got.Phys != want.Phys || got.Len() != want.Len() {
		t.Fatalf("%s: %s column of %d rows, want %s of %d", what, got.Phys, got.Len(), want.Phys, want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.IsNull(i) != want.IsNull(i) {
			t.Fatalf("%s: row %d null=%v, want %v", what, i, got.IsNull(i), want.IsNull(i))
		}
		if !identical(got.At(i), want.At(i)) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got.At(i), want.At(i))
		}
	}
}

// fuzzValues decodes a value sequence two bytes a value: the first
// picks the kind, the second the payload. Floats come from a table of
// edge values (NaN, ±0, ±Inf) and integral values an INT can equal;
// ints include ±2^53+1, which no float64 holds.
func fuzzValues(data []byte) []value.Value {
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, 3, -2}
	ints := []int64{0, 3, -2, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64, 7}
	var vals []value.Value
	for i := 0; i+1 < len(data); i += 2 {
		k, p := data[i]%6, data[i+1]
		switch k {
		case 0:
			vals = append(vals, value.Null)
		case 1:
			vals = append(vals, value.NewInt(ints[p%8]))
		case 2:
			vals = append(vals, value.NewFloat(floats[p%8]))
		case 3:
			vals = append(vals, value.NewString(string(rune('a'+p%4))))
		case 4:
			vals = append(vals, value.NewBool(p%2 == 0))
		default:
			vals = append(vals, value.NewInt(int64(p)))
		}
	}
	return vals
}

// FuzzColumnAppend: for any value sequence, the column kind decided at
// append time — by relation.Builder row by row, with and without room
// reserved by Grow, by AppendAll in one batch, by batch.FromValues, and
// across a snapshot taken half way — has the reference sniff's physical
// kind, null bitmap and values, and the snapshot keeps the rows it was
// taken with.
func FuzzColumnAppend(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 1})       // NULLs, then INT: typed int
	f.Add([]byte{2, 0, 2, 1, 2, 2, 0, 0}) // NaN, +0, -0, NULL: typed float
	f.Add([]byte{1, 1, 2, 6})             // INT 3, FLOAT 3.0: boxed
	f.Add([]byte{3, 0, 0, 0, 4, 1})       // STRING, NULL, BOOL: boxed
	f.Add([]byte{4, 0, 4, 1, 0, 0, 0, 0}) // BOOLs then NULLs
	f.Add([]byte{0, 0, 2, 0, 1, 3, 2, 1}) // NULL, NaN, INT 2^53+1, +0
	f.Add(make([]byte, 2*70))             // 70 NULLs: PhysAny, bitmap over two words
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := fuzzValues(data)
		want := sniffColumn(vals)
		got := FromValues(vals)
		sameVec(t, "FromValues", &got, &want)

		s := schema.Base("t", "v")
		b := relation.NewBuilder("t", "v").Grow(len(vals))
		half := len(vals) / 2
		for _, v := range vals[:half] {
			b.Row(v)
		}
		snap, n := b.Relation().Columns()
		for _, v := range vals[half:] {
			b.Row(v)
		}
		cols, _ := b.Relation().Columns()
		sameVec(t, "Builder", &cols[0], &want)
		early := sniffColumn(vals[:half])
		if n != half {
			t.Fatalf("snapshot of %d rows, want %d", n, half)
		}
		sameVec(t, "snapshot", &snap[0], &early)

		plain := relation.NewBuilder("t", "v")
		for _, v := range vals {
			plain.Row(v)
		}
		cols, _ = plain.Relation().Columns()
		sameVec(t, "Builder without Grow", &cols[0], &want)

		rows := make([]relation.Tuple, len(vals))
		for i, v := range vals {
			rows[i] = relation.Tuple{v, value.NewInt(int64(i))}
		}
		all := relation.New(s)
		all.AppendAll(rows)
		cols, _ = all.Columns()
		sameVec(t, "AppendAll", &cols[0], &want)
	})
}

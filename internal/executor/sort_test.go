// Differential suite for the columnar sort kernel: on every input,
// limit and batch size, a Sort on the columnar engine must return
// plan.SortRows's rows in SortRows's order, and hand its input on
// unchanged exactly when SortRows leaves it in place. make race runs
// this file under the race detector.
package executor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/batch"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// sortKinds generate one column's values per physical kind. The float
// generator mixes in NaN, ±0 and ±Inf; the PhysAny one mixes INT,
// FLOAT (NaN included) and STRING values.
var sortKinds = []struct {
	phys batch.Phys
	gen  func(rng *rand.Rand) value.Value
}{
	{batch.PhysInt, func(rng *rand.Rand) value.Value { return value.NewInt(int64(rng.Intn(9) - 4)) }},
	{batch.PhysFloat, func(rng *rand.Rand) value.Value {
		switch rng.Intn(12) {
		case 0:
			return value.NewFloat(math.Copysign(0, -1))
		case 1:
			return value.NewFloat(math.NaN())
		case 2:
			return value.NewFloat(math.Inf(1 - 2*rng.Intn(2)))
		}
		return value.NewFloat(float64(rng.Intn(9)) / 4)
	}},
	{batch.PhysStr, func(rng *rand.Rand) value.Value { return value.NewString(fmt.Sprintf("s%d", rng.Intn(9))) }},
	{batch.PhysAny, func(rng *rand.Rand) value.Value {
		switch rng.Intn(7) {
		case 0, 1:
			return value.NewInt(int64(rng.Intn(5)))
		case 2, 3:
			return value.NewFloat(float64(rng.Intn(9)) / 2)
		case 4:
			return value.NewFloat(math.NaN())
		}
		return value.NewString(fmt.Sprintf("s%d", rng.Intn(3)))
	}},
}

// sortInputs builds the shapes a sort must tell apart over columns
// (a, b) of one kind plus a row id: sorted on the keys, in reverse, all
// tied on a, sorted on the leading key only, NULL-bearing and sorted,
// sorted but for its last row, one adjacent pair swapped, and unsorted.
func sortInputs(t *testing.T, rng *rand.Rand, gen func(*rand.Rand) value.Value, keys []plan.SortKey) map[string]*relation.Relation {
	t.Helper()
	build := func(rows int, nulls bool, tieA bool) *relation.Relation {
		b := relation.NewBuilder("t", "a", "b", "id")
		tie := gen(rng)
		for i := 0; i < rows; i++ {
			a, bv := gen(rng), gen(rng)
			if tieA {
				a = tie
			}
			if nulls && rng.Intn(5) == 0 {
				a = value.Null
			}
			if nulls && rng.Intn(5) == 0 {
				bv = value.Null
			}
			b.Row(a, bv, value.NewInt(int64(i)))
		}
		return b.Relation()
	}
	sorted := func(r *relation.Relation, keys []plan.SortKey) *relation.Relation {
		out, err := plan.SortRows(r, keys, -1)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	reverse := make([]plan.SortKey, len(keys))
	for i, k := range keys {
		reverse[i] = plan.SortKey{Attr: k.Attr, Desc: !k.Desc}
	}
	// A copy of the first row, appended, is out of order unless every
	// row ties on the keys.
	lastOut := sorted(build(60, false, false), keys)
	lastOut.Append(lastOut.Tuple(0).Clone())
	// One adjacent pair that differs on the keys, swapped: a single
	// violation, on the last key the pair differs on.
	swapped := sorted(build(60, true, false), keys)
	rows := swapped.Tuples()
	for i := len(rows) - 1; i > 0; i-- {
		if differ(swapped, keys, rows[i-1], rows[i]) {
			rows[i-1], rows[i] = rows[i], rows[i-1]
			break
		}
	}
	return map[string]*relation.Relation{
		"one pair swapped":            swapped,
		"sorted":                      sorted(build(60, false, false), keys),
		"reverse":                     sorted(build(60, false, false), reverse),
		"tied":                        sorted(build(60, false, true), keys),
		"tied, on the first key only": sorted(build(60, false, true), keys[:1]),
		"on the first key only":       sorted(build(60, true, false), keys[:1]),
		"nulls":                       sorted(build(60, true, false), keys),
		"lastOut":                     lastOut,
		"unsorted":                    build(60, true, false),
		"one row":                     build(1, false, false),
		"empty":                       build(0, false, false),
	}
}

// differ reports whether rows x and y of r differ on any key.
func differ(r *relation.Relation, keys []plan.SortKey, x, y relation.Tuple) bool {
	for _, k := range keys {
		i := r.Schema().IndexOf(k.Attr)
		if plan.CompareForSort(x[i], y[i]) != 0 {
			return true
		}
	}
	return false
}

// sortVec runs Sort(keys, limit) over rel on the columnar walker at
// batch size bs and returns the kernel's output unboxed.
func sortVec(rel *relation.Relation, keys []plan.SortKey, limit, bs int) (*batch.Rel, error) {
	e := &vecEngine{db: plan.Database{"t": rel}, batch: bs, reg: obs.NewRegistry()}
	return e.exec(plan.NewSort(keys, limit, plan.NewScan("t")))
}

// rowIDs lists the id column of rows, in order.
func rowIDs(r *relation.Relation) []int64 {
	c := r.Schema().IndexOf(schema.Attr("t", "id"))
	ids := make([]int64, r.Len())
	for i, t := range r.Tuples() {
		ids[i] = t[c].Int()
	}
	return ids
}

// TestColumnarSortMatchesSortRows is the differential: across PhysInt,
// PhysFloat, PhysStr and PhysAny key columns, one and two keys in both
// directions, every input shape, limits {none, 0, 1, 7, n-1, n, n+5}
// and batch sizes {1, 3, 1024}, the columnar Sort returns SortRows's
// rows in SortRows's order, and returns its input itself exactly when
// a full sort leaves it in place.
func TestColumnarSortMatchesSortRows(t *testing.T) {
	a, b := schema.Attr("t", "a"), schema.Attr("t", "b")
	keySets := [][]plan.SortKey{
		{{Attr: a}},
		{{Attr: a, Desc: true}},
		{{Attr: a}, {Attr: b, Desc: true}},
		{{Attr: a, Desc: true}, {Attr: b}},
	}
	rng := rand.New(rand.NewSource(37))
	for _, kind := range sortKinds {
		seen := map[bool]int{}
		for _, keys := range keySets {
			for shape, rel := range sortInputs(t, rng, kind.gen, keys) {
				in := batch.Of(rel)
				if rel.Len() > 1 && shape[:4] != "tied" && in.Col(0).Phys != kind.phys {
					t.Fatalf("%s/%s: test premise: column a is %s", kind.phys, shape, in.Col(0).Phys)
				}
				full, err := plan.SortRows(rel, keys, -1)
				if err != nil {
					t.Fatal(err)
				}
				inPlace := slices.Equal(rowIDs(full), rowIDs(rel))
				n := rel.Len()
				for _, limit := range []int{-1, 0, 1, 7, n - 1, n, n + 5} {
					want, err := plan.SortRows(rel, keys, limit)
					if err != nil {
						t.Fatal(err)
					}
					for _, bs := range vecBatchSizes {
						name := fmt.Sprintf("%s/%s/%v/limit=%d/batch=%d", kind.phys, shape, keys, limit, bs)
						out, err := sortVec(rel, keys, limit, bs)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if got, want := rowIDs(out.ToRelation()), rowIDs(want); !slices.Equal(got, want) {
							t.Fatalf("%s: columnar sort ids %v,\nSortRows %v", name, got, want)
						}
						if limit < 0 || limit >= n {
							if unchanged := out == in; unchanged != inPlace {
								t.Fatalf("%s: input handed on = %v, SortRows leaves it in place = %v", name, unchanged, inPlace)
							}
							seen[inPlace]++
						}
					}
				}
			}
		}
		if seen[true] == 0 || seen[false] == 0 {
			t.Fatalf("%s: test premise: inputs were only ever in place = %v", kind.phys, seen)
		}
	}
}

// TestSortNaNOrder pins CompareForSort's float order on both sort
// paths, over a typed NULL-free float column, a float column with a
// NULL (boxed comparisons) and a mixed-kind column: ascending, −Inf <
// −0 = +0 < 1 < +Inf < NaN = NaN < NULL, ties in input order;
// descending, the reverse with ties still in input order.
func TestSortNaNOrder(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	f := value.NewFloat
	for _, c := range []struct {
		name      string
		vals      []value.Value
		asc, desc []int64 // row ids
	}{
		{"typed float", []value.Value{f(1), f(nan), f(inf), f(-inf), f(negZero), f(0), f(nan)},
			[]int64{3, 4, 5, 0, 2, 1, 6}, []int64{1, 6, 2, 0, 4, 5, 3}},
		{"float with NULL", []value.Value{f(nan), value.Null, f(inf), f(0), f(negZero)},
			[]int64{3, 4, 2, 0, 1}, []int64{1, 0, 2, 3, 4}},
		{"mixed kinds", []value.Value{value.NewString("x"), f(nan), value.NewInt(2), f(inf), value.Null, value.NewInt(-1)},
			[]int64{5, 2, 3, 1, 0, 4}, []int64{4, 0, 1, 3, 2, 5}},
	} {
		b := relation.NewBuilder("t", "a", "id")
		for i, v := range c.vals {
			b.Row(v, value.NewInt(int64(i)))
		}
		rel := b.Relation()
		for _, desc := range []bool{false, true} {
			want := c.asc
			if desc {
				want = c.desc
			}
			keys := []plan.SortKey{{Attr: schema.Attr("t", "a"), Desc: desc}}
			rows, err := plan.SortRows(rel, keys, -1)
			if err != nil {
				t.Fatal(err)
			}
			if got := rowIDs(rows); !slices.Equal(got, want) {
				t.Errorf("%s desc=%v: SortRows ids %v, want %v", c.name, desc, got, want)
			}
			out, err := sortVec(rel, keys, -1, 1024)
			if err != nil {
				t.Fatal(err)
			}
			if got := rowIDs(out.ToRelation()); !slices.Equal(got, want) {
				t.Errorf("%s desc=%v: columnar ids %v, want %v", c.name, desc, got, want)
			}
		}
	}
}

// fuzzValue decodes one cell of a kind (0 int, 1 float, 2 string,
// 3 mixed) from a byte: every eighth byte is NULL, and the float cells
// include NaN, ±Inf and ±0.
func fuzzValue(kind, b byte) value.Value {
	if b%8 == 7 {
		return value.Null
	}
	if kind == 3 {
		kind = b % 3
		b /= 3
	}
	switch kind {
	case 0:
		return value.NewInt(int64(b%16) - 8)
	case 1:
		switch b % 16 {
		case 0:
			return value.NewFloat(math.NaN())
		case 1:
			return value.NewFloat(math.Inf(1))
		case 2:
			return value.NewFloat(math.Inf(-1))
		case 3:
			return value.NewFloat(math.Copysign(0, -1))
		}
		return value.NewFloat(float64(b%16) / 4)
	}
	return value.NewString(fmt.Sprintf("s%d", b%10))
}

// FuzzColumnarSort: over columns a and b of any kinds, NULLs and NaNs
// among them, one or two keys in either direction and any limit, the
// columnar Sort returns plan.SortRows's rows in its order. shape packs
// the kinds of a and b (bits 0-1, 2-3), the second key's presence
// (bit 4), which column leads (bit 5) and the two directions (bits
// 6-7); cells holds two bytes a row.
func FuzzColumnarSort(f *testing.F) {
	f.Add(byte(0x00), int8(-1), []byte{1, 2, 3, 4, 5, 6})
	f.Add(byte(0x15), int8(3), []byte{0, 1, 2, 3, 16, 17, 7, 7, 32, 4, 0, 0})
	f.Add(byte(0xff), int8(0), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(byte(0x5a), int8(7), []byte{0, 1, 0, 2, 0, 3, 1, 1, 2, 2, 3, 3, 17, 16, 15, 14})
	f.Add(byte(0x37), int8(100), []byte{})
	f.Add(byte(0x05), int8(-1), []byte{4, 0, 0, 1, 2, 3, 16, 5})
	f.Fuzz(func(t *testing.T, shape byte, limit int8, cells []byte) {
		bld := relation.NewBuilder("t", "a", "b", "id")
		for i := 0; i+1 < len(cells); i += 2 {
			bld.Row(fuzzValue(shape&3, cells[i]), fuzzValue(shape>>2&3, cells[i+1]), value.NewInt(int64(i/2)))
		}
		rel := bld.Relation()
		cols := []schema.Attribute{schema.Attr("t", "a"), schema.Attr("t", "b")}
		if shape&0x20 != 0 {
			cols[0], cols[1] = cols[1], cols[0]
		}
		keys := []plan.SortKey{{Attr: cols[0], Desc: shape&0x40 != 0}}
		if shape&0x10 != 0 {
			keys = append(keys, plan.SortKey{Attr: cols[1], Desc: shape&0x80 != 0})
		}
		want, err := plan.SortRows(rel, keys, int(limit))
		if err != nil {
			t.Fatal(err)
		}
		out, err := sortVec(rel, keys, int(limit), 1024)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rowIDs(out.ToRelation()), rowIDs(want); !slices.Equal(got, want) {
			t.Fatalf("keys %v limit %d: columnar ids %v, SortRows %v", keys, limit, got, want)
		}
	})
}

// BenchmarkExecSort times a Sort over a 100 000-row scan on an int64
// key with ties and a string key through Exec, every result column
// read: input already in key order (full sort), unsorted input (full
// sort), and unsorted input under LIMIT 10.
func BenchmarkExecSort(b *testing.B) {
	const rows = 100_000
	rng := rand.New(rand.NewSource(45))
	bld := relation.NewBuilder("t", "k", "s", "p")
	for i := 0; i < rows; i++ {
		bld.Row(value.NewInt(int64(rng.Intn(1000))), value.NewString(fmt.Sprintf("s%06d", rng.Intn(rows))), value.NewInt(int64(i)))
	}
	unsorted := bld.Relation()
	keys := []plan.SortKey{{Attr: schema.Attr("t", "k")}, {Attr: schema.Attr("t", "s")}}
	presorted, err := plan.SortRows(unsorted, keys, -1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		rel   *relation.Relation
		limit int
	}{
		{"presorted", presorted, -1},
		{"unsorted", unsorted, -1},
		{"top10", unsorted, 10},
	} {
		db := plan.Database{"t": c.rel}
		p := plan.NewSort(keys, c.limit, plan.NewScan("t"))
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, _, err := Exec(p, db, Options{})
				if err != nil {
					b.Fatal(err)
				}
				for col := 0; col < out.Width(); col++ {
					out.Col(col)
				}
			}
		})
	}
}

package batch

import (
	"encoding/binary"
	"math"
	"math/big"
	"slices"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/value"
)

// intVec is a PhysInt column over vals with the rows null reports NULL
// (their payload slots zeroed, as FromRelation leaves them).
func intVec(vals []int64, null func(i int) bool) *Vec {
	v := &Vec{Phys: PhysInt, Ints: slices.Clone(vals)}
	for i := range v.Ints {
		if null != nil && null(i) {
			v.Ints[i] = 0
			v.SetNull(i, len(vals))
		}
	}
	return v
}

// checkDense holds v's dense decision and index against a direct
// count: the decision is exactly span+1 ≤ 2·rows+2 (span taken without
// overflow; no non-NULL value is dense), and every key's run is the
// ascending list of the rows holding it, with NULL rows in no run.
func checkDense(t *testing.T, v *Vec) {
	t.Helper()
	want := map[int64][]int32{}
	for i, x := range v.Ints {
		if !v.IsNull(i) {
			want[x] = append(want[x], int32(i))
		}
	}
	dense := true
	if len(want) > 0 {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for x := range want {
			lo, hi = min(lo, x), max(hi, x)
		}
		span := new(big.Int).Sub(big.NewInt(hi), big.NewInt(lo))
		dense = span.Cmp(big.NewInt(int64(2*len(v.Ints)+1))) <= 0
	}
	d := NewDenseIndex(v)
	if _, _, ok := DenseRange(v); ok != dense || (d != nil) != dense {
		t.Fatalf("dense decision %v, index %v; want %v (%d rows, %d keys)", ok, d != nil, dense, len(v.Ints), len(want))
	}
	if d == nil {
		return
	}
	if len(d.Off) != int(d.Max-d.Min)+2 || d.Off[0] != 0 || int(d.Off[len(d.Off)-1]) != len(d.Rows) {
		t.Fatalf("offsets %v over [%d, %d] do not frame %d rows", d.Off, d.Min, d.Max, len(d.Rows))
	}
	total := 0
	for x, rows := range want {
		if got := d.Run(x); !slices.Equal(got, rows) {
			t.Fatalf("key %d: run %v, want %v", x, got, rows)
		}
		total += len(rows)
	}
	if total != len(d.Rows) {
		t.Fatalf("index holds %d rows, %d are non-NULL", len(d.Rows), total)
	}
	for k := 0; k+1 < len(d.Off); k++ {
		if x := d.Min + int64(k); want[x] == nil && d.Off[k] != d.Off[k+1] {
			t.Fatalf("absent key %d has rows %v", x, d.Rows[d.Off[k]:d.Off[k+1]])
		}
	}
	for _, x := range []int64{math.MinInt64, math.MaxInt64, d.Min - 1, d.Max + 1} {
		if want[x] == nil && len(d.Run(x)) != 0 {
			t.Fatalf("absent key %d has rows %v", x, d.Run(x))
		}
	}
}

// FuzzDenseIndex: for any int64 column and NULL mask, the dense
// decision never panics or overflows and the index's run of every key
// is the ascending list of the rows holding it. Narrow columns are
// base plus a signed byte per row (dense, heavy duplicates, near the
// int64 extremes); wide ones read eight bytes a row (rarely dense).
func FuzzDenseIndex(f *testing.F) {
	f.Add(int64(0), []byte{1, 2, 3, 2, 1}, false, []byte{0})
	f.Add(int64(-3), []byte{0, 0, 0, 255, 128, 127}, false, []byte{0x12})
	f.Add(int64(math.MaxInt64-100), []byte{100, 50, 0}, false, []byte{})
	f.Add(int64(math.MinInt64+100), []byte{156, 200, 0}, false, []byte{2})
	f.Add(int64(0), []byte{1, 2, 3}, false, []byte{0xff})
	f.Add(int64(0), []byte{}, false, []byte{})
	f.Add(int64(0), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, true, []byte{0})
	f.Add(int64(7), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0}, true, []byte{4})
	f.Fuzz(func(t *testing.T, base int64, data []byte, wide bool, nulls []byte) {
		var vals []int64
		if wide {
			for ; len(data) >= 8; data = data[8:] {
				vals = append(vals, base^int64(binary.LittleEndian.Uint64(data)))
			}
		} else {
			for _, b := range data {
				vals = append(vals, base+int64(int8(b)))
			}
		}
		checkDense(t, intVec(vals, func(i int) bool {
			return i/8 < len(nulls) && nulls[i/8]&(1<<(i%8)) != 0
		}))
	})
}

// TestBatchDenseRangeBound: the dense rule's edges — a span of exactly
// 2·rows+1 is dense, 2·rows+2 is not — and the extremes of int64.
func TestBatchDenseRangeBound(t *testing.T) {
	for _, c := range []struct {
		vals  []int64
		dense bool
	}{
		{[]int64{0, 7, 3}, true},   // span 7 = 2·3+1
		{[]int64{0, 8, 3}, false},  // span 8 = 2·3+2
		{[]int64{-4, 3, -4}, true}, // span 7, negatives
		{[]int64{math.MinInt64, math.MaxInt64}, false},
		{[]int64{math.MaxInt64, math.MaxInt64 - 5, math.MaxInt64}, true},
		{[]int64{math.MinInt64, math.MinInt64 + 1}, true},
		{nil, true},
	} {
		v := intVec(c.vals, nil)
		if _, _, ok := DenseRange(v); ok != c.dense {
			t.Errorf("%v: dense=%v, want %v", c.vals, ok, c.dense)
		}
		checkDense(t, v)
	}
	allNull := intVec([]int64{5, 6, 7}, func(int) bool { return true })
	if d := NewDenseIndex(allNull); d == nil || len(d.Rows) != 0 || len(d.Run(0)) != 0 {
		t.Fatal("an all-NULL column must index no row")
	}
	if _, _, ok := DenseRange(&Vec{Phys: PhysFloat, Floats: []float64{1}}); ok {
		t.Fatal("only PhysInt columns are dense")
	}
}

// TestBatchDenseIndex: a shared image decides and builds a column's
// dense index once however many joins race for it, aliases share it, a
// column that is not dense is remembered without a build, Append drops
// it with the image, and any other Rel builds a private one.
func TestBatchDenseIndex(t *testing.T) {
	b := relation.NewBuilder("t", "k", "wide")
	for i := 0; i < 100; i++ {
		b.Row(value.NewInt(int64(i%40-20)), value.NewInt(int64(i)<<40))
	}
	in := b.Relation()
	img := Of(in)
	builds := obs.Default().Counter("exec.index.builds")
	before := builds.Value()
	got := make([]*DenseIndex, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ix, shared := img.As(img.Schema).DenseIndex(0)
			if !shared {
				t.Error("an image's dense index must be shared")
			}
			got[g] = ix
			if ix, _ := img.DenseIndex(1); ix != nil {
				t.Error("a column spanning 99·2^40 over 100 rows is not dense")
			}
		}(g)
	}
	wg.Wait()
	first := got[0]
	for _, ix := range got {
		if ix == nil || ix != first {
			t.Fatal("concurrent DenseIndex calls returned different indexes")
		}
	}
	if n := builds.Value() - before; n != 1 {
		t.Fatalf("dense index built %d times, want 1", n)
	}
	checkDense(t, img.Col(0))
	if own, shared := FromRelation(in).DenseIndex(0); shared || own == first || !slices.Equal(own.Rows, first.Rows) {
		t.Fatal("a non-image Rel must build a private, equal index")
	}
	in.Append(relation.Tuple{value.NewInt(19), value.NewInt(0), value.NewInt(100)})
	if again, _ := Of(in).DenseIndex(0); again == first || len(again.Rows) != in.Len() || builds.Value()-before != 2 {
		t.Fatal("Append must drop the dense index with the image")
	}
}

package datagen

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/column"
	"repro/internal/value"
)

// columnBytes is the memory v's arrays hold: each payload slice and the
// null bitmap at capacity, plus the bytes of the strings it holds.
func columnBytes(v *column.Vec) int {
	n := 8*cap(v.Ints) + 8*cap(v.Floats) + 8*cap(v.Nulls) + cap(v.Bools)
	n += int(unsafe.Sizeof("")) * cap(v.Strs)
	for _, s := range v.Strs {
		n += len(s)
	}
	n += int(unsafe.Sizeof(value.Value{})) * cap(v.Any)
	return n
}

// TestSupplierHeapIsColumns: a loaded table is its columns. After
// generating the Example 1.1 database with 150 000 detail rows, the
// live heap it adds is at most 1.3× the bytes of its column vectors —
// no boxed copy of the rows, and no second, columnar copy of them.
func TestSupplierHeapIsColumns(t *testing.T) {
	cfg := DefaultSupplierConfig
	cfg.DetailRows = 150_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := Supplier(cfg)
	runtime.GC()
	runtime.ReadMemStats(&after)
	cols := 0
	for _, rel := range db {
		vecs, _ := rel.Columns()
		for c := range vecs {
			cols += columnBytes(&vecs[c])
		}
	}
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap after load %d B, columns %d B (%.2f×)", live, cols, float64(live)/float64(cols))
	if float64(live) > 1.3*float64(cols) {
		t.Errorf("loading the supplier database left %d B live for %d B of columns (%.2f×, ceiling 1.3×)",
			live, cols, float64(live)/float64(cols))
	}
	runtime.KeepAlive(db)
}

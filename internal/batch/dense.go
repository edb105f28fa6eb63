package batch

import (
	"math"

	"repro/internal/obs"
)

// DenseIndex is the join build side of one int64 key column whose
// non-NULL values are dense: a CSR index over key − Min instead of a
// hash table. The build rows holding key Min+k are Rows[Off[k]:Off[k+1]],
// in ascending row order — the order a JoinIndex chain lists them — so
// a probe row's matches come out exactly as the hashed join emits them,
// with no hash to compute or compare and no key to verify. NULL keys
// never enter it. An index over no non-NULL value has Min > Max.
type DenseIndex struct {
	Min, Max int64
	Off      []int32 // one offset per key in [Min, Max], plus a sentinel
	Rows     []int32 // non-NULL rows grouped by key, ascending within a key
}

// DenseRange returns the least and greatest non-NULL value of v and
// whether v is dense: a PhysInt column whose values span at most
// 2·rows+2 slots (hi−lo+1 ≤ 2·len+2). That bound is the smallest Head a
// JoinIndex chain gets for the same rows, so an index or a group table
// with one slot per key costs no more memory than the hashed structures
// it replaces. A column with no non-NULL value is dense with lo > hi.
func DenseRange(v *Vec) (lo, hi int64, ok bool) {
	if v.Phys != PhysInt {
		return 0, 0, false
	}
	lo, hi = math.MaxInt64, math.MinInt64
	for i, x := range v.Ints {
		if v.IsNull(i) {
			continue
		}
		lo, hi = min(lo, x), max(hi, x)
	}
	if lo > hi {
		return 0, -1, true
	}
	// As uint64, hi−lo is exact even where the int64 difference wraps.
	return lo, hi, uint64(hi)-uint64(lo) <= uint64(2*len(v.Ints)+1)
}

// NewDenseIndex builds v's dense index — one min/max pass and a counting
// sort — or returns nil when v is not dense (DenseRange).
func NewDenseIndex(v *Vec) *DenseIndex {
	lo, hi, ok := DenseRange(v)
	if !ok {
		return nil
	}
	d := &DenseIndex{Min: lo, Max: hi, Off: make([]int32, int(hi-lo)+2)}
	rows := 0
	for i, x := range v.Ints {
		if v.IsNull(i) {
			continue
		}
		d.Off[x-lo+1]++
		rows++
	}
	for k := 1; k < len(d.Off); k++ {
		d.Off[k] += d.Off[k-1]
	}
	// Off[k] is key k's fill cursor; filled, it sits where key k+1
	// starts, so shifting the cursors one key up restores the offsets.
	d.Rows = make([]int32, rows)
	for i, x := range v.Ints {
		if v.IsNull(i) {
			continue
		}
		k := x - lo
		d.Rows[d.Off[k]] = int32(i)
		d.Off[k]++
	}
	copy(d.Off[1:], d.Off[:len(d.Off)-1])
	d.Off[0] = 0
	return d
}

// Run returns the rows whose key is x, ascending; empty when none is.
// x is range-checked as itself, never as a difference that could wrap.
func (d *DenseIndex) Run(x int64) []int32 {
	if x < d.Min || x > d.Max {
		return nil
	}
	k := x - d.Min
	return d.Rows[d.Off[k]:d.Off[k+1]]
}

// denseEntry is an image's dense-index decision for one key column; ix
// is nil when the column is not dense.
type denseEntry struct {
	col int
	ix  *DenseIndex
}

// DenseIndex returns the dense index over column col, or nil when that
// column is not dense. A shared image decides once per column and
// builds at most once, under the lock that guards its join indexes
// (counted on exec.index.builds, its bytes gauged on exec.index.bytes,
// dropped with the image), and reports shared=true; any other Rel
// builds one for this call.
func (r *Rel) DenseIndex(col int) (ix *DenseIndex, shared bool) {
	if r.idx == nil {
		return NewDenseIndex(r.Col(col)), false
	}
	r.idx.mu.Lock()
	defer r.idx.mu.Unlock()
	for _, have := range r.idx.dense {
		if have.col == col {
			return have.ix, true
		}
	}
	ix = NewDenseIndex(r.Col(col))
	r.idx.dense = append(r.idx.dense, denseEntry{col, ix})
	if ix != nil {
		obs.Default().Counter("exec.index.builds").Inc()
		grown := int64(4 * (len(ix.Off) + len(ix.Rows)))
		r.idx.bytes += grown
		obs.Default().Gauge("exec.index.bytes").Add(grown)
	}
	return ix, true
}

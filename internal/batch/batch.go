// Package batch is the columnar side of the executor: relations
// re-shaped as per-column typed slices with null bitmaps, plus the
// branch-light kernels (gather, key hashing, typed row equality) the
// vectorized operators are built from.
//
// A column is a Vec: one physical representation (PhysInt, PhysFloat,
// PhysStr, PhysBool when the column is monomorphic, PhysAny otherwise)
// plus a 1-bit-per-row null bitmap. NULLs never degrade a column to
// PhysAny — they live in the bitmap with a zero payload slot, so a 10%
// NULL integer column still runs the int64 kernels. A Rel is a schema
// plus one Vec per attribute, all of the same length.
//
// Operators communicate row subsets with selection vectors: []int32
// row indices into a Rel, in ascending order for filters (preserving
// input order) and arbitrary order for join match lists. Index -1 in a
// gather means "NULL-pad this row" and is how outer-join padding stays
// inside the columnar kernels.
//
// Hashing is delegated to the value package's exported per-kind
// helpers (value.HashInt64 etc.), so a columnar key hash is
// bit-identical to Tuple.HashOn on the same data — columnar and tuple
// hash joins agree bucket-for-bucket, and the collision-verification
// contract (hash equality must be confirmed with value.Equal) carries
// over unchanged.
package batch

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
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

// Vec is one column: a typed payload slice selected by Phys, plus an
// optional null bitmap (nil when the column has no NULLs). Payload
// slots of NULL rows hold the zero value and must not be interpreted.
type Vec struct {
	Phys   Phys
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

// setNull marks row i NULL, growing the bitmap to cover n rows on
// first use.
func (v *Vec) setNull(i, n int) {
	if v.Nulls == nil {
		v.Nulls = make([]uint64, (n+63)>>6)
	}
	v.Nulls[i>>6] |= 1 << (uint(i) & 63)
}

// At boxes row i back into a value.Value. It allocates nothing (Value
// is a small struct); hot kernels still prefer the typed slices.
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

// Hash returns row i's value hash, identical to At(i).Hash64() (NULL
// hashes as value.HashNull, as grouping keys require).
func (v *Vec) Hash(i int) uint64 {
	if v.IsNull(i) {
		return value.HashNull()
	}
	switch v.Phys {
	case PhysInt:
		return value.HashInt64(v.Ints[i])
	case PhysFloat:
		return value.HashFloat64(v.Floats[i])
	case PhysStr:
		return value.HashStr(v.Strs[i])
	case PhysBool:
		return value.HashBoolean(v.Bools[i])
	default:
		return v.Any[i].Hash64()
	}
}

// HashInto folds each row's value hash into the running per-row key
// hashes hs (seeded with value.HashSeed by the caller), the columnar
// equivalent of one column's contribution to Tuple.HashOn. When
// nullMatches is false (join keys under null in-tolerant predicates) a
// NULL row clears ok[i] instead — its hash lane is left unusable, the
// row can never match. When nullMatches is true (grouping keys, where
// NULL is identical to NULL) NULL contributes value.HashNull and ok is
// untouched. The typed loops hoist the kind switch out of the per-row
// path; only PhysAny pays the per-row dispatch.
func (v *Vec) HashInto(hs []uint64, ok []bool, nullMatches bool) {
	n := len(hs)
	markNull := func(i int) {
		if nullMatches {
			hs[i] = value.HashCombine(hs[i], value.HashNull())
		} else {
			ok[i] = false
		}
	}
	switch v.Phys {
	case PhysInt:
		if v.Nulls == nil {
			for i := 0; i < n; i++ {
				hs[i] = value.HashCombine(hs[i], value.HashInt64(v.Ints[i]))
			}
			return
		}
		for i := 0; i < n; i++ {
			if v.IsNull(i) {
				markNull(i)
				continue
			}
			hs[i] = value.HashCombine(hs[i], value.HashInt64(v.Ints[i]))
		}
	case PhysFloat:
		if v.Nulls == nil {
			for i := 0; i < n; i++ {
				hs[i] = value.HashCombine(hs[i], value.HashFloat64(v.Floats[i]))
			}
			return
		}
		for i := 0; i < n; i++ {
			if v.IsNull(i) {
				markNull(i)
				continue
			}
			hs[i] = value.HashCombine(hs[i], value.HashFloat64(v.Floats[i]))
		}
	case PhysStr:
		if v.Nulls == nil {
			for i := 0; i < n; i++ {
				hs[i] = value.HashCombine(hs[i], value.HashStr(v.Strs[i]))
			}
			return
		}
		for i := 0; i < n; i++ {
			if v.IsNull(i) {
				markNull(i)
				continue
			}
			hs[i] = value.HashCombine(hs[i], value.HashStr(v.Strs[i]))
		}
	case PhysBool:
		for i := 0; i < n; i++ {
			if v.IsNull(i) {
				markNull(i)
				continue
			}
			hs[i] = value.HashCombine(hs[i], value.HashBoolean(v.Bools[i]))
		}
	default:
		for i := 0; i < n; i++ {
			if v.Any[i].IsNull() {
				markNull(i)
				continue
			}
			hs[i] = value.HashCombine(hs[i], v.Any[i].Hash64())
		}
	}
}

// EqualRows reports value.Equal between this column's row i and o's
// row j (NULL identical to NULL) — the collision-verification step
// after a hash bucket hit. Matching typed columns compare without
// boxing; mismatched or PhysAny columns go through value.Equal, which
// also handles the INT/FLOAT identity merge.
func (v *Vec) EqualRows(i int, o *Vec, j int) bool {
	ln, rn := v.IsNull(i), o.IsNull(j)
	if ln || rn {
		return ln && rn
	}
	if v.Phys == o.Phys {
		switch v.Phys {
		case PhysInt:
			return v.Ints[i] == o.Ints[j]
		case PhysFloat:
			return v.Floats[i] == o.Floats[j]
		case PhysStr:
			return v.Strs[i] == o.Strs[j]
		case PhysBool:
			return v.Bools[i] == o.Bools[j]
		}
	}
	return value.Equal(v.At(i), o.At(j))
}

// Gather returns a new column holding rows sel[0], sel[1], … of v.
// Index -1 emits a NULL row — the outer-join padding convention.
func (v *Vec) Gather(sel []int32) Vec {
	n := len(sel)
	out := Vec{Phys: v.Phys}
	fill := func(i int, s int32) bool {
		if s < 0 || v.IsNull(int(s)) {
			out.setNull(i, n)
			return false
		}
		return true
	}
	switch v.Phys {
	case PhysInt:
		out.Ints = make([]int64, n)
		for i, s := range sel {
			if fill(i, s) {
				out.Ints[i] = v.Ints[s]
			}
		}
	case PhysFloat:
		out.Floats = make([]float64, n)
		for i, s := range sel {
			if fill(i, s) {
				out.Floats[i] = v.Floats[s]
			}
		}
	case PhysStr:
		out.Strs = make([]string, n)
		for i, s := range sel {
			if fill(i, s) {
				out.Strs[i] = v.Strs[s]
			}
		}
	case PhysBool:
		out.Bools = make([]bool, n)
		for i, s := range sel {
			if fill(i, s) {
				out.Bools[i] = v.Bools[s]
			}
		}
	default:
		out.Any = make([]value.Value, n)
		for i, s := range sel {
			if fill(i, s) {
				out.Any[i] = v.Any[s]
			}
		}
	}
	return out
}

// Rel is a columnar relation: a schema and one equal-length Vec per
// attribute.
//
// A Rel is read-only once built. Kernels derive new Rels (sharing
// column vectors where nothing changes, as a projection does) and
// never write through Cols: a base table's image is shared by every
// concurrent query that scans it.
type Rel struct {
	Schema *schema.Schema
	Cols   []Vec
	N      int

	// src is the row-major relation these exact rows were shaped from,
	// in this order, possibly under another schema of the same width;
	// ToRelation hands it back instead of boxing the columns again. Only
	// FromRelation and As set it — a Rel a kernel derives has none.
	src *relation.Relation
}

// Of returns r's shared columnar image: shaped by FromRelation on the
// first call, cached on the relation itself, and dropped when the
// relation is appended to. This is how the vectorized engine scans a
// base table without re-shaping it per query; exec.image.builds counts
// the shapings, so a table that keeps being re-shaped shows.
func Of(r *relation.Relation) *Rel {
	return r.Image(func(r *relation.Relation) any {
		obs.Default().Counter("exec.image.builds").Inc()
		return FromRelation(r)
	}).(*Rel)
}

// As returns the same rows under schema s, which must have r's width —
// an aliased scan. The column vectors are shared, not copied.
func (r *Rel) As(s *schema.Schema) *Rel {
	if s.Len() != len(r.Cols) {
		panic(fmt.Sprintf("batch: schema %s does not fit %d columns", s, len(r.Cols)))
	}
	return &Rel{Schema: s, Cols: r.Cols, N: r.N, src: r.src}
}

// FromRelation re-shapes a row-major relation into columns. Each
// column's physical kind is sniffed from its non-NULL values: a
// monomorphic column gets its typed representation, a mixed-kind
// column (including INT mixed with FLOAT — kept boxed so the exact
// original values round-trip) degrades to PhysAny.
func FromRelation(r *relation.Relation) *Rel {
	n, w := r.Len(), r.Schema().Len()
	out := &Rel{Schema: r.Schema(), Cols: make([]Vec, w), N: n, src: r}
	phys := make([]Phys, w)
	sniffed := make([]bool, w)
	for _, t := range r.Tuples() {
		for c, v := range t {
			if v.IsNull() || (sniffed[c] && phys[c] == PhysAny) {
				continue
			}
			var p Phys
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
			if !sniffed[c] {
				phys[c], sniffed[c] = p, true
			} else if phys[c] != p {
				phys[c] = PhysAny
			}
		}
	}
	for c := 0; c < w; c++ {
		col := &out.Cols[c]
		col.Phys = phys[c]
		switch phys[c] {
		case PhysInt:
			col.Ints = make([]int64, n)
		case PhysFloat:
			col.Floats = make([]float64, n)
		case PhysStr:
			col.Strs = make([]string, n)
		case PhysBool:
			col.Bools = make([]bool, n)
		default:
			col.Any = make([]value.Value, n)
		}
		for i, t := range r.Tuples() {
			v := t[c]
			if v.IsNull() {
				col.setNull(i, n)
				continue
			}
			switch phys[c] {
			case PhysInt:
				col.Ints[i] = v.Int()
			case PhysFloat:
				col.Floats[i] = v.Float()
			case PhysStr:
				col.Strs[i] = v.Str()
			case PhysBool:
				col.Bools[i] = v.Bool()
			default:
				col.Any[i] = v
			}
		}
	}
	return out
}

// ToRelation returns the rows as a row-major relation. A Rel that still
// is what FromRelation shaped — a scanned base table, the output of a
// tuple-engine fallback — returns its source (re-labelled when the
// schema is an alias) without touching a value. Anything else is boxed:
// tuples are carved from one flat arena allocation (n×width values)
// rather than allocated per row. Callers must treat the result as
// read-only, as they must any operator input.
func (r *Rel) ToRelation() *relation.Relation {
	if r.src != nil {
		if r.src.Schema() == r.Schema {
			return r.src
		}
		out := relation.New(r.Schema)
		out.AppendAll(r.src.Tuples())
		return out
	}
	out := relation.New(r.Schema)
	w := r.Schema.Len()
	if r.N == 0 || w == 0 {
		for i := 0; i < r.N; i++ {
			out.Append(relation.Tuple{})
		}
		return out
	}
	arena := make([]value.Value, r.N*w)
	for c := range r.Cols {
		col := &r.Cols[c]
		for i := 0; i < r.N; i++ {
			arena[i*w+c] = col.At(i)
		}
	}
	tuples := make([]relation.Tuple, r.N)
	for i := 0; i < r.N; i++ {
		tuples[i] = relation.Tuple(arena[i*w : (i+1)*w : (i+1)*w])
	}
	out.AppendAll(tuples)
	return out
}

// Tuple boxes row i into a freshly allocated tuple.
func (r *Rel) Tuple(i int) relation.Tuple {
	t := make(relation.Tuple, len(r.Cols))
	for c := range r.Cols {
		t[c] = r.Cols[c].At(i)
	}
	return t
}

// ReadTuple fills dst (of schema width) with row i without allocating.
func (r *Rel) ReadTuple(i int, dst relation.Tuple) {
	for c := range r.Cols {
		dst[c] = r.Cols[c].At(i)
	}
}

// Select materializes the rows named by a selection vector into a new
// columnar relation (sel must not contain -1; use Gather2 for padded
// join output).
func (r *Rel) Select(sel []int32) *Rel {
	out := &Rel{Schema: r.Schema, Cols: make([]Vec, len(r.Cols)), N: len(sel)}
	for c := range r.Cols {
		out.Cols[c] = r.Cols[c].Gather(sel)
	}
	return out
}

// KeyHashes computes per-row key hashes over the columns at idx,
// matching Tuple.HashOn bit-for-bit. With nullMatches=false (join
// keys) a row with any NULL key column gets ok[i]=false and must not
// be probed or inserted; with nullMatches=true (grouping keys) NULL
// participates via value.HashNull and every row is ok.
func (r *Rel) KeyHashes(idx []int, nullMatches bool) (hs []uint64, ok []bool) {
	hs = make([]uint64, r.N)
	for i := range hs {
		hs[i] = value.HashSeed
	}
	ok = make([]bool, r.N)
	for i := range ok {
		ok[i] = true
	}
	for _, c := range idx {
		r.Cols[c].HashInto(hs, ok, nullMatches)
	}
	return hs, ok
}

// EqualOn reports pointwise value.Equal between this relation's row i
// at columns idx and o's row j at columns oidx — the columnar
// Tuple.EqualOn, used to verify key-hash bucket hits.
func (r *Rel) EqualOn(i int, o *Rel, j int, idx, oidx []int) bool {
	for k, c := range idx {
		if !r.Cols[c].EqualRows(i, &o.Cols[oidx[k]], j) {
			return false
		}
	}
	return true
}

// Gather2 builds a joined columnar relation over schema s (left's
// columns then right's): row k is left row lsel[k] concatenated with
// right row rsel[k], with -1 NULL-padding either side — inner matches
// and outer-join padding come out of the same kernel.
func Gather2(s *schema.Schema, l *Rel, lsel []int32, rt *Rel, rsel []int32) *Rel {
	if len(lsel) != len(rsel) {
		panic("batch: Gather2 selection vectors disagree")
	}
	out := &Rel{Schema: s, Cols: make([]Vec, 0, len(l.Cols)+len(rt.Cols)), N: len(lsel)}
	for c := range l.Cols {
		out.Cols = append(out.Cols, l.Cols[c].Gather(lsel))
	}
	for c := range rt.Cols {
		out.Cols = append(out.Cols, rt.Cols[c].Gather(rsel))
	}
	return out
}

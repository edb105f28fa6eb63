// Package batch is the columnar side of the executor: relations read
// as their per-column typed vectors with null bitmaps (column.Vec, the
// storage every relation is made of), plus the branch-light kernels
// (gather, key hashing, typed row equality) the vectorized operators
// are built from. A Rel is a schema plus one Vec per attribute, all of
// the same length.
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
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/column"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Vec is one column, the storage relation.Relation is made of; batch
// kernels read and build the same type.
type Vec = column.Vec

// The physical column kinds (column.PhysAny etc.).
const (
	PhysAny   = column.PhysAny
	PhysInt   = column.PhysInt
	PhysFloat = column.PhysFloat
	PhysStr   = column.PhysStr
	PhysBool  = column.PhysBool
)

// hashInto folds each row's value hash into the running per-row key
// hashes hs (seeded with value.HashSeed by the caller), the columnar
// equivalent of one column's contribution to Tuple.HashOn. When
// nullMatches is false (join keys under null in-tolerant predicates) a
// NULL row clears ok[i] instead — its hash lane is left unusable, the
// row can never match. When nullMatches is true (grouping keys, where
// NULL is identical to NULL) NULL contributes value.HashNull and ok is
// untouched. The typed loops hoist the kind switch out of the per-row
// path; only PhysAny pays the per-row dispatch.
func hashInto(v *Vec, hs []uint64, ok []bool, nullMatches bool) {
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

// equalRows reports value.Equal between v's row i and o's row j — the
// collision-verification step after a hash bucket hit.
func equalRows(v *Vec, i int, o *Vec, j int) bool {
	ln, rn := v.IsNull(i), o.IsNull(j)
	if ln || rn {
		return ln && rn
	}
	if v.Phys == o.Phys {
		switch v.Phys {
		case PhysInt:
			return v.Ints[i] == o.Ints[j]
		case PhysStr:
			return v.Strs[i] == o.Strs[j]
		case PhysBool:
			return v.Bools[i] == o.Bools[j]
		}
	}
	return value.Equal(v.At(i), o.At(j))
}

// Rel is a columnar relation: a schema and one equal-length column per
// attribute.
//
// A column of a derived Rel is either gathered or pending: a view
// (source Vec, selection vector) that Col gathers the first time a
// kernel reads it, so a column nothing reads is never copied. Views
// always name a gathered source — Select and Gather2 compose selection
// vectors instead of stacking views. Gathering writes into the Rel, so
// a Rel with pending columns belongs to one goroutine; a base table's
// scan (Of) is its columns, fully gathered and read-only: kernels
// derive new Rels from it and never write through its columns.
type Rel struct {
	Schema *schema.Schema
	N      int

	cols []Vec
	pend []view // nil when every column is gathered

	// idx holds the join indexes of a base table (set by Of, shared by
	// As aliases, nil on every other Rel).
	idx *indexes
}

// view is a column not gathered yet: rows sel (-1 = NULL pad) of src.
// The zero view marks a gathered column.
type view struct {
	src *Vec
	sel []int32
}

// NewRel wraps n-row gathered columns as a relation.
func NewRel(s *schema.Schema, cols []Vec, n int) *Rel {
	if s.Len() != len(cols) {
		panic(fmt.Sprintf("batch: schema %s does not fit %d columns", s, len(cols)))
	}
	return &Rel{Schema: s, cols: cols, N: n}
}

// Width returns the number of columns.
func (r *Rel) Width() int { return len(r.cols) }

// Col returns column c, gathering it first if it is still pending —
// the one accessor kernels read column payloads through.
func (r *Rel) Col(c int) *Vec {
	if r.pend != nil {
		if p := &r.pend[c]; p.src != nil {
			r.cols[c] = p.src.Gather(p.sel)
			*p = view{}
		}
	}
	return &r.cols[c]
}

// Of returns the scan of base table r: a Rel over the table's own
// column vectors, nothing shaped or copied, carrying the table's join
// and dense indexes. Every scan until the table is next appended to
// gets the same Rel; Append drops it, indexes included, and the next
// scan reads the grown columns.
func Of(r *relation.Relation) *Rel {
	return r.Derived(func(cols []Vec, n int) any {
		ix := &indexes{}
		runtime.SetFinalizer(ix, func(ix *indexes) {
			obs.Default().Gauge("exec.index.bytes").Add(-ix.bytes)
		})
		return &Rel{Schema: r.Schema(), cols: cols, N: n, idx: ix}
	}).(*Rel)
}

// As returns the same rows under schema s, which must have r's width —
// an aliased scan. The column vectors (and a base table's join indexes)
// are shared, not copied.
func (r *Rel) As(s *schema.Schema) *Rel {
	if s.Len() != len(r.cols) {
		panic(fmt.Sprintf("batch: schema %s does not fit %d columns", s, len(r.cols)))
	}
	return &Rel{Schema: s, cols: r.cols, pend: r.pend, N: r.N, idx: r.idx}
}

// Project returns the columns at idx under schema s. Nothing is copied
// or gathered: the output shares gathered vectors and pending views.
func (r *Rel) Project(s *schema.Schema, idx []int) *Rel {
	out := &Rel{Schema: s, cols: make([]Vec, len(idx)), N: r.N}
	if r.pend != nil {
		out.pend = make([]view, len(idx))
	}
	for i, c := range idx {
		out.cols[i] = r.cols[c]
		if r.pend != nil {
			out.pend[i] = r.pend[c]
		}
	}
	return out
}

// FromRelation returns r's rows as a Rel over r's own column vectors,
// without the join indexes Of attaches to a base table.
func FromRelation(r *relation.Relation) *Rel {
	cols, n := r.Columns()
	return &Rel{Schema: r.Schema(), cols: cols, N: n}
}

// FromValues builds one column from boxed values, deciding its physical
// kind as relation.Builder does (column.Vec.Append).
func FromValues(vals []value.Value) Vec {
	var v Vec
	for _, x := range vals {
		v.Append(x)
	}
	return v
}

// ToRelation returns the rows as a relation over the same column
// vectors: pending columns are gathered, nothing is boxed or copied.
// Callers must treat the result as read-only, as they must any operator
// input.
func (r *Rel) ToRelation() *relation.Relation {
	for c := range r.cols {
		r.Col(c)
	}
	return relation.FromColumns(r.Schema, r.cols, r.N)
}

// ReadTuple fills dst (of schema width) with row i without allocating
// (beyond gathering columns that were still pending).
func (r *Rel) ReadTuple(i int, dst relation.Tuple) {
	for c := range r.cols {
		dst[c] = r.Col(c).At(i)
	}
}

// Select returns the rows named by a selection vector as a new
// relation of pending columns (sel must not contain -1; use Gather2 for
// padded join output).
func (r *Rel) Select(sel []int32) *Rel {
	out := &Rel{Schema: r.Schema, cols: make([]Vec, len(r.cols)), pend: make([]view, len(r.cols)), N: len(sel)}
	r.viewInto(out.pend, sel)
	return out
}

// viewInto fills dst with views of r's columns at rows sel. A gathered
// column is viewed directly; a pending one through its own selection
// composed with sel (-1 stays -1), composed once per distinct upstream
// selection vector.
func (r *Rel) viewInto(dst []view, sel []int32) {
	var memo [][2][]int32 // upstream selection → its composition with sel
	for c := range r.cols {
		if r.pend == nil || r.pend[c].src == nil {
			dst[c] = view{&r.cols[c], sel}
			continue
		}
		up := r.pend[c].sel
		var comp []int32
		for _, m := range memo {
			if len(up) > 0 && &m[0][0] == &up[0] {
				comp = m[1]
				break
			}
		}
		if comp == nil {
			comp = make([]int32, len(sel))
			for k, s := range sel {
				if comp[k] = -1; s >= 0 {
					comp[k] = up[s]
				}
			}
			if len(up) > 0 {
				memo = append(memo, [2][]int32{up, comp})
			}
		}
		dst[c] = view{r.pend[c].src, comp}
	}
}

// KeyHashes computes per-row key hashes over the columns at idx,
// matching Tuple.HashOn bit-for-bit. With nullMatches=false (join
// keys) a row with any NULL key column gets ok[i]=false and must not
// be probed or inserted; with nullMatches=true (grouping keys) NULL
// participates via value.HashNull, every row qualifies and ok is nil.
func (r *Rel) KeyHashes(idx []int, nullMatches bool) (hs []uint64, ok []bool) {
	hs = make([]uint64, r.N)
	for i := range hs {
		hs[i] = value.HashSeed
	}
	if !nullMatches {
		ok = make([]bool, r.N)
		for i := range ok {
			ok[i] = true
		}
	}
	for _, c := range idx {
		hashInto(r.Col(c), hs, ok, nullMatches)
	}
	return hs, ok
}

// Keys are key columns picked out of a relation (gathered), so a
// row-at-a-time kernel loop reads them without going through Col.
type Keys []*Vec

// Keys returns the columns at idx.
func (r *Rel) Keys(idx []int) Keys {
	ks := make(Keys, len(idx))
	for k, c := range idx {
		ks[k] = r.Col(c)
	}
	return ks
}

// Equal reports pointwise value.Equal between row i of these key
// columns and row j of o's, used to verify key-hash bucket hits.
func (ks Keys) Equal(i int, o Keys, j int) bool {
	for k, v := range ks {
		if !equalRows(v, i, o[k], j) {
			return false
		}
	}
	return true
}

// Gather2 returns the joined relation over schema s (left's columns
// then right's): row k is left row lsel[k] concatenated with right row
// rsel[k], with -1 NULL-padding either side — inner matches and
// outer-join padding come out of the same selection vectors. Every
// output column is pending.
func Gather2(s *schema.Schema, l *Rel, lsel []int32, rt *Rel, rsel []int32) *Rel {
	if len(lsel) != len(rsel) {
		panic("batch: Gather2 selection vectors disagree")
	}
	w := len(l.cols) + len(rt.cols)
	out := &Rel{Schema: s, cols: make([]Vec, w), pend: make([]view, w), N: len(lsel)}
	l.viewInto(out.pend[:len(l.cols)], lsel)
	rt.viewInto(out.pend[len(l.cols):], rsel)
	return out
}

// JoinIndex is a hash-join build side over one key-column set: per-row
// key hashes (OK[i] false where a key is NULL and the row can never
// match) and, once chained, an array-chained hash table — Head per
// slot, Next per row, rows with equal slots linked in ascending row
// order so matches emerge in build-row order.
type JoinIndex struct {
	keys   []int
	Hashes []uint64
	OK     []bool

	Head, Next []int32
	Mask       uint64
	Rows       int // rows chained (those with no NULL key)
}

// indexes are the join indexes a base table owns, one per key-column
// set (and a dense decision per column), built on first use under mu
// and dropped by the table's next Append.
type indexes struct {
	mu    sync.Mutex
	list  []*JoinIndex
	dense []denseEntry
	bytes int64
}

// JoinIndex returns r's key hashes over the columns at keys and, when
// chained is set, the hash table over them. A base table's scan builds
// each once — hashes on the first join that probes or builds with
// those keys, chains on the first that builds (counted on
// exec.index.builds; exec.index.bytes gauges the memory, which belongs
// to the table, not to a request) — and reports shared=true; any other
// Rel computes them for this call.
func (r *Rel) JoinIndex(keys []int, chained bool) (ix *JoinIndex, shared bool) {
	if r.idx == nil {
		ix = &JoinIndex{}
		ix.Hashes, ix.OK = r.KeyHashes(keys, false)
		if chained {
			ix.chain()
		}
		return ix, false
	}
	r.idx.mu.Lock()
	defer r.idx.mu.Unlock()
	for _, have := range r.idx.list {
		if slices.Equal(have.keys, keys) {
			ix = have
			break
		}
	}
	grown := 0
	if ix == nil {
		ix = &JoinIndex{keys: slices.Clone(keys)}
		ix.Hashes, ix.OK = r.KeyHashes(keys, false)
		r.idx.list = append(r.idx.list, ix)
		grown = 9 * r.N
	}
	if chained && ix.Head == nil {
		ix.chain()
		obs.Default().Counter("exec.index.builds").Inc()
		grown += 4 * (len(ix.Head) + len(ix.Next))
	}
	if grown > 0 {
		r.idx.bytes += int64(grown)
		obs.Default().Gauge("exec.index.bytes").Add(int64(grown))
	}
	return ix, true
}

// chain builds the table. Insertion prepends, so rows are inserted in
// reverse and each chain iterates in ascending row order.
func (ix *JoinIndex) chain() {
	n := len(ix.Hashes)
	ix.Head = make([]int32, 1<<bits.Len(uint(2*n+1))) // ≥ 2n+2 slots
	ix.Mask = uint64(len(ix.Head) - 1)
	for i := range ix.Head {
		ix.Head[i] = -1
	}
	ix.Next = make([]int32, n)
	for j := n - 1; j >= 0; j-- {
		if !ix.OK[j] {
			continue
		}
		s := ix.Hashes[j] & ix.Mask
		ix.Next[j] = ix.Head[s]
		ix.Head[s] = int32(j)
		ix.Rows++
	}
}

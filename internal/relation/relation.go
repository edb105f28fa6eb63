// Package relation implements the extensions (the E of r = <R, V, E>
// in Section 1.2) of relations: in-memory tuple sets over a schema,
// together with the set-level operations the paper's algebra is
// defined with — outer union ⊎, duplicate-preserving and
// set-semantics projection, and set difference.
//
// Tuples carry real and virtual attributes side by side; virtual
// attributes (row identifiers) make base tuples distinguishable, so
// the set operations below implement exactly the paper's definitions
// even in the presence of duplicate real values. A relation stores its
// tuples as typed columns (package column) and boxes them on demand.
package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/column"
	"repro/internal/schema"
	"repro/internal/value"
)

// Tuple is a row: values aligned with a Relation's schema.
type Tuple []value.Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Hash64 returns an allocation-free, order-sensitive 64-bit hash of
// the whole tuple, consistent with EqualTuple: equal tuples hash
// equal. Unequal tuples may collide (value.Hash64 merges numeric
// identities through float64), so hash consumers must confirm bucket
// hits with EqualTuple.
func (t Tuple) Hash64() uint64 {
	h := value.HashSeed
	for _, v := range t {
		h = value.HashCombine(h, v.Hash64())
	}
	return h
}

// HashOn hashes the values at the given column positions. It reports
// ok=false when any of them is NULL — the form used for join and
// grouping keys under null in-tolerant predicates, where a NULL key
// can never match.
func (t Tuple) HashOn(idx []int) (h uint64, ok bool) {
	h = value.HashSeed
	for _, i := range idx {
		v := t[i]
		if v.IsNull() {
			return 0, false
		}
		h = value.HashCombine(h, v.Hash64())
	}
	return h, true
}

// EqualTuple reports pointwise value.Equal between t and o (NULL
// identical to NULL) — the tuple identity, used to verify Hash64
// bucket hits.
func (t Tuple) EqualTuple(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i, v := range t {
		if !value.Equal(v, o[i]) {
			return false
		}
	}
	return true
}

// tupleSet is a hash set of tuples bucketed by Hash64 with EqualTuple
// verification; it replaces string-keyed maps on the duplicate
// elimination and set difference paths, where rendering Key for every
// tuple dominated the profile.
type tupleSet struct {
	buckets map[uint64][]Tuple
	n       int
}

func newTupleSet(capacity int) *tupleSet {
	return &tupleSet{buckets: make(map[uint64][]Tuple, capacity)}
}

// Add inserts t and reports whether it was absent.
func (s *tupleSet) Add(t Tuple) bool {
	h := t.Hash64()
	for _, o := range s.buckets[h] {
		if t.EqualTuple(o) {
			return false
		}
	}
	s.buckets[h] = append(s.buckets[h], t)
	s.n++
	return true
}

// Has reports membership.
func (s *tupleSet) Has(t Tuple) bool {
	for _, o := range s.buckets[t.Hash64()] {
		if t.EqualTuple(o) {
			return true
		}
	}
	return false
}

// tupleCounter is a hash multiset of tuples, the multiset analogue of
// tupleSet.
type tupleCounter struct {
	buckets map[uint64][]tupleCount
}

type tupleCount struct {
	t Tuple
	n int
}

func newTupleCounter(capacity int) *tupleCounter {
	return &tupleCounter{buckets: make(map[uint64][]tupleCount, capacity)}
}

// Inc adds one occurrence of t.
func (c *tupleCounter) Inc(t Tuple) {
	h := t.Hash64()
	b := c.buckets[h]
	for i := range b {
		if t.EqualTuple(b[i].t) {
			b[i].n++
			return
		}
	}
	c.buckets[h] = append(b, tupleCount{t: t, n: 1})
}

// Dec removes one occurrence of t, reporting false when none remains.
func (c *tupleCounter) Dec(t Tuple) bool {
	b := c.buckets[t.Hash64()]
	for i := range b {
		if t.EqualTuple(b[i].t) {
			if b[i].n == 0 {
				return false
			}
			b[i].n--
			return true
		}
	}
	return false
}

// Relation is a schema plus a multiset of tuples, stored as one
// column.Vec per attribute: a table is its columns, and a tuple exists
// only while a caller holds one boxed by Tuple or Tuples.
//
// Goroutines may Append and read at once. The relation's mutex
// serializes the appends — each AppendAll's batch lands as consecutive
// rows, in some order among the batches — and readers see the rows of a
// snapshot (Columns, Derived, and through them Tuples and Each), which
// shares the relation's column vectors: Append copies the vector
// headers and null bitmaps a snapshot holds before it writes, and
// otherwise writes only past the snapshot's last row.
type Relation struct {
	schema *schema.Schema

	mu   sync.Mutex
	cols []column.Vec
	n    int
	// shared marks cols — the header array and the null bitmaps — as
	// read by a snapshot or another relation: Append copies them first.
	shared bool
	// borrowed marks payload arrays that belong to another relation, which
	// may append into their spare capacity: Append clips them first, so
	// that growing them reallocates.
	borrowed bool
	// derived is what Derived built from the current rows, dropped by
	// Append.
	derived atomic.Pointer[any]
}

// New returns an empty relation over the given schema.
func New(s *schema.Schema) *Relation {
	return &Relation{schema: s, cols: make([]column.Vec, s.Len())}
}

// FromColumns returns an n-row relation over s whose columns are cols,
// shared, not copied: the caller must not write cols or their vectors
// afterwards, and the relation copies what it would write before its
// first Append.
func FromColumns(s *schema.Schema, cols []column.Vec, n int) *Relation {
	if s.Len() != len(cols) {
		panic(fmt.Sprintf("relation: schema %s does not fit %d columns", s, len(cols)))
	}
	return &Relation{schema: s, cols: cols, n: n, shared: true, borrowed: true}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *schema.Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Columns returns a read-only snapshot of the relation's columns and
// their row count. The vectors share their arrays with the relation;
// later Appends leave the snapshot as it was.
func (r *Relation) Columns() ([]column.Vec, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shared = true
	return r.cols, r.n
}

// Derived returns the value derive builds from a snapshot of the
// relation's columns — in practice the executor's scan of a base table,
// which carries the table's join indexes. It is built on the first call
// after the relation was made or last appended to, and shared by every
// call until the next Append drops it. This package sits below the one
// that knows what to build, so the value is opaque here.
func (r *Relation) Derived(derive func(cols []column.Vec, n int) any) any {
	if d := r.derived.Load(); d != nil {
		return *d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d := r.derived.Load(); d != nil {
		return *d
	}
	r.shared = true
	d := derive(r.cols, r.n)
	r.derived.Store(&d)
	return d
}

// Tuple boxes the i-th tuple.
func (r *Relation) Tuple(i int) Tuple {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("relation: row %d out of range [0, %d)", i, r.n))
	}
	t := make(Tuple, len(r.cols))
	for c := range r.cols {
		t[c] = r.cols[c].At(i)
	}
	return t
}

// Tuples boxes every tuple, carved from one allocation of Len()×width
// values. Each call boxes afresh and nothing is kept, so a caller that
// walks the rows more than once holds on to the slice.
func (r *Relation) Tuples() []Tuple {
	cols, n := r.Columns()
	return box(cols, n)
}

// Each calls f with every row in order, boxed into one scratch tuple
// that the next row overwrites: f copies whatever it keeps. It is the
// walk for a caller that reads each row once, and boxes no more than a
// row at a time.
func (r *Relation) Each(f func(t Tuple)) {
	cols, n := r.Columns()
	t := make(Tuple, len(cols))
	for i := 0; i < n; i++ {
		for c := range cols {
			t[c] = cols[c].At(i)
		}
		f(t)
	}
}

// box boxes the n rows of cols. It fills the arena a block of rows at a
// time, column by column within a block, so that each column is read
// with one typed loop while the rows it writes stay in cache.
func box(cols []column.Vec, n int) []Tuple {
	const block = 256
	w := len(cols)
	arena := make([]value.Value, n*w)
	for lo := 0; lo < n; lo += block {
		hi := min(lo+block, n)
		for c := range cols {
			v := &cols[c]
			switch {
			case v.Nulls == nil && v.Phys == column.PhysInt:
				for i, x := range v.Ints[lo:hi] {
					arena[(lo+i)*w+c] = value.NewInt(x)
				}
			case v.Nulls == nil && v.Phys == column.PhysStr:
				for i, x := range v.Strs[lo:hi] {
					arena[(lo+i)*w+c] = value.NewString(x)
				}
			default:
				for i := lo; i < hi; i++ {
					arena[i*w+c] = v.At(i)
				}
			}
		}
	}
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple(arena[i*w : (i+1)*w : (i+1)*w])
	}
	return tuples
}

// Append adds a copy of a tuple; it panics if the arity does not match
// the schema.
func (r *Relation) Append(t Tuple) {
	r.AppendAll([]Tuple{t})
}

// AppendAll adds copies of a batch of tuples; it panics if any arity
// does not match the schema.
func (r *Relation) AppendAll(ts []Tuple) {
	want := r.schema.Len()
	for _, t := range ts {
		if len(t) != want {
			panic(fmt.Sprintf("relation: tuple arity %d does not match schema %s", len(t), r.schema))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.own()
	for _, t := range ts {
		for c, v := range t {
			r.cols[c].Append(v)
		}
	}
	r.n += len(ts)
}

// own prepares the columns for an Append: it drops what was derived
// from them, and copies the headers and null bitmaps others may still
// read, clipping borrowed payload arrays. r.mu is held.
func (r *Relation) own() {
	if r.derived.Load() != nil {
		r.derived.Store(nil)
	}
	if !r.shared {
		return
	}
	cols := make([]column.Vec, len(r.cols))
	for c, v := range r.cols {
		if r.borrowed {
			v.Ints, v.Floats, v.Strs = slices.Clip(v.Ints), slices.Clip(v.Floats), slices.Clip(v.Strs)
			v.Bools, v.Any = slices.Clip(v.Bools), slices.Clip(v.Any)
		}
		if v.Nulls != nil {
			v.Nulls = append(make([]uint64, 0, len(v.Nulls)+1), v.Nulls...)
		}
		cols[c] = v
	}
	r.cols, r.shared, r.borrowed = cols, false, false
}

// Builder assembles a base relation with automatically assigned
// virtual row identifiers.
type Builder struct {
	rel    *Relation
	nextID int64
	// reserve is the room Grow asked for, made once the first Row has
	// given the columns their kinds.
	reserve int
}

// NewBuilder starts a base relation named rel with the given real
// columns; the schema additionally carries rel.#rid.
func NewBuilder(rel string, cols ...string) *Builder {
	return &Builder{rel: New(schema.Base(rel, cols...))}
}

// Grow reserves room for rows rows, for a caller that knows how many it
// will add: after the first Row, appending the rest does not move the
// columns, unless a column changes its kind.
func (b *Builder) Grow(rows int) *Builder {
	b.reserve = rows
	return b
}

// Row appends one tuple of real values (in column order), each straight
// into its column, and assigns the next row identifier. It panics on
// arity mismatch.
func (b *Builder) Row(vals ...value.Value) *Builder {
	r := b.rel
	if len(vals) != r.schema.Len()-1 {
		panic(fmt.Sprintf("relation: row arity %d for schema %s", len(vals), r.schema))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.own()
	for c, v := range vals {
		r.cols[c].Append(v)
	}
	r.cols[len(vals)].Append(value.NewInt(b.nextID))
	if b.reserve > 0 {
		for c := range r.cols {
			r.cols[c].Reserve(b.reserve - 1)
		}
		b.reserve = 0
	}
	r.n++
	b.nextID++
	return b
}

// Relation returns the built relation.
func (b *Builder) Relation() *Relation { return b.rel }

// pick returns the relation over s whose columns are r's columns at
// idx, NULL where idx is -1. The columns are shared, not copied.
func (r *Relation) pick(s *schema.Schema, idx []int) *Relation {
	cols, n := r.Columns()
	out := make([]column.Vec, len(idx))
	for i, j := range idx {
		if j < 0 {
			out[i] = column.Nulls(n)
		} else {
			out[i] = cols[j]
		}
	}
	return FromColumns(s, out, n)
}

// Project returns the projection of r onto attrs. When distinct is
// true duplicates are removed (set semantics, as in the π_{R_i V_i}
// of Definition 2.1); otherwise duplicates are preserved.
func (r *Relation) Project(attrs []schema.Attribute, distinct bool) *Relation {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		idx[i] = r.schema.IndexOf(a)
		if idx[i] < 0 {
			panic(fmt.Sprintf("relation: project on missing attribute %s", a))
		}
	}
	out := r.pick(schema.New(attrs...), idx)
	if !distinct {
		return out
	}
	ts := out.Tuples()
	seen := newTupleSet(len(ts))
	var first []int32
	for i, t := range ts {
		if seen.Add(t) {
			first = append(first, int32(i))
		}
	}
	return out.rows(first)
}

// rows returns the rows of r at sel, an ascending subset of its row
// positions: r's columns, shared, when sel holds every row.
func (r *Relation) rows(sel []int32) *Relation {
	cols, n := r.Columns()
	if len(sel) == n {
		return FromColumns(r.schema, cols, n)
	}
	out := make([]column.Vec, len(cols))
	for c := range cols {
		out[c] = cols[c].Gather(sel)
	}
	return &Relation{schema: r.schema, cols: out, n: len(sel)}
}

// Minus returns the set difference r − other over identical schemas
// (attribute sets must match; other's columns are aligned by name).
func (r *Relation) Minus(other *Relation) *Relation {
	align := make([]int, r.schema.Len())
	for i := range align {
		align[i] = other.schema.IndexOf(r.schema.At(i))
		if align[i] < 0 {
			panic(fmt.Sprintf("relation: minus with incompatible schema %s vs %s", r.schema, other.schema))
		}
	}
	theirs := other.pick(r.schema, align).Tuples()
	seen := newTupleSet(len(theirs))
	for _, t := range theirs {
		seen.Add(t)
	}
	var kept []int32
	for i, t := range r.Tuples() {
		if !seen.Has(t) {
			kept = append(kept, int32(i))
		}
	}
	return r.rows(kept)
}

// OuterUnion implements r ⊎ other (Section 1.2): the result schema is
// the union of both schemas, and tuples from either side are padded
// with NULLs for the attributes they lack.
func (r *Relation) OuterUnion(other *Relation) *Relation {
	attrs := r.schema.Attrs()
	for _, a := range other.schema.Attrs() {
		if !r.schema.Contains(a) {
			attrs = append(attrs, a)
		}
	}
	s := schema.New(attrs...)
	out := New(s)
	out.AppendAll(r.PadTo(s).Tuples())
	out.AppendAll(other.PadTo(s).Tuples())
	return out
}

// PadTo returns r's tuples widened to schema s (a superset of r's
// schema), NULL-filling missing attributes.
func (r *Relation) PadTo(s *schema.Schema) *Relation {
	idx := make([]int, s.Len())
	for i := 0; i < s.Len(); i++ {
		idx[i] = r.schema.IndexOf(s.At(i))
	}
	return r.pick(s, idx)
}

// Reorder returns r with columns permuted to schema s, which must
// list exactly r's attributes.
func (r *Relation) Reorder(s *schema.Schema) *Relation {
	if s.Len() != r.schema.Len() {
		panic(fmt.Sprintf("relation: reorder to incompatible schema %s vs %s", s, r.schema))
	}
	idx := make([]int, s.Len())
	for i := 0; i < s.Len(); i++ {
		idx[i] = r.schema.IndexOf(s.At(i))
		if idx[i] < 0 {
			panic(fmt.Sprintf("relation: reorder missing attribute %s", s.At(i)))
		}
	}
	return r.pick(s, idx)
}

// EqualAsSets reports whether the two relations contain the same set
// of tuples over the same attribute set (column order independent;
// duplicates collapse). This is the equivalence used to check the
// paper's identities, whose sides agree as sets of tuples carrying
// virtual attributes.
func (r *Relation) EqualAsSets(other *Relation) bool {
	if r.schema.Len() != other.schema.Len() || !r.schema.ContainsAll(other.schema) {
		return false
	}
	ours, theirs := r.Tuples(), other.Reorder(r.schema).Tuples()
	a := newTupleSet(len(ours))
	for _, t := range ours {
		a.Add(t)
	}
	b := newTupleSet(len(theirs))
	for _, t := range theirs {
		b.Add(t)
	}
	if a.n != b.n {
		return false
	}
	for _, bucket := range b.buckets {
		for _, t := range bucket {
			if !a.Has(t) {
				return false
			}
		}
	}
	return true
}

// EqualAsMultisets reports whether the two relations contain the same
// multiset of tuples over the same attribute set.
func (r *Relation) EqualAsMultisets(other *Relation) bool {
	if r.schema.Len() != other.schema.Len() || !r.schema.ContainsAll(other.schema) {
		return false
	}
	ours, theirs := r.Tuples(), other.Reorder(r.schema).Tuples()
	if len(ours) != len(theirs) {
		return false
	}
	counts := newTupleCounter(len(ours))
	for _, t := range ours {
		counts.Inc(t)
	}
	for _, t := range theirs {
		if !counts.Dec(t) {
			return false
		}
	}
	return true
}

// SortForDisplay orders tuples lexicographically by their rendered
// values, producing deterministic output for tables and tests. The
// sorted columns are new; vectors the relation shared stay as they
// were.
func (r *Relation) SortForDisplay() {
	cols, n := r.Columns()
	ts := box(cols, n)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(i, j int) bool {
		a, b := ts[perm[i]], ts[perm[j]]
		for k := range a {
			as, bs := a[k].Key(), b[k].Key()
			if as != bs {
				return as < bs
			}
		}
		return false
	})
	sorted := make([]column.Vec, len(cols))
	for c := range cols {
		sorted[c] = cols[c].Gather(perm)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cols, r.shared, r.borrowed = sorted, false, false
	r.derived.Store(nil)
}

// format renders the relation as an aligned text table. When
// showVirtual is false, virtual (row id) columns are hidden — the
// paper's example tables show only real attributes.
func (r *Relation) format(showVirtual bool) string {
	var cols []int
	for i := 0; i < r.schema.Len(); i++ {
		if showVirtual || !r.schema.At(i).Virtual {
			cols = append(cols, i)
		}
	}
	headers := make([]string, len(cols))
	widths := make([]int, len(cols))
	for i, c := range cols {
		headers[i] = r.schema.At(c).String()
		widths[i] = len(headers[i])
	}
	ts := r.Tuples()
	rows := make([][]string, 0, len(ts))
	for _, t := range ts {
		row := make([]string, len(cols))
		for i, c := range cols {
			row[i] = t[c].String()
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// String renders the relation with virtual columns hidden.
func (r *Relation) String() string { return r.format(false) }

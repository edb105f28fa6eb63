// Package relation implements the extensions (the E of r = <R, V, E>
// in Section 1.2) of relations: in-memory tuple sets over a schema,
// together with the set-level operations the paper's algebra is
// defined with — outer union ⊎, duplicate-preserving and
// set-semantics projection, and set difference.
//
// Tuples carry real and virtual attributes side by side; virtual
// attributes (row identifiers) make base tuples distinguishable, so
// the set operations below implement exactly the paper's definitions
// even in the presence of duplicate real values.
package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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

// EqualOn reports pointwise value.Equal between t's columns ti and
// o's columns oi; the slices must have equal length.
func (t Tuple) EqualOn(o Tuple, ti, oi []int) bool {
	for k, i := range ti {
		if !value.Equal(t[i], o[oi[k]]) {
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

// Relation is a schema plus a multiset of tuples.
type Relation struct {
	schema *schema.Schema
	tuples []Tuple
	image  atomic.Pointer[imageSlot]
}

// imageSlot holds one derived image of a relation's current tuples.
type imageSlot struct {
	once sync.Once
	v    any
}

// Image returns the relation's cached derived image — in practice the
// columnar batch.Rel the vectorized engine scans — building it with
// build on first use. Concurrent callers share one build and one
// read-only result; Append and AppendAll drop it, so an image never
// outlives the tuples it was shaped from. The slot is opaque because
// this package sits below the ones that know how to shape an image.
func (r *Relation) Image(build func(*Relation) any) any {
	s := r.image.Load()
	for s == nil {
		r.image.CompareAndSwap(nil, &imageSlot{})
		s = r.image.Load()
	}
	s.once.Do(func() { s.v = build(r) })
	return s.v
}

// dropImage invalidates the cached image after a mutation. The load
// keeps the per-row cost of building an intermediate result, which
// never has an image, to one plain read.
func (r *Relation) dropImage() {
	if r.image.Load() != nil {
		r.image.Store(nil)
	}
}

// New returns an empty relation over the given schema.
func New(s *schema.Schema) *Relation {
	return &Relation{schema: s}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *schema.Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuple returns the i-th tuple.
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Tuples returns the underlying tuple slice; callers must not mutate
// the returned tuples.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Append adds a tuple; it panics if the arity does not match the
// schema.
func (r *Relation) Append(t Tuple) {
	if len(t) != r.schema.Len() {
		panic(fmt.Sprintf("relation: tuple arity %d does not match schema %s", len(t), r.schema))
	}
	r.tuples = append(r.tuples, t)
	r.dropImage()
}

// AppendAll adds a batch of tuples; it panics if any arity does not
// match the schema. It is the merge step of partition-parallel
// operators, which accumulate per-partition slices and concatenate.
func (r *Relation) AppendAll(ts []Tuple) {
	want := r.schema.Len()
	for _, t := range ts {
		if len(t) != want {
			panic(fmt.Sprintf("relation: tuple arity %d does not match schema %s", len(t), r.schema))
		}
	}
	r.tuples = append(r.tuples, ts...)
	r.dropImage()
}

// Builder assembles a base relation with automatically assigned
// virtual row identifiers.
type Builder struct {
	rel    *Relation
	name   string
	nextID int64
}

// NewBuilder starts a base relation named rel with the given real
// columns; the schema additionally carries rel.#rid.
func NewBuilder(rel string, cols ...string) *Builder {
	return &Builder{rel: New(schema.Base(rel, cols...)), name: rel}
}

// Row appends one tuple of real values (in column order) and assigns
// the next row identifier. It panics on arity mismatch.
func (b *Builder) Row(vals ...value.Value) *Builder {
	if len(vals) != b.rel.schema.Len()-1 {
		panic(fmt.Sprintf("relation: row arity %d for schema %s", len(vals), b.rel.schema))
	}
	t := make(Tuple, 0, len(vals)+1)
	t = append(t, vals...)
	t = append(t, value.NewInt(b.nextID))
	b.nextID++
	b.rel.Append(t)
	return b
}

// Relation returns the built relation.
func (b *Builder) Relation() *Relation { return b.rel }

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
	out := New(schema.New(attrs...))
	var seen *tupleSet
	if distinct {
		seen = newTupleSet(len(r.tuples))
	}
	for _, t := range r.tuples {
		nt := make(Tuple, len(idx))
		for i, j := range idx {
			nt[i] = t[j]
		}
		if distinct && !seen.Add(nt) {
			continue
		}
		out.Append(nt)
	}
	return out
}

// Minus returns the set difference r − other over identical schemas
// (attribute sets must match; other's columns are aligned by name).
func (r *Relation) Minus(other *Relation) *Relation {
	align := make([]int, r.schema.Len())
	for i := 0; i < r.schema.Len(); i++ {
		align[i] = other.schema.IndexOf(r.schema.At(i))
		if align[i] < 0 {
			panic(fmt.Sprintf("relation: minus with incompatible schema %s vs %s", r.schema, other.schema))
		}
	}
	seen := newTupleSet(other.Len())
	scratch := make(Tuple, len(align))
	for _, t := range other.tuples {
		for i, j := range align {
			scratch[i] = t[j]
		}
		if !seen.Has(scratch) {
			seen.Add(scratch.Clone())
		}
	}
	out := New(r.schema)
	for _, t := range r.tuples {
		if !seen.Has(t) {
			out.Append(t)
		}
	}
	return out
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
	pad := func(src *Relation) {
		idx := make([]int, s.Len())
		for i := 0; i < s.Len(); i++ {
			idx[i] = src.Schema().IndexOf(s.At(i))
		}
		for _, t := range src.Tuples() {
			nt := make(Tuple, s.Len())
			for i, j := range idx {
				if j < 0 {
					nt[i] = value.Null
				} else {
					nt[i] = t[j]
				}
			}
			out.Append(nt)
		}
	}
	pad(r)
	pad(other)
	return out
}

// PadTo returns r's tuples widened to schema s (a superset of r's
// schema), NULL-filling missing attributes.
func (r *Relation) PadTo(s *schema.Schema) *Relation {
	idx := make([]int, s.Len())
	for i := 0; i < s.Len(); i++ {
		idx[i] = r.schema.IndexOf(s.At(i))
	}
	out := New(s)
	for _, t := range r.tuples {
		nt := make(Tuple, s.Len())
		for i, j := range idx {
			if j < 0 {
				nt[i] = value.Null
			} else {
				nt[i] = t[j]
			}
		}
		out.Append(nt)
	}
	return out
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
	out := New(s)
	for _, t := range r.tuples {
		nt := make(Tuple, len(idx))
		for i, j := range idx {
			nt[i] = t[j]
		}
		out.Append(nt)
	}
	return out
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
	o := other.Reorder(r.schema)
	a := newTupleSet(r.Len())
	for _, t := range r.tuples {
		a.Add(t)
	}
	b := newTupleSet(o.Len())
	for _, t := range o.tuples {
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
	o := other.Reorder(r.schema)
	if r.Len() != o.Len() {
		return false
	}
	counts := newTupleCounter(r.Len())
	for _, t := range r.tuples {
		counts.Inc(t)
	}
	for _, t := range o.tuples {
		if !counts.Dec(t) {
			return false
		}
	}
	return true
}

// SortForDisplay orders tuples lexicographically by their rendered
// values, producing deterministic output for tables and tests.
func (r *Relation) SortForDisplay() {
	r.dropImage()
	sort.SliceStable(r.tuples, func(i, j int) bool {
		a, b := r.tuples[i], r.tuples[j]
		for k := range a {
			as, bs := a[k].Key(), b[k].Key()
			if as != bs {
				return as < bs
			}
		}
		return false
	})
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
	rows := make([][]string, 0, r.Len())
	for _, t := range r.tuples {
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

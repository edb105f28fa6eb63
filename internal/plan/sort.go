package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// SortKey orders by one attribute; NULLs sort last ascending (first
// descending), matching common SQL defaults.
type SortKey struct {
	Attr schema.Attribute
	Desc bool
}

// String renders e.g. "t.a desc".
func (k SortKey) String() string {
	if k.Desc {
		return k.Attr.String() + " desc"
	}
	return k.Attr.String()
}

// Order is a sort requirement: lexicographic by the keys, NULLs last
// ascending (first descending) — exactly the comparator SortRows
// applies.
type Order []SortKey

// String renders e.g. "[t.a, t.b desc]".
func (o Order) String() string {
	parts := make([]string, len(o))
	for i, k := range o {
		parts[i] = k.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Sort origins, carried for EXPLAIN provenance: who asked for this
// sort. The zero value ("") renders as nothing, keeping plans that
// never met the optimizer unchanged.
const (
	// SortOriginQuery marks a sort the query text required (ORDER BY).
	SortOriginQuery = "query"
	// SortOriginEnforcer marks the root sort the optimizer places over
	// the order-free winner to establish a root ORDER BY.
	SortOriginEnforcer = "enforcer"
)

// Sort orders its input by the keys and optionally keeps only the
// first Limit rows (Limit < 0 means no limit). Lowering places it at
// the root for ORDER BY/LIMIT and the reordering rules pass over it
// untouched; the optimizer strips a root ORDER BY before enumeration
// and re-injects it as an enforcer over the order-free winner.
type Sort struct {
	Keys  []SortKey
	Limit int
	// Origin records provenance for EXPLAIN (SortOriginQuery,
	// SortOriginEnforcer, or ""). It is excluded from the fingerprint:
	// two sorts with the same keys are the same operator regardless of
	// who asked for them.
	Origin string
	Input  Node

	fpCache
}

// NewSort builds a sort node; limit < 0 disables the limit.
func NewSort(keys []SortKey, limit int, in Node) *Sort {
	return &Sort{Keys: keys, Limit: limit, Input: in}
}

// NewSortOrigin is NewSort with explicit provenance.
func NewSortOrigin(keys []SortKey, limit int, in Node, origin string) *Sort {
	return &Sort{Keys: keys, Limit: limit, Origin: origin, Input: in}
}

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// WithChildren implements Node.
func (s *Sort) WithChildren(ch []Node) Node {
	if len(ch) != 1 {
		panic("plan: Sort needs one child")
	}
	return &Sort{Keys: s.Keys, Limit: s.Limit, Origin: s.Origin, Input: ch[0]}
}

// Schema implements Node.
func (s *Sort) Schema(db Database) (*schema.Schema, error) { return s.Input.Schema(db) }

// Eval implements Node.
func (s *Sort) Eval(db Database) (*relation.Relation, error) {
	in, err := s.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	return SortRows(in, s.Keys, s.Limit)
}

// SortRows applies the ordering and limit to a materialized relation.
// With a limit below the input size it selects the top K rows with a
// bounded heap — O(n log k) instead of sorting everything — and is
// pinned row-identical to the full sort-then-truncate: ties break by
// original row position, which is exactly what the stable sort did.
func SortRows(in *relation.Relation, keys []SortKey, limit int) (*relation.Relation, error) {
	idx := make([]int, len(keys))
	for i, k := range keys {
		idx[i] = in.Schema().IndexOf(k.Attr)
		if idx[i] < 0 {
			return nil, fmt.Errorf("plan: sort key %s not in %s", k.Attr, in.Schema())
		}
	}
	if limit >= 0 && limit < in.Len() {
		return sortRowsTopK(in, keys, idx, limit), nil
	}
	return sortRowsAll(in, keys, idx, limit), nil
}

// sortRowsAll is the full stable sort (and the reference the top-K
// selection is pinned against in the tests).
func sortRowsAll(in *relation.Relation, keys []SortKey, idx []int, limit int) *relation.Relation {
	rows := append([]relation.Tuple(nil), in.Tuples()...)
	sort.SliceStable(rows, func(a, b int) bool {
		for i, j := range idx {
			va, vb := rows[a][j], rows[b][j]
			c := compareForSort(va, vb)
			if c == 0 {
				continue
			}
			if keys[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	out := relation.New(in.Schema())
	for _, t := range rows {
		out.Append(t)
	}
	return out
}

// sortRowsTopK selects the first limit rows of the sorted order with
// a bounded max-heap of row indexes: a row enters only when it beats
// the current k-th row, so n-k rows cost one comparison each. The
// (keys, original position) comparator is a total order, which makes
// the selection — and the final in-heap sort — reproduce the stable
// full sort's output exactly.
func sortRowsTopK(in *relation.Relation, keys []SortKey, idx []int, limit int) *relation.Relation {
	out := relation.New(in.Schema())
	if limit == 0 {
		return out
	}
	tuples := in.Tuples()
	// less orders by the sort keys, then by original position —
	// stable-tie semantics as a strict weak... in fact total order.
	less := func(a, b int) bool {
		for i, j := range idx {
			c := compareForSort(tuples[a][j], tuples[b][j])
			if c == 0 {
				continue
			}
			if keys[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return a < b
	}
	// heap[0] is the WORST of the kept rows (max-heap under less).
	heap := make([]int, 0, limit)
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(heap) && less(heap[big], heap[l]) {
				big = l
			}
			if r < len(heap) && less(heap[big], heap[r]) {
				big = r
			}
			if big == i {
				return
			}
			heap[i], heap[big] = heap[big], heap[i]
			i = big
		}
	}
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !less(heap[p], heap[i]) {
				return
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	for i := range tuples {
		if len(heap) < limit {
			heap = append(heap, i)
			siftUp(len(heap) - 1)
			continue
		}
		if less(i, heap[0]) {
			heap[0] = i
			siftDown(0)
		}
	}
	sort.Slice(heap, func(a, b int) bool { return less(heap[a], heap[b]) })
	for _, i := range heap {
		out.Append(tuples[i])
	}
	return out
}

// CompareForSort is SortRows's value comparator: NULLs order after
// every non-NULL value ascending, and incomparable kinds order by
// rendered text for determinism.
func CompareForSort(a, b value.Value) int { return compareForSort(a, b) }

// compareForSort orders values with NULLs after every non-NULL value.
func compareForSort(a, b value.Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return 1
	case b.IsNull():
		return -1
	}
	if c, ok := value.Compare(a, b); ok {
		return c
	}
	// Incomparable kinds: order by rendered text for determinism.
	as, bs := a.Key(), b.Key()
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	}
	return 0
}

func (s *Sort) fingerprint() *fpVal {
	return s.fpCache.val(func() string {
		keys := make([]string, len(s.Keys))
		for i, k := range s.Keys {
			keys[i] = k.String()
		}
		lim := ""
		if s.Limit >= 0 {
			lim = fmt.Sprintf(" limit %d", s.Limit)
		}
		return fmt.Sprintf("SORT[%s%s](%s)", strings.Join(keys, ","), lim, Key(s.Input))
	})
}

// String implements Node.
func (s *Sort) String() string { return s.fingerprint().key }

package plan

import (
	"fmt"
	"slices"
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

// Sort orders its input by the keys and optionally keeps only the
// first Limit rows (Limit < 0 means no limit). Lowering places it at
// the root for ORDER BY/LIMIT; the optimizer prices it as one memo
// expression over the query's group, and the reordering rules pass
// over it untouched.
type Sort struct {
	Keys  []SortKey
	Limit int
	Input Node

	fpCache
}

// NewSort builds a sort node; limit < 0 disables the limit.
func NewSort(keys []SortKey, limit int, in Node) *Sort {
	return &Sort{Keys: keys, Limit: limit, Input: in}
}

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// WithChildren implements Node.
func (s *Sort) WithChildren(ch []Node) Node {
	if len(ch) != 1 {
		panic("plan: Sort needs one child")
	}
	return &Sort{Keys: s.Keys, Limit: s.Limit, Input: ch[0]}
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

// SortRows applies the ordering and limit to a materialized relation:
// the rows SortIndex picks under the keys' comparator, in its order.
// The result is always a new relation; input already in order is
// handed back as one over in's columns, copying nothing.
func SortRows(in *relation.Relation, keys []SortKey, limit int) (*relation.Relation, error) {
	tuples := in.Tuples()
	order, err := KeyCompare(in.Schema(), keys, func(c int) func(i, j int32) int {
		return func(i, j int32) int { return CompareForSort(tuples[i][c], tuples[j][c]) }
	})
	if err != nil {
		return nil, err
	}
	idx := SortIndex(len(tuples), limit, order)
	if idx == nil {
		cols, n := in.Columns()
		return relation.FromColumns(in.Schema(), cols, n), nil
	}
	sorted := make([]relation.Tuple, len(idx))
	for k, i := range idx {
		sorted[k] = tuples[i]
	}
	out := relation.New(in.Schema())
	out.AppendAll(sorted)
	return out, nil
}

// KeyCompare composes the row comparator of keys over schema s: the
// keys in turn, a descending one reversed, each compared by col(c),
// the ascending comparator of column c. It fails on a key s does not
// hold.
func KeyCompare(s *schema.Schema, keys []SortKey, col func(c int) func(i, j int32) int) (func(i, j int32) int, error) {
	cmps := make([]func(i, j int32) int, len(keys))
	for ki, k := range keys {
		c := s.IndexOf(k.Attr)
		if c < 0 {
			return nil, fmt.Errorf("plan: sort key %s not in %s", k.Attr, s)
		}
		cmps[ki] = col(c)
		if asc := cmps[ki]; k.Desc {
			cmps[ki] = func(i, j int32) int { return asc(j, i) }
		}
	}
	if len(cmps) == 1 {
		return cmps[0], nil
	}
	return func(i, j int32) int {
		for _, byKey := range cmps {
			if c := byKey(i, j); c != 0 {
				return c
			}
		}
		return 0
	}, nil
}

// SortIndex orders the rows 0..n-1 by compare, a total preorder on row
// positions, breaking ties by position, and returns the positions of
// the first min(limit, n) rows of that order (all n when limit < 0).
// The tie-break makes the order total, so any correct algorithm
// returns the stable sort's rows. Without a limit below n, rows
// already in order cost one pass of n-1 comparisons and SortIndex
// returns nil: the answer is the rows as they stand.
func SortIndex(n, limit int, compare func(i, j int32) int) []int32 {
	k := n
	if limit >= 0 && limit < n {
		k = limit
	}
	if k == n {
		i := 1
		for i < n && compare(int32(i-1), int32(i)) <= 0 {
			i++
		}
		if i >= n {
			return nil
		}
	}
	if k == 0 {
		return []int32{}
	}
	total := func(i, j int32) int {
		if c := compare(i, j); c != 0 {
			return c
		}
		return int(i) - int(j)
	}
	// idx holds every row that may still be among the first k. When it
	// fills past k it is sorted and cut back to k, and its k-th row is
	// the one a later row must beat: O(n log k) under a limit, one sort
	// of every position without.
	idx := make([]int32, 0, min(2*k, n))
	cut := false
	for i := int32(0); int(i) < n; i++ {
		if cut && total(i, idx[k-1]) > 0 {
			continue
		}
		idx = append(idx, i)
		if len(idx) == cap(idx) && len(idx) > k {
			slices.SortFunc(idx, total)
			idx, cut = idx[:k], true
		}
	}
	slices.SortFunc(idx, total)
	return idx[:k]
}

// CompareForSort is SortRows's value comparator, a total preorder:
// NULLs order after every non-NULL value ascending, comparable values
// by value.Compare, and incomparable kinds by Key() for determinism.
func CompareForSort(a, b value.Value) int {
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
	return strings.Compare(a.Key(), b.Key())
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

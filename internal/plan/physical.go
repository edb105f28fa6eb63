// Physical order-consuming operators. MergeJoin and StreamAgg are
// the plan-level spellings of the executor's sort-merge join and
// streaming sorted aggregation: logically identical to Join and
// GroupBy (Eval delegates to the same algebra reference semantics),
// but carrying the key order their inputs must be sorted in. The
// memo's ordered extraction is the only producer; it places them
// exactly where the required/delivered property analysis proves the
// input orders hold.
package plan

import (
	"strings"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/schema"
)

// MergeJoin is a Join evaluated by merging inputs sorted on the equi
// keys: the i-th left key joins the i-th right key, both sorted with
// the i-th direction. Pred is the full join predicate — key
// equalities included — so the node is logically interchangeable with
// Join{Kind, Pred}; the executor re-derives the residual from it.
type MergeJoin struct {
	Kind  JoinKind
	Pred  expr.Pred
	LKeys []schema.Attribute
	RKeys []schema.Attribute
	Desc  []bool
	L, R  Node

	fpCache
}

// NewMergeJoin builds a merge join node; lkeys, rkeys and desc must
// be parallel and non-empty.
func NewMergeJoin(kind JoinKind, p expr.Pred, lkeys, rkeys []schema.Attribute, desc []bool, l, r Node) *MergeJoin {
	return &MergeJoin{Kind: kind, Pred: p, LKeys: lkeys, RKeys: rkeys, Desc: desc, L: l, R: r}
}

// LeftOrder is the order the left input must deliver — and the order
// the join's output has for Inner and Left kinds (unmatched left rows
// pad in place, and NULL keys sort consistently with the comparator).
func (m *MergeJoin) LeftOrder() Order {
	o := make(Order, len(m.LKeys))
	for i, a := range m.LKeys {
		o[i] = SortKey{Attr: a, Desc: m.Desc[i]}
	}
	return o
}

// RightOrder is the order the right input must deliver.
func (m *MergeJoin) RightOrder() Order {
	o := make(Order, len(m.RKeys))
	for i, a := range m.RKeys {
		o[i] = SortKey{Attr: a, Desc: m.Desc[i]}
	}
	return o
}

// Children implements Node.
func (m *MergeJoin) Children() []Node { return []Node{m.L, m.R} }

// WithChildren implements Node.
func (m *MergeJoin) WithChildren(ch []Node) Node {
	if len(ch) != 2 {
		panic("plan: MergeJoin needs two children")
	}
	return &MergeJoin{Kind: m.Kind, Pred: m.Pred, LKeys: m.LKeys, RKeys: m.RKeys, Desc: m.Desc, L: ch[0], R: ch[1]}
}

// Schema implements Node.
func (m *MergeJoin) Schema(db Database) (*schema.Schema, error) {
	ls, err := m.L.Schema(db)
	if err != nil {
		return nil, err
	}
	rs, err := m.R.Schema(db)
	if err != nil {
		return nil, err
	}
	return ls.Concat(rs), nil
}

// Eval implements Node with the reference join semantics — the
// merge strategy is an executor concern; logically the node is its
// Join equivalent.
func (m *MergeJoin) Eval(db Database) (*relation.Relation, error) {
	return NewJoin(m.Kind, m.Pred, m.L, m.R).Eval(db)
}

func (m *MergeJoin) fingerprint() *fpVal {
	return m.fpCache.val(func() string {
		keys := make([]string, len(m.LKeys))
		for i := range m.LKeys {
			d := ""
			if m.Desc[i] {
				d = " desc"
			}
			keys[i] = m.LKeys[i].String() + "~" + m.RKeys[i].String() + d
		}
		return "(" + Key(m.L) + " MERGE" + m.Kind.String() + "[" + predKey(m.Pred) + "; " + strings.Join(keys, ",") + "] " + Key(m.R) + ")"
	})
}

// String implements Node.
func (m *MergeJoin) String() string { return m.fingerprint().key }

// StreamAgg is a GroupBy evaluated by streaming over an input sorted
// on all the grouping keys: group boundaries are key changes, so one
// accumulator set is live at a time. InOrder is the order the input
// is consumed in — a permutation of Keys with directions — and is
// also the order the output is emitted in. Keys keeps the logical
// GroupBy's column order, so the output schema is unchanged.
type StreamAgg struct {
	Keys    []schema.Attribute
	Aggs    []algebra.Aggregate
	InOrder Order
	Input   Node

	fpCache
}

// NewStreamAgg builds a streaming aggregation node; inOrder must
// cover every key (its attribute set equals the key set).
func NewStreamAgg(keys []schema.Attribute, aggs []algebra.Aggregate, inOrder Order, in Node) *StreamAgg {
	return &StreamAgg{Keys: keys, Aggs: aggs, InOrder: inOrder, Input: in}
}

// Children implements Node.
func (g *StreamAgg) Children() []Node { return []Node{g.Input} }

// WithChildren implements Node.
func (g *StreamAgg) WithChildren(ch []Node) Node {
	if len(ch) != 1 {
		panic("plan: StreamAgg needs one child")
	}
	return &StreamAgg{Keys: g.Keys, Aggs: g.Aggs, InOrder: g.InOrder, Input: ch[0]}
}

// Schema implements Node.
func (g *StreamAgg) Schema(db Database) (*schema.Schema, error) {
	return NewGroupBy(g.Keys, g.Aggs, g.Input).Schema(db)
}

// Eval implements Node with the reference grouping semantics.
func (g *StreamAgg) Eval(db Database) (*relation.Relation, error) {
	return NewGroupBy(g.Keys, g.Aggs, g.Input).Eval(db)
}

func (g *StreamAgg) fingerprint() *fpVal {
	return g.fpCache.val(func() string {
		keys := make([]string, len(g.Keys))
		for i, k := range g.Keys {
			keys[i] = k.String()
		}
		aggs := make([]string, len(g.Aggs))
		for i, a := range g.Aggs {
			aggs[i] = a.String()
		}
		return "SA[" + strings.Join(keys, ",") + "; " + strings.Join(aggs, ",") + "; " + g.InOrder.Key() + "](" + Key(g.Input) + ")"
	})
}

// String implements Node.
func (g *StreamAgg) String() string { return g.fingerprint().key }

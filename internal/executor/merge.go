// Sort-merge join and streaming sorted aggregation: the executor's
// order-consuming physical operators. Both rely on their inputs
// arriving sorted — a property the optimizer's ordered extraction
// proves before ever planting these nodes — and both verify that
// property at runtime as they walk the input, failing with a typed
// ErrUnsorted instead of silently dropping rows when the claim is
// wrong (a corrupted catalog order, a hand-built plan).
package executor

import (
	"errors"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// ErrUnsorted reports an order-consuming operator fed input that
// violates its claimed sort order.
var ErrUnsorted = errors.New("executor: input not in required sort order")

// MergeJoinExec joins two materialized relations already sorted on the
// node's key order by merging them: one interleaved pass, no hash
// table. Equal-key runs on both sides form blocks joined as a cross
// product (the right block is rescanned once per additional left row);
// NULL keys never match and pad straight through for the outer kinds.
// Output is in left-key order row-for-row for Inner and Left joins —
// the delivered-order claim plan.DeliveredOrder makes for this node.
func MergeJoinExec(m *plan.MergeJoin, l, r *relation.Relation) (*relation.Relation, error) {
	return mergeJoinProbe(m, l, r, nil, nil)
}

func mergeJoinProbe(m *plan.MergeJoin, l, r *relation.Relation, st *joinProbe, b *guard.Budget) (*relation.Relation, error) {
	ls, rs := l.Schema(), r.Schema()
	out := relation.New(ls.Concat(rs))
	li := make([]int, len(m.LKeys))
	ri := make([]int, len(m.RKeys))
	for i := range m.LKeys {
		li[i] = ls.IndexOf(m.LKeys[i])
		ri[i] = rs.IndexOf(m.RKeys[i])
		if li[i] < 0 || ri[i] < 0 {
			return nil, fmt.Errorf("executor: merge key %s=%s not resolvable", m.LKeys[i], m.RKeys[i])
		}
	}
	residual := mergeResidual(m.Pred, ls, rs, li, ri)
	reg := b.Registry()
	reg.Counter("exec.merge.runs").Inc()

	nl, nr := ls.Len(), rs.Len()
	env := expr.TupleEnv{Schema: out.Schema()}
	scratch := make(relation.Tuple, nl+nr)
	arena := newTupleArena(nl + nr)
	charged := 0
	steps := 0
	// tick is the per-work-unit governance boundary: one call per
	// cursor advance and per block pair evaluated.
	tick := func() error {
		steps++
		if steps%execBatchRows != 0 {
			return nil
		}
		if err := guard.Hit(guard.PointExecMergeJoin); err != nil {
			return err
		}
		if err := b.Err(); err != nil {
			return err
		}
		return chargeSince(b, out, &charged, nl+nr)
	}
	padLeft := func(lt relation.Tuple) {
		if m.Kind != plan.LeftJoin && m.Kind != plan.FullJoin {
			return
		}
		row := arena.next()
		copy(row, lt)
		for i := nl; i < nl+nr; i++ {
			row[i] = value.Null
		}
		if st != nil {
			st.NullPadded++
		}
		out.Append(row)
	}
	padRight := func(rt relation.Tuple) {
		if m.Kind != plan.RightJoin && m.Kind != plan.FullJoin {
			return
		}
		row := arena.next()
		for i := 0; i < nl; i++ {
			row[i] = value.Null
		}
		copy(row[nl:], rt)
		if st != nil {
			st.NullPadded++
		}
		out.Append(row)
	}
	// verify checks one adjacency of a side's claimed order; the merge
	// touches every adjacent pair exactly once, so the whole input is
	// verified by the time it is consumed.
	verify := func(side string, prev, cur relation.Tuple, idx []int) error {
		if cmpOnKeys(prev, cur, idx, m.Desc) > 0 {
			return fmt.Errorf("%w: merge join %s input at %s", ErrUnsorted, side, m.LeftOrder())
		}
		return nil
	}

	rescans := 0
	i, j := 0, 0
	lts, rts := l.Tuples(), r.Tuples()
	for i < len(lts) && j < len(rts) {
		if err := tick(); err != nil {
			return nil, err
		}
		lt, rt := lts[i], rts[j]
		if hasNullAt(lt, li) {
			padLeft(lt)
			if i+1 < len(lts) {
				if err := verify("left", lt, lts[i+1], li); err != nil {
					return nil, err
				}
			}
			i++
			continue
		}
		if hasNullAt(rt, ri) {
			padRight(rt)
			if j+1 < len(rts) {
				if err := verify("right", rt, rts[j+1], ri); err != nil {
					return nil, err
				}
			}
			j++
			continue
		}
		c := cmpAcross(lt, rt, li, ri, m.Desc)
		if c < 0 {
			padLeft(lt)
			if i+1 < len(lts) {
				if err := verify("left", lt, lts[i+1], li); err != nil {
					return nil, err
				}
			}
			i++
			continue
		}
		if c > 0 {
			padRight(rt)
			if j+1 < len(rts) {
				if err := verify("right", rt, rts[j+1], ri); err != nil {
					return nil, err
				}
			}
			j++
			continue
		}
		// Equal keys: extend both blocks, verifying order as we go.
		i2 := i + 1
		for i2 < len(lts) {
			cc := cmpOnKeys(lts[i2-1], lts[i2], li, m.Desc)
			if cc > 0 {
				return nil, fmt.Errorf("%w: merge join left input at %s", ErrUnsorted, m.LeftOrder())
			}
			if cc != 0 || hasNullAt(lts[i2], li) {
				break
			}
			i2++
		}
		j2 := j + 1
		for j2 < len(rts) {
			cc := cmpOnKeys(rts[j2-1], rts[j2], ri, m.Desc)
			if cc > 0 {
				return nil, fmt.Errorf("%w: merge join right input at %s", ErrUnsorted, m.RightOrder())
			}
			if cc != 0 || hasNullAt(rts[j2], ri) {
				break
			}
			j2++
		}
		if i2-i > 1 {
			// Each additional left row rescans the right block.
			rescans += i2 - i - 1
		}
		var rightHit []bool
		if m.Kind == plan.RightJoin || m.Kind == plan.FullJoin {
			rightHit = make([]bool, j2-j)
		}
		// Left rows outer: output stays in left order, and per-left-row
		// match tracking drives Left/Full padding in place.
		for a := i; a < i2; a++ {
			matched := false
			copy(scratch, lts[a])
			for bj := j; bj < j2; bj++ {
				if err := tick(); err != nil {
					return nil, err
				}
				copy(scratch[nl:], rts[bj])
				env.Tuple = scratch
				if st != nil {
					st.ResidualEvals++
				}
				if residual.Eval(env).Holds() {
					matched = true
					if rightHit != nil {
						rightHit[bj-j] = true
					}
					row := arena.next()
					copy(row, scratch)
					out.Append(row)
				}
			}
			if !matched {
				padLeft(lts[a])
			}
		}
		if rightHit != nil {
			for bj := j; bj < j2; bj++ {
				if !rightHit[bj-j] {
					padRight(rts[bj])
				}
			}
		}
		i, j = i2, j2
	}
	// Drain the exhausted sides, still verifying their order.
	for ; i < len(lts); i++ {
		if err := tick(); err != nil {
			return nil, err
		}
		if i+1 < len(lts) {
			if err := verify("left", lts[i], lts[i+1], li); err != nil {
				return nil, err
			}
		}
		padLeft(lts[i])
	}
	for ; j < len(rts); j++ {
		if err := tick(); err != nil {
			return nil, err
		}
		if j+1 < len(rts) {
			if err := verify("right", rts[j], rts[j+1], ri); err != nil {
				return nil, err
			}
		}
		padRight(rts[j])
	}
	st.flushArenas(b.Registry(), arena)
	if rescans > 0 {
		reg.Counter("exec.merge.rescans").Add(int64(rescans))
	}
	reg.Counter("exec.merge.rows").Add(int64(out.Len()))
	if err := chargeSince(b, out, &charged, nl+nr); err != nil {
		return nil, err
	}
	return out, nil
}

// mergeResidual strips the equality conjuncts the merge keys already
// enforce, keeping everything else — other equi conjuncts included —
// for per-pair evaluation inside equal-key blocks.
func mergeResidual(pred expr.Pred, ls, rs *schema.Schema, li, ri []int) expr.Pred {
	type pair struct{ l, r int }
	covered := make(map[pair]bool, len(li))
	for k := range li {
		covered[pair{li[k], ri[k]}] = true
	}
	var rest []expr.Pred
	for _, c := range expr.Conjuncts(pred) {
		if cmp, ok := c.(expr.Cmp); ok && cmp.Op == value.EQ {
			lc, lok := cmp.L.(expr.Col)
			rc, rok := cmp.R.(expr.Col)
			if lok && rok {
				if a, b := ls.IndexOf(lc.Attr), rs.IndexOf(rc.Attr); a >= 0 && b >= 0 && covered[pair{a, b}] {
					continue
				}
				if a, b := ls.IndexOf(rc.Attr), rs.IndexOf(lc.Attr); a >= 0 && b >= 0 && covered[pair{a, b}] {
					continue
				}
			}
		}
		rest = append(rest, c)
	}
	return expr.And(rest...)
}

// hasNullAt reports whether any of the key positions is NULL — a NULL
// key never matches (predicates are null-intolerant).
func hasNullAt(t relation.Tuple, idx []int) bool {
	for _, i := range idx {
		if t[i].IsNull() {
			return true
		}
	}
	return false
}

// cmpOnKeys lexicographically compares two tuples of the same side on
// the key positions, honouring per-key direction.
func cmpOnKeys(a, b relation.Tuple, idx []int, desc []bool) int {
	for k, i := range idx {
		c := plan.CompareForSort(a[i], b[i])
		if desc[k] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// cmpAcross compares a left tuple's keys with a right tuple's keys.
func cmpAcross(lt, rt relation.Tuple, li, ri []int, desc []bool) int {
	for k := range li {
		c := plan.CompareForSort(lt[li[k]], rt[ri[k]])
		if desc[k] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// StreamAggExec aggregates a relation already sorted on the node's
// InOrder: a key change is a group boundary, so exactly one group's
// accumulators are live at a time. Output rows are emitted in input
// order — the delivered-order claim for this node — with the key
// columns in the logical GroupBy's declaration order, so the schema
// matches algebra.GroupProject's exactly.
func StreamAggExec(g *plan.StreamAgg, in *relation.Relation) (*relation.Relation, error) {
	return streamAggProbe(g, in, nil)
}

func streamAggProbe(g *plan.StreamAgg, in *relation.Relation, b *guard.Budget) (*relation.Relation, error) {
	s := in.Schema()
	keyIdx := make([]int, len(g.Keys))
	for i, a := range g.Keys {
		keyIdx[i] = s.IndexOf(a)
		if keyIdx[i] < 0 {
			return nil, fmt.Errorf("executor: group key %s not in input schema", a)
		}
	}
	ordIdx := make([]int, len(g.InOrder))
	desc := make([]bool, len(g.InOrder))
	for i, k := range g.InOrder {
		ordIdx[i] = s.IndexOf(k.Attr)
		desc[i] = k.Desc
		if ordIdx[i] < 0 {
			return nil, fmt.Errorf("executor: order key %s not in input schema", k.Attr)
		}
	}
	outAttrs := append([]schema.Attribute(nil), g.Keys...)
	for _, a := range g.Aggs {
		outAttrs = append(outAttrs, a.Out)
	}
	outSchema := schema.New(outAttrs...)
	out := relation.New(outSchema)
	reg := b.Registry()
	reg.Counter("exec.streamagg.runs").Inc()

	// SQL: aggregation with no GROUP BY keys over any input yields one
	// row; with keys, an empty input yields no groups. The extractor
	// only builds StreamAgg with keys, but mirror GroupProject anyway.
	if in.Len() == 0 {
		if len(g.Keys) == 0 && len(g.Aggs) > 0 {
			row := make(relation.Tuple, 0, len(g.Aggs))
			for _, a := range g.Aggs {
				row = append(row, algebra.NewAggState(a.Func).Result(a.Func, a.NullIfEmpty))
			}
			out.Append(row)
		}
		return out, nil
	}

	env := expr.TupleEnv{Schema: s}
	states := make([]*algebra.AggState, len(g.Aggs))
	openGroup := func() {
		for i, a := range g.Aggs {
			states[i] = algebra.NewAggState(a.Func)
		}
	}
	var groupHead relation.Tuple
	groups := 0
	charged := 0
	emit := func() error {
		row := make(relation.Tuple, 0, len(g.Keys)+len(g.Aggs))
		for _, k := range keyIdx {
			row = append(row, groupHead[k])
		}
		for i, a := range g.Aggs {
			row = append(row, states[i].Result(a.Func, a.NullIfEmpty))
		}
		out.Append(row)
		groups++
		return nil
	}

	for i, t := range in.Tuples() {
		if i%execBatchRows == 0 {
			if err := guard.Hit(guard.PointExecStreamAgg); err != nil {
				return nil, err
			}
			if err := b.Err(); err != nil {
				return nil, err
			}
			if err := chargeSince(b, out, &charged, outSchema.Len()); err != nil {
				return nil, err
			}
		}
		if groupHead == nil {
			groupHead = t
			openGroup()
		} else {
			c := cmpOnKeys(groupHead, t, ordIdx, desc)
			if c > 0 {
				return nil, fmt.Errorf("%w: streaming aggregation input at %s", ErrUnsorted, g.InOrder)
			}
			if c != 0 {
				if err := emit(); err != nil {
					return nil, err
				}
				groupHead = t
				openGroup()
			}
		}
		env.Tuple = t
		for ai, a := range g.Aggs {
			var v value.Value
			if a.Arg != nil {
				v = a.Arg.Eval(env)
			}
			states[ai].Add(a.Func, v)
		}
	}
	if err := emit(); err != nil {
		return nil, err
	}
	reg.Counter("exec.streamagg.groups").Add(int64(groups))
	if err := chargeSince(b, out, &charged, outSchema.Len()); err != nil {
		return nil, err
	}
	return out, nil
}

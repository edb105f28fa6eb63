package executor

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/value"
)

// This file is the vectorized engine's plan walker — the engine the
// production entry point Exec runs on. Data flows between operators as columnar
// batch.Rel relations, and every operator runs as a kernel over the
// columns: scan, selection, join build/probe (hashed or nested loop),
// GROUP BY, (distinct) projection (vecjoin.go, vecagg.go), sort, and
// the preserved-side compensation of generalized selection and MGOJ
// (compensate).
//
// A scan does not shape or copy anything: it reads the base relation's
// own column vectors (batch.Of), and a join that builds on a bare scan
// takes the table's join index the same way. Kernels therefore treat a
// scan as read-only. What they derive from it is materialized late:
// selections, joins, compensations, projections and sorts hand on
// (source column, selection vector) views, and a column is gathered by
// the first kernel that reads it through Rel.Col — or never.
//
// The contract is vecEngine ≡ plan.Node.Eval as multisets on every
// plan Eval accepts, including NULL-padded outer joins, and
// bit-identical aggregate values (float sums accumulate in input
// order through the same algebra.AggState arithmetic). A sort orders
// rows as Eval's plan.SortRows does: both order row positions with
// plan.SortIndex under plan.CompareForSort.

// vecEngine carries one vectorized execution's configuration.
type vecEngine struct {
	db    plan.Database
	b     *guard.Budget
	batch int
	reg   *obs.Registry
	ann   plan.Annotations // nil outside instrumented runs
}

// exec runs the subtree at n: budget check on entry, an
// operator fault point as each node completes, joins charged
// incrementally inside the probe kernels (an MGOJ's padding once
// more after them), every other operator but a scan charged on its
// full output.
func (e *vecEngine) exec(n plan.Node) (*batch.Rel, error) {
	if err := e.b.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	var st *joinProbe
	if e.ann != nil {
		st = &joinProbe{}
	}
	out, charged, err := e.execNode(n, st)
	if err != nil {
		return nil, err
	}
	if err := guard.Hit(guard.PointExecOperator); err != nil {
		return nil, err
	}
	if !charged {
		if err := e.b.ChargeOut(out.N, out.Schema.Len()); err != nil {
			return nil, err
		}
	}
	if e.ann != nil {
		a := e.ann.For(n)
		a.Rows = out.N
		a.Elapsed = time.Since(start)
		if st != nil {
			switch n.(type) {
			case *plan.Join, *plan.MGOJNode:
				recordJoinProbe(a, st)
			}
		}
	}
	return out, nil
}

// execNode dispatches one operator. It reports whether the operator
// already charged its output (scans are exempt; joins charge per
// batch).
func (e *vecEngine) execNode(n plan.Node, st *joinProbe) (*batch.Rel, bool, error) {
	switch m := n.(type) {
	case *plan.Scan:
		s, err := m.Schema(e.db)
		if err != nil {
			return nil, false, err
		}
		img := batch.Of(e.db[m.Rel])
		if s != img.Schema {
			img = img.As(s) // aliased: same columns, renamed schema
		}
		return img, true, nil
	case *plan.Select:
		in, err := e.exec(m.Input)
		if err != nil {
			return nil, false, err
		}
		sel, err := e.vecSelect(m.Pred, in)
		if err != nil || sel == nil {
			return in, false, err
		}
		return in.Select(sel), false, nil
	case *plan.Project:
		in, err := e.exec(m.Input)
		if err != nil {
			return nil, false, err
		}
		out, err := e.vecProject(projectShape(m, in.Schema), m.Distinct, in)
		return out, false, err
	case *plan.GroupBy:
		in, err := e.exec(m.Input)
		if err != nil {
			return nil, false, err
		}
		out, err := e.vecGroupBy(groupShape(m, in.Schema), m.Aggs, in)
		return out, false, err
	case *plan.Join:
		l, r, err := e.inputs(m.L, m.R)
		if err != nil {
			return nil, false, err
		}
		sh := joinShape(m, m.Pred, l.Schema, r.Schema)
		lsel, rsel, err := e.vecJoin(m.Kind, sh, l, r, st)
		if err != nil {
			return nil, false, err
		}
		return batch.Gather2(sh.Out, l, lsel, r, rsel), true, nil
	case *plan.MGOJNode:
		// σ* over the inner join (the paper's Section 4): the probe
		// charged the join rows; only the padding is charged here.
		l, r, err := e.inputs(m.L, m.R)
		if err != nil {
			return nil, false, err
		}
		sh := joinShape(m, m.Pred, l.Schema, r.Schema)
		lsel, rsel, err := e.vecJoin(plan.InnerJoin, sh, l, r, st)
		if err != nil {
			return nil, false, err
		}
		out, pads, err := e.compensate(sh.Out, m.Preserved, []*batch.Rel{l, r}, [][]int32{lsel, rsel})
		if err != nil {
			return nil, false, err
		}
		if st != nil {
			st.NullPadded += pads
		}
		return out, true, e.b.ChargeOut(pads, sh.Out.Len())
	case *plan.GenSel:
		in, err := e.exec(m.Input)
		if err != nil {
			return nil, false, err
		}
		sel, err := e.vecSelect(m.Pred, in)
		if err != nil || sel == nil {
			return in, false, err // every row holds: nothing is missing
		}
		out, _, err := e.compensate(in.Schema, m.Preserved, []*batch.Rel{in}, [][]int32{sel})
		return out, false, err
	case *plan.Sort:
		out, err := e.sort(m)
		return out, false, err
	default:
		return nil, false, fmt.Errorf("executor: unsupported node %T", n)
	}
}

// inputs runs a binary node's inputs, left first.
func (e *vecEngine) inputs(ln, rn plan.Node) (l, r *batch.Rel, err error) {
	if l, err = e.exec(ln); err == nil {
		r, err = e.exec(rn)
	}
	return l, r, err
}

// compensate completes σ* (Definition 2.1) after its σ_p for a
// generalized selection (sides: its input) and an MGOJ (sides: the
// join's inputs; the paper's Section 4). kept[s] are the rows σ_p kept,
// as positions in sides[s]. The output, of schema out and pending over
// the sides, is those rows and then, per preserved spec, the first row
// of each group of groupIDs over the spec's columns that no kept row
// hit, NULL-padded elsewhere: groups are NULL-identical and in
// first-seen order, as the reference's distinct projection is, and a
// spec spanning both sides masks (left, right) group pairs left-major,
// as its projection of the product. An all-NULL projection stands for
// no row and is skipped. It also returns the number of padded rows.
func (e *vecEngine) compensate(out *schema.Schema, specs []plan.PreservedSpec, sides []*batch.Rel, kept [][]int32) (_ *batch.Rel, npads int, err error) {
	pads := make([][2][]int32, len(specs)) // per spec, the padded rows' positions in each side
	for i, spec := range specs {
		var cols [2][]int
		groupOf, first := [2][]int32{}, [2][]int32{unspanned, unspanned}
		for s, side := range sides {
			for c := 0; c < side.Width(); c++ {
				if slices.Contains(spec, side.Schema.At(c).Rel) {
					cols[s] = append(cols[s], c)
				}
			}
			if cols[s] != nil {
				if groupOf[s], first[s], err = e.groupIDs(side, cols[s]); err != nil {
					return nil, 0, err
				}
			}
		}
		if cols[0] == nil && cols[1] == nil {
			return nil, 0, fmt.Errorf("executor: preserved relations %s have no attributes in %s", spec, out)
		}
		nr := len(first[1])
		hit := make([]bool, len(first[0])*nr) // by left group × nr + right group
		for k := range kept[0] {
			h := 0
			for s, g := range groupOf {
				if h *= len(first[s]); g != nil {
					h += int(g[kept[s][k]])
				}
			}
			hit[h] = true
		}
		allNull := func(s int, row int32) bool {
			for _, c := range cols[s] {
				if !sides[s].Col(c).IsNull(int(row)) {
					return false
				}
			}
			return true
		}
		for a, fa := range first[0] {
			for b, fb := range first[1] {
				if !hit[a*nr+b] && !(allNull(0, fa) && allNull(1, fb)) {
					pads[i][0], pads[i][1] = append(pads[i][0], fa), append(pads[i][1], fb)
					npads++
				}
			}
		}
	}
	// Column c's rows: the kept rows, then each spec's pads — the
	// group's first row where the spec spans c's relation, else -1.
	nulls := make([]int32, npads)
	for k := range nulls {
		nulls[k] = -1
	}
	sels := make([][]int32, 0, out.Len())
	for s, side := range sides {
		for c := 0; c < side.Width(); c++ {
			rel, sel := side.Schema.At(c).Rel, kept[s]
			switch {
			case npads == 0:
			case c > 0 && side.Schema.At(c-1).Rel == rel:
				sel = sels[len(sels)-1]
			default:
				sel = append(make([]int32, 0, len(kept[s])+npads), kept[s]...)
				for i, spec := range specs {
					if rows := pads[i][s]; slices.Contains(spec, rel) {
						sel = append(sel, rows...)
					} else {
						sel = append(sel, nulls[:len(rows)]...)
					}
				}
			}
			sels = append(sels, sel)
		}
	}
	return batch.Gather(out, sides, sels), npads, nil
}

// unspanned is the one all-NULL group of a side a spec does not span.
var unspanned = []int32{-1}

// sort orders its input with plan.SortIndex under one comparator per
// key column: typed over a NULL-free int, float or string column,
// plan.CompareForSort over any other. Input already in order is handed
// on as it is (found by one typed pass, inKeyOrder, for one int or
// float key); otherwise the result is a view of the chosen rows, so late
// materialization gathers only the columns a later operator reads.
func (e *vecEngine) sort(m *plan.Sort) (*batch.Rel, error) {
	in, err := e.exec(m.Input)
	if err != nil {
		return nil, err
	}
	if (m.Limit < 0 || m.Limit >= in.N) && inKeyOrder(in, m.Keys) {
		return in, nil
	}
	order, err := plan.KeyCompare(in.Schema, m.Keys, func(c int) func(i, j int32) int {
		return columnCompare(in.Col(c))
	})
	if err != nil {
		return nil, err
	}
	if idx := plan.SortIndex(in.N, m.Limit, order); idx != nil {
		return in.Select(idx), nil
	}
	return in, nil
}

// inKeyOrder reports whether in's rows already stand in the order of
// keys where keys is one NULL-free int or float column, by a bare loop
// over its payload — a third of the time of plan.SortIndex's in-order
// walk through the composed comparator. Any other keys it leaves to
// SortIndex, reporting false. Equal rows are in order, as SortIndex's
// tie-break by position has them.
func inKeyOrder(in *batch.Rel, keys []plan.SortKey) bool {
	if len(keys) != 1 {
		return false
	}
	c := in.Schema.IndexOf(keys[0].Attr)
	if c < 0 {
		return false
	}
	v := in.Col(c)
	if v.Nulls != nil {
		return false
	}
	sign := 1 // the comparison of two rows out of order
	if keys[0].Desc {
		sign = -1
	}
	switch v.Phys {
	case batch.PhysInt:
		xs := v.Ints
		for i := 1; i < len(xs); i++ {
			if cmp.Compare(xs[i-1], xs[i]) == sign {
				return false
			}
		}
		return true
	case batch.PhysFloat:
		xs := v.Floats
		for i := 1; i < len(xs); i++ {
			if value.CompareFloat(xs[i-1], xs[i]) == sign {
				return false
			}
		}
		return true
	}
	return false
}

// columnCompare is plan.CompareForSort over two rows of v.
func columnCompare(v *batch.Vec) func(i, j int32) int {
	switch {
	case v.Nulls == nil && v.Phys == batch.PhysInt:
		xs := v.Ints
		return func(i, j int32) int { return cmp.Compare(xs[i], xs[j]) }
	case v.Nulls == nil && v.Phys == batch.PhysFloat:
		xs := v.Floats
		return func(i, j int32) int { return value.CompareFloat(xs[i], xs[j]) }
	case v.Nulls == nil && v.Phys == batch.PhysStr:
		xs := v.Strs
		return func(i, j int32) int { return strings.Compare(xs[i], xs[j]) }
	}
	return func(i, j int32) int { return plan.CompareForSort(v.At(int(i)), v.At(int(j))) }
}

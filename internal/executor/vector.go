package executor

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/batch"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/value"
)

// This file is the vectorized engine's plan walker — the engine the
// production entry point Exec runs on. Data flows between operators as columnar
// batch.Rel relations; the hot operators — scan, selection, join
// build/probe (hashed or nested loop), GROUP BY, (distinct) projection
// and sort — run as kernels over the columns (vecjoin.go, vecagg.go).
// The preserved-side compensation of MGOJ and generalized selection
// falls back to its tuple operator: its inputs are materialized
// row-major, the operator runs under the engine's budget, and the
// result is re-shaped columnar. Fallbacks are counted on
// exec.vector.fallback.<op>, so a plan that silently executes mostly
// row-at-a-time is visible in -stats output.
//
// A scan does not shape or copy anything: it reads the base relation's
// own column vectors (batch.Of), and a join that builds on a bare scan
// takes the table's join index the same way. Kernels therefore treat a
// scan as read-only. What they derive from it is materialized late: selections, joins, projections and sorts hand
// on (source column, selection vector) views, and a column is gathered
// by the first kernel that reads it through Rel.Col — or never.
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
// incrementally inside the probe kernels, every other materializing
// operator charged on its full output — the exact protocol the tuple
// engines follow, so a budget trips at the same boundaries.
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
		out, err := e.vecSelect(m.Pred, in)
		return out, false, err
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
		l, err := e.exec(m.L)
		if err != nil {
			return nil, false, err
		}
		r, err := e.exec(m.R)
		if err != nil {
			return nil, false, err
		}
		out, err := e.vecJoin(m.Kind, joinShape(m, m.Pred, l.Schema, r.Schema), l, r, st)
		return out, true, err
	case *plan.MGOJNode:
		// The inner join runs vectorized; the preserved-projection
		// compensation is inherently tuple-shaped (distinct projections
		// and set differences over the padded remainder) and runs
		// algebra.MGOJWith on the materialized seam. The probe charged
		// the join rows; only the padding is charged here.
		l, err := e.exec(m.L)
		if err != nil {
			return nil, false, err
		}
		r, err := e.exec(m.R)
		if err != nil {
			return nil, false, err
		}
		join, err := e.vecJoin(plan.InnerJoin, joinShape(m, m.Pred, l.Schema, r.Schema), l, r, st)
		if err != nil {
			return nil, false, err
		}
		e.reg.Counter("exec.vector.fallback.mgoj-compensate").Inc()
		out, err := algebra.MGOJWith(join.ToRelation(), specSets(m.Preserved), l.ToRelation(), r.ToRelation())
		if err != nil {
			return nil, false, err
		}
		pads := out.Len() - join.N
		if st != nil {
			st.NullPadded += pads
		}
		if err := e.b.ChargeOut(pads, out.Schema().Len()); err != nil {
			return nil, false, err
		}
		return batch.FromRelation(out), true, nil
	case *plan.GenSel:
		// σ_p runs vectorized; the preserved-side padding reuses the
		// tuple algebra on the materialized seam.
		in, err := e.exec(m.Input)
		if err != nil {
			return nil, false, err
		}
		sel, err := e.vecSelect(m.Pred, in)
		if err != nil {
			return nil, false, err
		}
		e.reg.Counter("exec.vector.fallback.gensel-pad").Inc()
		out, err := algebra.GenSelectWith(sel.ToRelation(), specSets(m.Preserved), in.ToRelation())
		if err != nil {
			return nil, false, err
		}
		return batch.FromRelation(out), false, nil
	case *plan.Sort:
		out, err := e.sort(m)
		return out, false, err
	default:
		return nil, false, fmt.Errorf("executor: unsupported node %T", n)
	}
}

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

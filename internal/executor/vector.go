package executor

import (
	"fmt"
	"math"
	"time"

	"repro/internal/algebra"
	"repro/internal/batch"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/value"
)

// This file is the vectorized engine's plan walker — the engine the
// production entry point Exec runs on (Run stays on the row walker as
// the independent reference). Data flows between operators as columnar
// batch.Rel relations; the hot operators — scan, selection, join
// build/probe (hashed or nested loop), GROUP BY and (distinct)
// projection — run as batch-at-a-time kernels (vecjoin.go, vecagg.go),
// and every operator the columnar engine has not ported
// falls back per operator to its tuple operator: children are
// materialized row-major, the operator runs under the engine's budget,
// and the result is re-shaped columnar. Fallbacks are counted on
// exec.vector.fallback.<op>, so a plan that silently executes mostly
// row-at-a-time is visible in -stats output.
//
// A scan does not shape anything: it takes the base relation's shared
// columnar image (batch.Of), built on the relation's first scan and
// kept on the relation until it is appended to, and a join that builds
// on a bare scan takes the image's join index the same way. Kernels
// therefore treat a shared image as read-only. What they derive from it
// is materialized late: selections, joins and projections hand on
// (source column, selection vector) views, and a column is gathered by
// the first kernel that reads it through Rel.Col — or never.
//
// The contract is vecEngine ≡ Run as multisets on every plan the
// tuple engine accepts, including NULL-padded outer joins, and
// bit-identical aggregate values (float sums accumulate in input
// order through the same algebra.AggState arithmetic). Row order is
// kept where the plan asks for one: a sort runs on the tuple engine's
// stable sort, or passes its input through when the input is already
// in order.

// vecEngine carries one vectorized execution's configuration.
type vecEngine struct {
	db    plan.Database
	b     *guard.Budget
	batch int
	reg   *obs.Registry
	ann   plan.Annotations // nil outside instrumented runs
	adapt *Adapt           // nil = static plan, no mid-query adaptivity
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
				recordJoinProbe(a, st, e.reg)
			}
		}
		op := OpName(n)
		e.reg.Counter("executor.ops").Inc()
		e.reg.Counter("executor.op." + op).Inc()
		e.reg.Counter("executor.rows_out").Add(int64(out.N))
		e.reg.Histogram("executor.op_ns").ObserveDuration(a.Elapsed)
		e.reg.Histogram("executor.rows_out." + op).Observe(int64(out.N))
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
		out, err := e.vecProject(m.Attrs, m.Distinct, in)
		return out, false, err
	case *plan.GroupBy:
		in, err := e.exec(m.Input)
		if err != nil {
			return nil, false, err
		}
		out, err := e.vecGroupBy(m.Keys, m.Aggs, in)
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
		out, err := e.vecJoin(m.Kind, m.Pred, l, r, st)
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
		join, err := e.vecJoin(plan.InnerJoin, m.Pred, l, r, st)
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

// sort runs the one tuple operator the columnar engine has not ported
// over its input boxed row-major, and re-shapes the result; counted on
// exec.vector.fallback.sort. A full sort (no LIMIT) first checks its
// input in one pass and returns it unchanged when it is already in key
// order: the stable sort of sorted input is that input.
func (e *vecEngine) sort(m *plan.Sort) (*batch.Rel, error) {
	e.reg.Counter("exec.vector.fallback.sort").Inc()
	in, err := e.exec(m.Input)
	if err != nil {
		return nil, err
	}
	if m.Limit < 0 && presorted(in, m.Keys) {
		return in, nil
	}
	out, err := plan.SortRows(in.ToRelation(), m.Keys, m.Limit)
	if err != nil {
		return nil, err
	}
	return batch.FromRelation(out), nil
}

// presorted reports whether r's rows already stand in the order keys
// ask for under plan.SortRows's comparator. It makes one pass per key,
// over the adjacent row pairs still tied on the keys before it: a
// NULL-free int, float or string column compares its typed payloads,
// any other column compares values with plan.CompareForSort. A NaN,
// which the comparator does not order consistently, or a key missing
// from the schema answers false and leaves the case to SortRows.
func presorted(r *batch.Rel, keys []plan.SortKey) bool {
	cols := make([]int, len(keys))
	for ki, k := range keys {
		if cols[ki] = r.Schema.IndexOf(k.Attr); cols[ki] < 0 {
			return false
		}
	}
	// tied lists the rows i whose pair (i-1, i) ties on the keys so
	// far; nil before the first key means every pair.
	var tied []int32
	for ki, k := range keys {
		if ki > 0 && len(tied) == 0 {
			return true
		}
		all, last := ki == 0, ki == len(keys)-1
		var ok bool
		switch v := r.Col(cols[ki]); {
		case v.Nulls == nil && v.Phys == batch.PhysInt:
			tied, ok = typedPairs(v.Ints, tied, all, last, k.Desc)
		case v.Nulls == nil && v.Phys == batch.PhysFloat:
			tied, ok = typedPairs(v.Floats, tied, all, last, k.Desc)
		case v.Nulls == nil && v.Phys == batch.PhysStr:
			tied, ok = typedPairs(v.Strs, tied, all, last, k.Desc)
		default:
			tied, ok = valuePairs(v, r.N, tied, all, last, k.Desc)
		}
		if !ok {
			return false
		}
	}
	return true
}

// typedPairs checks the pairs (i-1, i) of a NULL-free typed column —
// every pair when all is set, else those ending at the rows of tied —
// in the key's direction, and returns the rows whose pair ties (none
// on the last key, where ties no longer matter). It answers false at
// the first pair out of order or holding a NaN (x != x).
func typedPairs[T int64 | float64 | string](xs []T, tied []int32, all, last, desc bool) ([]int32, bool) {
	var next []int32
	if all {
		for i := 1; i < len(xs); i++ {
			a, b := xs[i-1], xs[i]
			if desc {
				a, b = b, a
			}
			if a > b || a != a || b != b {
				return nil, false
			}
			if a == b && !last {
				next = append(next, int32(i))
			}
		}
		return next, true
	}
	for _, i := range tied {
		a, b := xs[i-1], xs[i]
		if desc {
			a, b = b, a
		}
		if a > b || a != a || b != b {
			return nil, false
		}
		if a == b && !last {
			next = append(next, i)
		}
	}
	return next, true
}

// valuePairs is typedPairs over any column, comparing with
// plan.CompareForSort.
func valuePairs(v *batch.Vec, n int, tied []int32, all, last, desc bool) ([]int32, bool) {
	var next []int32
	check := func(i int32) bool {
		a, b := v.At(int(i)-1), v.At(int(i))
		if isNaN(a) || isNaN(b) {
			return false
		}
		c := plan.CompareForSort(a, b)
		if desc {
			c = -c
		}
		if c == 0 && !last {
			next = append(next, i)
		}
		return c <= 0
	}
	if all {
		for i := 1; i < n; i++ {
			if !check(int32(i)) {
				return nil, false
			}
		}
		return next, true
	}
	for _, i := range tied {
		if !check(i) {
			return nil, false
		}
	}
	return next, true
}

func isNaN(v value.Value) bool { return v.Kind() == value.KindFloat && math.IsNaN(v.Float()) }

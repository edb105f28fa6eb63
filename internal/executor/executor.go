// Package executor evaluates logical plans with physical operators.
// Exec, the production entry point, runs a plan on the columnar engine
// (vector.go): hash joins over equality conjuncts and nested loops
// over the rest share one probe kernel (vecjoin.go) that evaluates
// residuals and NULL-pads either side for outer joins, a join whose
// build side outgrows the byte budget joins partition by partition
// (spill.go), and selection, projection and grouping run as batch
// kernels (vecagg.go). Run evaluates the same plans row-at-a-time with
// tuple operators that share no kernel with Exec; the package tests
// hold the two to each other and to the reference semantics of
// plan.Node.Eval.
package executor

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// execBatchRows is the join probe's guard granularity: cancellation,
// fault points and row/byte charges are checked once per this many
// probe-side tuples, so governance costs a modulus per tuple and the
// response latency to a trip is bounded by one batch.
const execBatchRows = 1024

// Run executes the plan against db on the row-at-a-time engine,
// unbudgeted and uninstrumented. It is the reference the columnar
// engine is checked against (the property suites, the benchmark's
// oracle), so it shares no walker and no state with the production
// entry points below — only the tuple operators themselves.
func Run(n plan.Node, db plan.Database) (*relation.Relation, error) {
	ch := n.Children()
	in := make([]*relation.Relation, len(ch))
	for i, c := range ch {
		r, err := Run(c, db)
		if err != nil {
			return nil, err
		}
		in[i] = r
	}
	switch m := n.(type) {
	case *plan.Scan:
		return m.Eval(db)
	case *plan.Select:
		return algebra.Select(m.Pred, in[0]), nil
	case *plan.Project:
		return in[0].Project(m.Attrs, m.Distinct), nil
	case *plan.GroupBy:
		return algebra.GroupProject(m.Keys, m.Aggs, in[0]), nil
	case *plan.Sort:
		return plan.SortRows(in[0], m.Keys, m.Limit)
	case *plan.GenSel:
		return algebra.GenSelect(m.Pred, specSets(m.Preserved), in[0])
	case *plan.Join:
		return joinExec(m.Kind, m.Pred, in[0], in[1])
	case *plan.MGOJNode:
		join, err := joinExec(plan.InnerJoin, m.Pred, in[0], in[1])
		if err != nil {
			return nil, err
		}
		return algebra.MGOJWith(join, specSets(m.Preserved), in[0], in[1])
	default:
		return nil, fmt.Errorf("executor: unsupported node %T", n)
	}
}

// Options configures one Exec. The zero value runs the plan
// unbudgeted and uninstrumented. Neither field changes how a join runs:
// that follows from its inputs and the budget's byte headroom alone.
type Options struct {
	// Budget governs the run: cancellation and row/byte limits are
	// checked at per-operator and per-batch boundaries (surfacing
	// guard.ErrCancelled / ErrBudget), and executor counters land in its
	// registry. A hash join whose build side cannot fit the MaxBytes
	// headroom joins partition by partition (spill.go) instead of
	// tripping. nil never trips.
	Budget *guard.Budget
	// Obs instruments the run: every node of the plan gets an
	// annotation with its output rows and inclusive time, and joins add
	// their probe figures. The annotations are the run's one record of
	// those facts; the executor's event counters (fallbacks, spills,
	// hash collisions) land in Obs instead of in the budget's registry.
	// nil runs uninstrumented and returns no annotations.
	Obs *obs.Registry
}

// Exec is the production execution entry point: the plan runs on the
// columnar engine (vector.go) and its result comes back columnar, for a
// caller that reads the typed vectors directly (the query service
// encodes them onto the wire). A panic anywhere in the execution
// converts to a *guard.PanicError carrying the plan fingerprint
// instead of unwinding into the caller. The result is multiset-equal
// to Run's, and row-identical to it under a root Sort; it
// may share columns with a base table, so callers treat it as
// read-only.
func Exec(n plan.Node, db plan.Database, o Options) (out *batch.Rel, ann plan.Annotations, err error) {
	phase := "execute"
	defer guard.RecoverAs(&err, &phase, n, o.Obs)
	e := &vecEngine{db: db, b: o.Budget, batch: execBatchRows, reg: o.Budget.Registry()}
	if o.Obs == nil {
		out, err = e.exec(n)
		return out, nil, err
	}
	e.reg, e.ann = o.Obs, plan.Annotations{}
	obs.WithPhase(o.Budget.Context(), "executor", "execute", func() {
		out, err = e.exec(n)
	})
	if err != nil {
		return nil, nil, err
	}
	return out, e.ann, nil
}

// RunGuarded is Exec under a budget with the result boxed row-major.
func RunGuarded(n plan.Node, db plan.Database, b *guard.Budget) (*relation.Relation, error) {
	out, _, err := Exec(n, db, Options{Budget: b})
	if err != nil {
		return nil, err
	}
	return out.ToRelation(), nil
}

// Adapt is kept only for the benchmark module, which still names it;
// every field is ignored, and it goes when the benchmark stops naming
// it. A join's strategy is not the caller's to choose: it builds on
// the planned side and partitions when the budget cannot hold its
// build table.
type Adapt struct {
	SwapFactor float64 // ignored
	Spill      bool    // ignored
}

// RunInstrumentedAdaptive is Exec instrumented into reg (nil means the
// budget's registry) with the result boxed row-major. a is ignored;
// see Adapt.
func RunInstrumentedAdaptive(n plan.Node, db plan.Database, reg *obs.Registry, b *guard.Budget, a *Adapt) (*relation.Relation, plan.Annotations, error) {
	if reg == nil {
		reg = b.Registry()
	}
	out, ann, err := Exec(n, db, Options{Budget: b, Obs: reg})
	if err != nil {
		return nil, nil, err
	}
	return out.ToRelation(), ann, nil
}

// splitEqui partitions pred into hashable equality conjuncts l.col =
// r.col — their column positions in the left and right schemas, li[k]
// paired with ri[k] — and a residual predicate.
func splitEqui(pred expr.Pred, ls, rs *schema.Schema) (li, ri []int, residual expr.Pred) {
	var rest []expr.Pred
	for _, c := range expr.Conjuncts(pred) {
		cmp, ok := c.(expr.Cmp)
		if !ok || cmp.Op != value.EQ {
			rest = append(rest, c)
			continue
		}
		lc, lok := cmp.L.(expr.Col)
		rc, rok := cmp.R.(expr.Col)
		if !lok || !rok {
			rest = append(rest, c)
			continue
		}
		l, r := ls.IndexOf(lc.Attr), rs.IndexOf(rc.Attr)
		if l < 0 || r < 0 {
			// Try the mirrored orientation.
			l, r = ls.IndexOf(rc.Attr), rs.IndexOf(lc.Attr)
		}
		if l >= 0 && r >= 0 {
			li, ri = append(li, l), append(ri, r)
			continue
		}
		rest = append(rest, c)
	}
	return li, ri, expr.And(rest...)
}

// specSets is the preserved specifications as the relation-name sets
// the algebra takes.
func specSets(ps []plan.PreservedSpec) []map[string]bool {
	specs := make([]map[string]bool, len(ps))
	for i, s := range ps {
		specs[i] = s.Set()
	}
	return specs
}

// joinExec joins two materialized relations with the given kind and
// predicate: a hash join over the equality conjuncts, a nested loop
// over every right row when there are none. It is Run's tuple join —
// unbudgeted, uninstrumented, and sharing no kernel with the columnar
// join Exec runs, so each checks the other.
func joinExec(kind plan.JoinKind, pred expr.Pred, l, r *relation.Relation) (*relation.Relation, error) {
	ls, rs := l.Schema(), r.Schema()
	out := relation.New(ls.Concat(rs))
	li, ri, residual := splitEqui(pred, ls, rs)
	// every is the nested loop's candidate list; build buckets the
	// right rows by key hash otherwise. A NULL key matches nothing.
	rts := r.Tuples()
	var every []int
	var build map[uint64][]int
	if len(li) == 0 {
		every = make([]int, len(rts))
		for j := range every {
			every[j] = j
		}
	} else {
		build = make(map[uint64][]int, len(rts))
		for j, t := range rts {
			if h, ok := t.HashOn(ri); ok {
				build[h] = append(build[h], j)
			}
		}
	}
	nl, nr := ls.Len(), rs.Len()
	env := expr.TupleEnv{Schema: out.Schema(), Tuple: make(relation.Tuple, nl+nr)}
	rightMatched := make([]bool, len(rts))
	l.Each(func(lt relation.Tuple) {
		cands := every
		if len(li) > 0 {
			h, ok := lt.HashOn(li)
			if cands = nil; ok {
				cands = build[h]
			}
		}
		matched := false
		copy(env.Tuple, lt)
		for _, j := range cands {
			rt := rts[j]
			if len(li) > 0 && !lt.EqualOn(rt, li, ri) {
				continue // a hash collision
			}
			copy(env.Tuple[nl:], rt)
			if !residual.Eval(&env).Holds() {
				continue
			}
			matched = true
			rightMatched[j] = true
			out.Append(env.Tuple)
		}
		if !matched && (kind == plan.LeftJoin || kind == plan.FullJoin) {
			out.Append(padded(lt, nil, nl, nr))
		}
	})
	if kind == plan.RightJoin || kind == plan.FullJoin {
		for j, rt := range rts {
			if !rightMatched[j] {
				out.Append(padded(nil, rt, nl, nr))
			}
		}
	}
	return out, nil
}

// padded is the outer-join row of lt and rt, NULL where either is nil.
func padded(lt, rt relation.Tuple, nl, nr int) relation.Tuple {
	row := make(relation.Tuple, nl+nr)
	for i := range row {
		row[i] = value.Null
	}
	copy(row, lt)
	copy(row[nl:], rt)
	return row
}

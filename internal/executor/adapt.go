package executor

import (
	"runtime"

	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

// Adapt configures mid-query adaptivity for hash joins. Both
// adaptations commit before the first probe — the only point where
// changing the physical strategy is free of replay: nothing has been
// emitted yet, so the output stays multiset-identical to the static
// plan, and the decision is a deterministic function of the (already
// materialized) input sizes. A nil *Adapt — the default everywhere —
// disables both checks at the cost of one pointer comparison per
// join.
type Adapt struct {
	// SwapFactor enables build/probe swapping: when the planned build
	// side (the right input) materializes more than SwapFactor times
	// the probe side's rows, the join builds its hash table on the
	// smaller left side instead — the planner's side choice encoded a
	// cardinality estimate that execution just disproved. 0 disables
	// swapping.
	SwapFactor float64
	// Spill escalates an in-memory hash join whose build side cannot
	// fit the byte budget's remaining headroom to the grace/spill join
	// instead of dying on the MaxBytes trip.
	Spill bool
	// SpillDir is the spill-file directory when Spill is set (empty =
	// os.TempDir()).
	SpillDir string
}

// RunAdaptive is RunGuarded with mid-query adaptivity: hash joins may
// swap build/probe sides and escalate to the spilling grace join per
// a's thresholds. Results are multiset-identical to RunGuarded; row
// order can differ where an adaptation fires.
func RunAdaptive(n plan.Node, db plan.Database, b *guard.Budget, a *Adapt) (out *relation.Relation, err error) {
	phase := "execute"
	defer guard.RecoverAs(&err, &phase, plan.Key(n), nil)
	return run(n, db, b, a)
}

// RunParallelAdaptive is RunParallelGuarded with mid-query adaptivity.
func RunParallelAdaptive(n plan.Node, db plan.Database, workers int, b *guard.Budget, a *Adapt) (out *relation.Relation, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	phase := "execute"
	defer guard.RecoverAs(&err, &phase, plan.Key(n), nil)
	obs.WithPhase(b.Context(), "executor", "execute", func() {
		out, err = runParallel(n, db, workers, b, a)
	})
	return out, err
}

// RunVectorizedAdaptive is RunVectorizedGuarded with mid-query
// adaptivity: a join past the swap threshold builds on its left input
// inside the columnar kernel.
func RunVectorizedAdaptive(n plan.Node, db plan.Database, b *guard.Budget, a *Adapt) (out *relation.Relation, err error) {
	phase := "execute"
	defer guard.RecoverAs(&err, &phase, plan.Key(n), nil)
	e := &vecEngine{db: db, b: b, batch: execBatchRows, reg: b.Registry(), adapt: a, autoSpill: true}
	obs.WithPhase(b.Context(), "executor", "execute", func() {
		out, err = e.run(n)
	})
	return out, err
}

// RunInstrumentedAdaptive is the instrumented, adaptive execution on
// the columnar engine — the query service's entry point when feedback
// is enabled, and EXPLAIN ANALYZE's for -vec and -feedback. Every node
// of the plan gets an annotation with its output rows and inclusive
// time; joins add their probe figures, and adaptive transitions land
// in the annotations (build_swapped, spill_escalated extras) and the
// exec.adapt.* counters. reg receives the per-operator and
// exec.vector.* counters (nil means the budget's registry). a may be
// nil: a static plan, where a byte-budget overrun is a typed
// guard.ErrBudget as in RunGuarded.
func RunInstrumentedAdaptive(n plan.Node, db plan.Database, reg *obs.Registry, b *guard.Budget, a *Adapt) (out *relation.Relation, ann plan.Annotations, err error) {
	if reg == nil {
		reg = b.Registry()
	}
	phase := "execute"
	defer guard.RecoverAs(&err, &phase, plan.Key(n), reg)
	e := &vecEngine{db: db, b: b, batch: execBatchRows, reg: reg, ann: plan.Annotations{}, adapt: a}
	obs.WithPhase(b.Context(), "executor", "execute", func() {
		out, err = e.run(n)
	})
	if err != nil {
		return nil, nil, err
	}
	return out, e.ann, nil
}

// swapWanted is the deterministic pre-probe swap decision: the
// materialized build side outgrew the probe side by the configured
// factor.
func (a *Adapt) swapWanted(probeRows, buildRows int) bool {
	return a != nil && a.SwapFactor > 0 &&
		float64(buildRows) > a.SwapFactor*float64(probeRows)
}

// spillWanted reports whether a join may escalate to the grace/spill
// join; nil-safe like swapWanted.
func (a *Adapt) spillWanted() bool { return a != nil && a.Spill }

// adaptJoin runs the adapt decision cascade for one hash join whose
// inputs are fully materialized and whose equi keys are already
// split. It returns (out, true, err) when an adaptation took over the
// join, or (nil, false, nil) to tell the caller to proceed with the
// static build-on-right path. Escalation is checked on the effective
// (post-swap) build side, so a swap that also cannot fit memory goes
// straight to the grace join.
func adaptJoin(a *Adapt, kind plan.JoinKind, pred expr.Pred, residual expr.Pred, li, ri []int, l, r *relation.Relation, st *joinProbe, b *guard.Budget) (*relation.Relation, bool, error) {
	if a == nil {
		return nil, false, nil
	}
	swap := a.swapWanted(l.Len(), r.Len())
	if a.Spill {
		build, bs := r, r.Schema()
		if swap {
			build, bs = l, l.Schema()
		}
		if free, limited := b.BytesFree(); limited {
			if need := estBytes(build.Len(), bs.Len()); 2*need > free {
				if err := guard.Hit(guard.PointExecBuildSwap); err != nil {
					return nil, true, err
				}
				b.Registry().Counter("exec.adapt.spill_escalations").Inc()
				if st != nil {
					st.SpillEscalated = true
				}
				out, err := spillJoinProbe(kind, pred, l, r, st, b, nil, SpillOptions{Dir: a.SpillDir})
				return out, true, err
			}
		}
	}
	if swap {
		if err := guard.Hit(guard.PointExecBuildSwap); err != nil {
			return nil, true, err
		}
		b.Registry().Counter("exec.adapt.swaps").Inc()
		if st != nil {
			st.BuildSwapped = true
		}
		out, err := joinExecSwapped(kind, residual, li, ri, l, r, st, b)
		return out, true, err
	}
	return nil, false, nil
}

// joinExecSwapped is the build-on-left hash join: the mirror of
// joinExecProbe's core loop, used when adaptivity decides the left
// input is the cheaper side to hash. Output rows keep the (l, r)
// column order and the result is multiset-identical to the unswapped
// join — only physical row order differs, since rows stream out in
// probe (right) order instead of left order.
func joinExecSwapped(kind plan.JoinKind, residual expr.Pred, li, ri []int, l, r *relation.Relation, st *joinProbe, b *guard.Budget) (*relation.Relation, error) {
	ls, rs := l.Schema(), r.Schema()
	out := relation.New(ls.Concat(rs))
	buildRes := estBytes(l.Len(), ls.Len())
	if err := b.ReserveBytes(buildRes); err != nil {
		return nil, err
	}
	defer b.ReleaseBytes(buildRes)
	build := make(map[uint64][]int, l.Len())
	for j, t := range l.Tuples() {
		if h, ok := fastKey(t, li); ok {
			build[h] = append(build[h], j)
			if st != nil {
				st.BuildRows++
			}
		}
	}
	leftMatched := make([]bool, l.Len())
	nl, nr := ls.Len(), rs.Len()
	env := expr.TupleEnv{Schema: out.Schema()}
	scratch := make(relation.Tuple, nl+nr)
	arena := newTupleArena(nl + nr)
	collisions := 0
	charged := 0
	for i, rt := range r.Tuples() {
		if i%execBatchRows == 0 {
			if err := guard.Hit(guard.PointExecBatch); err != nil {
				return nil, err
			}
			if err := b.Err(); err != nil {
				return nil, err
			}
			if err := chargeSince(b, out, &charged, nl+nr); err != nil {
				return nil, err
			}
		}
		matched := false
		if h, ok := fastKey(rt, ri); ok {
			for _, j := range build[h] {
				lt := l.Tuple(j)
				if !lt.EqualOn(rt, li, ri) {
					collisions++
					continue
				}
				copy(scratch, lt)
				copy(scratch[nl:], rt)
				env.Tuple = scratch
				if st != nil {
					st.ResidualEvals++
				}
				if residual.Eval(env).Holds() {
					matched = true
					leftMatched[j] = true
					row := arena.next()
					copy(row, scratch)
					out.Append(row)
				}
			}
		}
		if !matched && (kind == plan.RightJoin || kind == plan.FullJoin) {
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
	}
	if kind == plan.LeftJoin || kind == plan.FullJoin {
		for j, lt := range l.Tuples() {
			if j%execBatchRows == 0 {
				if err := b.Err(); err != nil {
					return nil, err
				}
				if err := chargeSince(b, out, &charged, nl+nr); err != nil {
					return nil, err
				}
			}
			if leftMatched[j] {
				continue
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
	}
	if st != nil {
		st.Collisions += collisions
	}
	if collisions > 0 {
		b.Registry().Counter("exec.hash.collisions").Add(int64(collisions))
	}
	st.flushArenas(b.Registry(), arena)
	if err := chargeSince(b, out, &charged, nl+nr); err != nil {
		return nil, err
	}
	return out, nil
}

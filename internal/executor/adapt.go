package executor

import (
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
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

// RunInstrumentedAdaptive is the instrumented, adaptive execution on
// the columnar engine — the query service's entry point when feedback
// is enabled, and EXPLAIN ANALYZE's. Every node of the plan gets an
// annotation with its output rows and inclusive time; joins add their
// probe figures, and adaptive transitions land
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

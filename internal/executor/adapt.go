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
	// Spill escalates a hash join whose build side cannot fit the byte
	// budget's remaining headroom to the partitioned join (spill.go),
	// which reserves one partition's build table at a time, instead of
	// dying on the MaxBytes trip.
	Spill bool
}

// RunInstrumentedAdaptive is Exec instrumented into reg (nil means the
// budget's registry) with the result boxed row-major.
func RunInstrumentedAdaptive(n plan.Node, db plan.Database, reg *obs.Registry, b *guard.Budget, a *Adapt) (*relation.Relation, plan.Annotations, error) {
	if reg == nil {
		reg = b.Registry()
	}
	out, ann, err := Exec(n, db, Options{Budget: b, Obs: reg, Adapt: a})
	if err != nil {
		return nil, nil, err
	}
	return out.ToRelation(), ann, nil
}

// swapWanted is the deterministic pre-probe swap decision: the
// materialized build side outgrew the probe side by the configured
// factor.
func (a *Adapt) swapWanted(probeRows, buildRows int) bool {
	return a != nil && a.SwapFactor > 0 &&
		float64(buildRows) > a.SwapFactor*float64(probeRows)
}

// spillWanted reports whether a join may escalate to the partitioned
// join; nil-safe like swapWanted.
func (a *Adapt) spillWanted() bool { return a != nil && a.Spill }

// Package executor evaluates logical plans with physical operators.
// Exec, the production entry point, runs a plan on the columnar engine
// (vector.go): hash joins over equality conjuncts and nested loops
// over the rest share one probe kernel (vecjoin.go) that evaluates
// residuals and NULL-pads either side for outer joins, a join whose
// build side outgrows the byte budget joins partition by partition
// (spill.go), and selection, projection and grouping run as batch
// kernels (vecagg.go). Its contract is plan.Node.Eval, the one
// reference evaluator, which runs the same plans on package algebra's
// tuple operators and shares no kernel with Exec: the package tests
// hold every Exec result to Eval's multiset.
package executor

import (
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

// Run is n.Eval(db), kept only because the benchmark module's oracle
// still names it; it goes when the benchmark stops naming it. Tests
// and experiments call plan.Node.Eval, the one reference evaluator.
func Run(n plan.Node, db plan.Database) (*relation.Relation, error) {
	return n.Eval(db)
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
// to plan.Node.Eval's, and under a root Sort it is in that Sort's
// order; it may share columns with a base table, so callers treat it
// as read-only.
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

package optimizer

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/simplify"
	"repro/internal/stats"
)

// Optimize enumerates the equivalence class of q and returns the
// cheapest plan. The database is needed only for schema resolution of
// aggregation push-up seeds; pass nil when PushUpAggregates is off.
//
// The query and its simplified variant seed a memo group table, a
// fixpoint exploration saturates the groups under the rule set (a rule
// that declares no group-local scope is an error naming it), and the
// best plan is extracted bottom-up with branch-and-bound pruning
// instead of costing every materialized member of the class.
// Considered counts the expressions exploration admitted (the
// memo.exprs counter, which also counts a degraded run's heuristic
// offer), RuleFirings credits the rule that admitted each expression,
// and Best carries the derivation chain reconstructed from the memo's
// provenance records.
//
// Under a budget (Options.Budget) the run is interruptible and
// bounded: cancellation and contained panics surface as typed guard
// errors, and an exhausted expression budget — like a search stopped
// at MaxPlans — degrades to the best plan found so far
// (Result.Degraded). The package boundary converts
// any internal panic into a *guard.PanicError carrying the phase
// reached and the query fingerprint.
func (o *Optimizer) Optimize(q plan.Node, db plan.Database) (res *Result, err error) {
	reg := o.Opts.Obs
	if reg == nil {
		reg = obs.Default()
	}
	curPhase := "init"
	defer guard.RecoverAs(&err, &curPhase, q, reg)
	reg.Counter("optimizer.runs").Inc()
	var phases []PhaseTiming
	phase := func(name string) func() {
		curPhase = name
		start := time.Now()
		return func() {
			d := time.Since(start)
			phases = append(phases, PhaseTiming{Name: name, Elapsed: d})
			reg.Histogram("optimizer.phase." + name + "_ns").ObserveDuration(d)
		}
	}

	maxPlans := o.Opts.MaxPlans
	if maxPlans <= 0 {
		maxPlans = 20000
	}
	rules := o.Opts.Rules
	if rules == nil {
		rules = core.DefaultRules()
	}
	if o.Opts.PushUpAggregates {
		// Aggregation pull-up participates in the closure itself, so
		// it composes with reorderings (Query 1's join must move next
		// to the aggregation before the pull-up applies).
		rules = append(append([]core.Rule(nil), rules...), core.PushUpRule(db))
	}
	// Number the query's base relations once; every predicate scoping
	// check is then a bit test.
	plan.IndexRelations(q)
	if err := o.Opts.Budget.Cancelled(); err != nil {
		return nil, err
	}
	if err := guard.Hit(guard.PointSimplify); err != nil {
		return nil, err
	}
	type seed struct {
		node   plan.Node
		prefix []string
	}
	seeds := []seed{{node: q}}
	endSimplify := phase("simplify")
	if s := simplify.Simplify(q); plan.Key(s) != plan.Key(q) {
		seeds = append(seeds, seed{node: s, prefix: []string{"simplify-outer-joins"}})
		reg.Counter("optimizer.simplified_seeds").Inc()
	}
	endSimplify()

	endExplore := phase("explore")
	m, err := memo.New(memo.Options{
		Rules:    rules,
		MaxExprs: maxPlans,
		Obs:      reg,
		Budget:   o.Opts.Budget,
	})
	if err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	// Seeds may collapse into one group (simplification can be a
	// no-op modulo rewrites already discovered); keep the distinct
	// roots with the first seed's prefix winning ties.
	var roots []memo.GroupID
	var prefixes [][]string
	rootSeen := make(map[memo.GroupID]bool)
	for _, sd := range seeds {
		gid := m.Add(sd.node)
		if !rootSeen[gid] {
			rootSeen[gid] = true
			roots = append(roots, gid)
			prefixes = append(prefixes, sd.prefix)
		}
	}
	if err := m.Explore(); err != nil {
		return nil, err
	}
	endExplore()
	// Any cap — the guard's expression budget or MaxPlans — leaves the
	// search incomplete, and the result says so.
	degraded := m.CappedReason()
	if degraded != "" {
		reg.Counter("guard.degraded").Inc()
	}

	endCost := phase("cost")
	sess := o.Est.NewSession(reg)
	sess.SetBudget(o.Opts.Budget)
	sess.SetFeedback(o.Opts.Feedback)
	considered := m.Exprs()
	if degraded != "" {
		// A truncated memo may hold only expensive orders: offer the
		// greedy left-deep order to the query's group, where it is
		// priced at the same cardinalities as every other member.
		if hp, ok := heuristicLeftDeep(q, o.Est); ok {
			m.Offer(roots[0], hp, heuristicRule)
		}
	}
	// Extraction over a budget-capped memo still yields the cheapest
	// plan among everything admitted (seeds are never charged, so a
	// materializable plan always exists): degradation returns the
	// best-so-far rather than an error.
	best, err := m.Extract(roots, sess)
	if err != nil {
		return nil, fmt.Errorf("optimizer: extracting %s: %w", q, err)
	}
	origCost, ok, err := m.Price(roots[0], q, sess)
	if err != nil {
		return nil, fmt.Errorf("optimizer: costing %s: %w", q, err)
	}
	if !ok {
		return nil, fmt.Errorf("optimizer: %s is not a member of its own memo group", q)
	}
	estimates := make(map[plan.Node]stats.Estimate)
	m.Estimates(best.Group, estimates)
	derivation := append(append([]string(nil), prefixes[best.Root]...), m.Derivation(best.Group)...)
	endCost()

	res = &Result{
		Best:                Ranked{Plan: best.Plan, Cost: best.Cost, Rows: m.Estimate(best.Group).Rows, Derivation: derivation},
		Original:            Ranked{Plan: q, Cost: origCost, Rows: m.Estimate(roots[0]).Rows},
		Considered:          considered,
		RuleFirings:         m.RuleFirings(),
		Phases:              phases,
		Degraded:            degraded,
		FeedbackCorrections: int(sess.FeedbackHits()),
		Estimates:           estimates,
	}
	return res, nil
}

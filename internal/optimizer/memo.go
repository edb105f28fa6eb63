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
// Considered counts admitted expressions (matched by the
// optimizer.plans_enumerated counter), RuleFirings credits the rule
// that admitted each expression, and Best carries the derivation chain
// reconstructed from the memo's provenance records.
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
	reg.Counter("optimizer.memo_runs").Inc()
	// A root ORDER BY (a Sort without LIMIT) is not a logical operator
	// to enumerate around: strip it, extract the order-free winner, and
	// put it back as one enforcer Sort over that winner. Top-K sorts
	// keep their node: the limit is part of the output.
	var required plan.Order
	inner := q
	if s, ok := q.(*plan.Sort); ok && s.Limit < 0 && len(s.Keys) > 0 {
		required = plan.Order(s.Keys)
		inner = s.Input
		reg.Counter("memo.order.required").Inc()
	}
	type seed struct {
		node   plan.Node
		prefix []string
	}
	seeds := []seed{{node: inner}}
	endSimplify := phase("simplify")
	if s := simplify.Simplify(inner); plan.Key(s) != plan.Key(inner) {
		seeds = append(seeds, seed{node: s, prefix: []string{"simplify-outer-joins"}})
		reg.Counter("optimizer.simplified_seeds").Inc()
	}
	endSimplify()

	endExplore := phase("explore")
	m, err := memo.New(memo.Options{
		Rules:    rules,
		MaxExprs: maxPlans,
		Workers:  o.Opts.Workers,
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
	reg.Counter("optimizer.plans_enumerated").Add(int64(m.Exprs()))
	reg.Gauge("optimizer.last_considered").Set(int64(m.Exprs()))
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
		if hp, ok := heuristicLeftDeep(inner, o.Est); ok {
			m.Offer(roots[0], hp, HeuristicRule)
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
	origCost, ok, err := m.Price(roots[0], inner, sess)
	if err != nil {
		return nil, fmt.Errorf("optimizer: costing %s: %w", q, err)
	}
	if !ok {
		return nil, fmt.Errorf("optimizer: %s is not a member of its own memo group", q)
	}
	estimates := make(map[plan.Node]stats.Estimate)
	m.Estimates(best.Group, estimates)
	bestPlan, bestCost := best.Plan, best.Cost
	bestRows, origRows := m.Estimate(best.Group).Rows, m.Estimate(roots[0]).Rows
	if len(required) > 0 {
		bestPlan = sorted(best.Plan, required)
		bestCost += o.Est.OpCost(bestPlan, bestRows, []float64{bestRows})
		origCost += o.Est.OpCost(q, origRows, []float64{origRows})
		estimates[bestPlan] = stats.Estimate{Rows: bestRows}
	}
	derivation := append(append([]string(nil), prefixes[best.Root]...), m.Derivation(best.Group)...)
	endCost()
	reg.Counter("optimizer.plans_costed").Inc()

	res = &Result{
		Best:                Ranked{Plan: bestPlan, Cost: bestCost, Rows: bestRows, Derivation: derivation},
		Original:            Ranked{Plan: q, Cost: origCost, Rows: origRows},
		Considered:          considered,
		RuleFirings:         m.RuleFirings(),
		Phases:              phases,
		Degraded:            degraded,
		FeedbackCorrections: int(sess.FeedbackHits()),
		Estimates:           estimates,
	}
	if len(required) > 0 {
		res.Order = &OrderInfo{Required: required, Enforced: 1}
		reg.Counter("memo.order.enforced").Inc()
	}
	return res, nil
}

// sorted puts a root ORDER BY back over an order-free plan: one
// enforcer Sort on the required keys, or p itself when none are
// required.
func sorted(p plan.Node, required plan.Order) plan.Node {
	if len(required) == 0 {
		return p
	}
	return plan.NewSortOrigin(append([]plan.SortKey(nil), required...), -1, p, plan.SortOriginEnforcer)
}

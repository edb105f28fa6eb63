package optimizer

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/simplify"
)

// optimizeMemo is the memo-based enumeration path (Options.UseMemo):
// the query and its simplified variant seed a group table, a fixpoint
// exploration saturates the groups under the rule set, and the best
// plan is extracted bottom-up with branch-and-bound pruning instead
// of costing every materialized member of the class.
//
// The Result contract is preserved with memo semantics: Considered
// counts admitted expressions (matched by the
// optimizer.plans_enumerated counter), RuleFirings credits the rule
// that admitted each expression, Best carries the derivation chain
// reconstructed from the memo's provenance records, and Plans holds
// the winner only.
func (o *Optimizer) optimizeMemo(q plan.Node, rules []core.Rule, maxPlans int, reg *obs.Registry, phase func(string) func(), phases *[]PhaseTiming) (*Result, error) {
	reg.Counter("optimizer.memo_runs").Inc()
	// A root ORDER BY (a Sort without LIMIT) is not a logical operator
	// to enumerate around — it is a physical property requirement on
	// the root group. Strip it and carry it into extraction, which may
	// satisfy it with a merge join's delivered order (eliminating the
	// sort entirely), re-inject it as an enforcer, or anything between.
	// Top-K sorts keep their node: the limit is part of the output, not
	// a property.
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
	degraded := ""
	if m.CappedReason() == memo.CappedBudget {
		degraded = memo.CappedBudget
		reg.Counter("guard.degraded").Inc()
	}

	endCost := phase("cost")
	sess := o.Est.NewSession(reg)
	sess.SetBudget(o.Opts.Budget)
	sess.SetFeedback(o.Opts.Feedback)
	// Extraction over a budget-capped memo still yields the cheapest
	// plan among everything admitted (seeds are never charged, so a
	// materializable plan always exists): degradation returns the
	// best-so-far rather than an error.
	best, err := m.ExtractOrdered(roots, sess, required)
	if err != nil {
		return nil, fmt.Errorf("optimizer: extracting %s: %w", q, err)
	}
	bestPlan, bestCost := best.Plan, best.Cost
	derivation := append(append([]string(nil), prefixes[best.Root]...), m.Derivation(best.Group)...)
	if degraded != "" {
		// A truncated memo may hold only expensive orders; offer the
		// greedy left-deep fallback (wrapped in an enforcer sort when
		// the root requires an order) and keep whichever is cheaper.
		if hp, ok := heuristicLeftDeep(inner, sess); ok {
			if len(required) > 0 {
				hp = plan.NewSortOrigin(append([]plan.SortKey(nil), required...), -1, hp, plan.SortOriginEnforcer)
			}
			if hc, herr := sess.PlanCost(hp); herr == nil && hc < bestCost {
				bestPlan, bestCost = hp, hc
				derivation = []string{HeuristicRule}
			}
		}
	}
	bestRows, err := sess.Rows(bestPlan)
	if err != nil {
		return nil, err
	}
	origCost, err := sess.PlanCost(q)
	if err != nil {
		return nil, fmt.Errorf("optimizer: costing %s: %w", q, err)
	}
	origRows, err := sess.Rows(q)
	if err != nil {
		return nil, err
	}
	endCost()
	reg.Counter("optimizer.plans_costed").Inc()

	bestRanked := Ranked{Plan: bestPlan, Cost: bestCost, Rows: bestRows, Derivation: derivation}
	res := &Result{
		Best:                bestRanked,
		Original:            Ranked{Plan: q, Cost: origCost, Rows: origRows},
		Considered:          m.Exprs(),
		Plans:               []Ranked{bestRanked},
		RuleFirings:         m.RuleFirings(),
		Phases:              *phases,
		Degraded:            degraded,
		FeedbackCorrections: int(sess.FeedbackHits()),
	}
	if len(required) > 0 {
		enforced := 0
		plan.Walk(bestPlan, func(n plan.Node) {
			if s, ok := n.(*plan.Sort); ok && s.Origin == plan.SortOriginEnforcer {
				enforced++
			}
		})
		res.Order = &OrderInfo{
			Required:  required,
			Delivered: plan.DeliveredOrder(bestPlan, sess.ScanOrder),
			Enforced:  enforced,
		}
		reg.Counter("memo.order.enforced").Add(int64(enforced))
		if enforced == 0 {
			reg.Counter("memo.order.eliminated").Inc()
		}
	}
	return res, nil
}

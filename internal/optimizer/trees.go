package optimizer

import (
	"fmt"

	"repro/internal/assoctree"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/plan"
	"repro/internal/simplify"
)

// OptimizeTrees is the paper's own enumeration strategy end to end
// (Section 4, steps a and b): enumerate the association trees of the
// query hypergraph under Definition 3.2, assign operators and
// generalized-selection compensations to each with
// core.AssignOperators, cost the resulting expression trees and pick
// the cheapest. Trees that would require breaking a dependent
// predicate (the separation precondition) are skipped; they are not
// valid reorderings.
//
// Unlike Optimize (which explores rewrite rules in a memo), this path
// scales with the number of association trees and produces exactly one
// expression tree per join order.
func (o *Optimizer) OptimizeTrees(q plan.Node, db plan.Database) (*Result, error) {
	// Operator assignment assumes a simple query (see
	// core.AssignOperators); simplification is an identity, so
	// enumerate over the simplified form.
	q = simplify.Simplify(q)
	h, err := hypergraph.FromPlan(q)
	if err != nil {
		return nil, err
	}
	enum, err := assoctree.NewEnumerator(h, hypergraph.Broken)
	if err != nil {
		return nil, err
	}
	maxTrees := o.Opts.MaxPlans
	if maxTrees <= 0 {
		maxTrees = 20000
	}
	trees := enum.Trees(maxTrees)
	if len(trees) == 0 {
		return nil, fmt.Errorf("optimizer: no association trees for %s", q)
	}
	origCost, err := o.Est.PlanCost(q)
	if err != nil {
		return nil, err
	}
	origRows, err := o.Est.Rows(q)
	if err != nil {
		return nil, err
	}
	res := &Result{Original: Ranked{Plan: q, Cost: origCost, Rows: origRows}}
	skipped := 0
	for _, tr := range trees {
		node, err := core.AssignOperators(h, tr)
		if err != nil {
			skipped++
			continue
		}
		cost, err := o.Est.PlanCost(node)
		if err != nil {
			return nil, err
		}
		rows, err := o.Est.Rows(node)
		if err != nil {
			return nil, err
		}
		res.Plans = append(res.Plans, Ranked{Plan: node, Cost: cost, Rows: rows})
	}
	if len(res.Plans) == 0 {
		return nil, fmt.Errorf("optimizer: all %d association trees were skipped (dependent predicates)", len(trees))
	}
	res.Considered = len(res.Plans)
	best := res.Plans[0]
	for _, r := range res.Plans[1:] {
		if r.Cost < best.Cost {
			best = r
		}
	}
	res.Best = best
	return res, nil
}

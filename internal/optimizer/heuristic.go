package optimizer

import (
	"sort"

	"repro/internal/expr"
	"repro/internal/hypergraph"
	"repro/internal/plan"
	"repro/internal/stats"
)

// heuristicRule names the derivation step tagged on plans produced by
// the left-deep fallback, so EXPLAIN output shows how a degraded
// winner was obtained.
const heuristicRule = "heuristic-left-deep"

// heuristicMaxRels is the widest join core heuristicLeftDeep orders:
// its relation sets are one-word bitmasks.
const heuristicMaxRels = 62

// heuristicLeftDeep builds a greedy left-deep join order for q:
// smallest base relation first, then repeatedly the connected
// relation minimizing the estimated rows of the next join, with every
// join conjunct placed at the first step both its sides are available.
// It is the degradation fallback when the enumeration budget trips
// before memo exploration finishes — Selinger's greedy escape hatch
// rather than a search.
//
// The query may carry a spine of unary operators (Project, GroupBy,
// Select, …) above a pure inner-join core; the spine is re-applied
// over the reordered core. Queries outside that shape (outer joins in
// the core, repeated relations, disconnected graphs) return ok=false
// and degradation falls back to the best plan enumerated so far.
func heuristicLeftDeep(q plan.Node, est *stats.Estimator) (plan.Node, bool) {
	// Peel the unary spine down to the join core.
	var spine []plan.Node
	core := q
	for {
		ch := core.Children()
		if len(ch) != 1 {
			break
		}
		spine = append(spine, core)
		core = ch[0]
	}
	if _, ok := core.(*plan.Join); !ok {
		return nil, false
	}
	h, err := hypergraph.FromPlan(core)
	if err != nil {
		return nil, false
	}
	for _, e := range h.Edges {
		if e.Kind != hypergraph.Undirected {
			return nil, false
		}
	}
	n := len(h.Nodes)
	if n < 2 || n > heuristicMaxRels {
		return nil, false
	}
	names := append([]string(nil), h.Nodes...)
	sort.Strings(names)
	index := make(map[string]int, n)
	for i, name := range names {
		index[name] = i
	}
	type conjunct struct {
		pred expr.Pred
		mask uint64
		used bool
	}
	var conjuncts []conjunct
	for _, e := range h.Edges {
		for _, c := range expr.Conjuncts(e.Pred) {
			var m uint64
			for _, rel := range expr.Rels(c) {
				i, ok := index[rel]
				if !ok {
					return nil, false
				}
				m |= 1 << uint(i)
			}
			conjuncts = append(conjuncts, conjunct{pred: c, mask: m})
		}
	}

	scanRows := make([]float64, n)
	for i, name := range names {
		r, err := est.OpRows(plan.NewScan(name), nil)
		if err != nil {
			return nil, false
		}
		scanRows[i] = r
	}
	// Seed: the smallest relation (ties break on the sorted name
	// order, so the choice is deterministic).
	start := 0
	for i := 1; i < n; i++ {
		if scanRows[i] < scanRows[start] {
			start = i
		}
	}
	cur := plan.Node(plan.NewScan(names[start]))
	curRows := scanRows[start]
	set := uint64(1) << uint(start)

	for step := 1; step < n; step++ {
		bestIdx := -1
		var bestJoin plan.Node
		bestRows := 0.0
		for i := 0; i < n; i++ {
			bit := uint64(1) << uint(i)
			if set&bit != 0 {
				continue
			}
			nset := set | bit
			var preds []expr.Pred
			for _, c := range conjuncts {
				if !c.used && c.mask&^nset == 0 && c.mask&set != 0 && c.mask&bit != 0 {
					preds = append(preds, c.pred)
				}
			}
			if len(preds) == 0 {
				continue // not connected to the current prefix yet
			}
			join := plan.NewJoin(plan.InnerJoin, expr.And(preds...), cur, plan.NewScan(names[i]))
			rows, err := est.OpRows(join, []float64{curRows, scanRows[i]})
			if err != nil {
				return nil, false
			}
			if bestIdx < 0 || rows < bestRows {
				bestIdx, bestJoin, bestRows = i, join, rows
			}
		}
		if bestIdx < 0 {
			return nil, false // disconnected join graph
		}
		bit := uint64(1) << uint(bestIdx)
		set |= bit
		for ci := range conjuncts {
			c := &conjuncts[ci]
			if !c.used && c.mask&^set == 0 && c.mask&^bit != 0 && c.mask&bit != 0 {
				c.used = true
			}
		}
		cur, curRows = bestJoin, bestRows
	}
	// Every conjunct must have been placed; a dropped one would change
	// the result, not just the cost. (Single-relation conjuncts inside
	// a join predicate are never placeable by the touches-both-sides
	// rule, so such queries decline the heuristic entirely.)
	for _, c := range conjuncts {
		if !c.used {
			return nil, false
		}
	}
	// Re-apply the unary spine innermost-last.
	for i := len(spine) - 1; i >= 0; i-- {
		cur = spine[i].WithChildren([]plan.Node{cur})
	}
	return cur, true
}

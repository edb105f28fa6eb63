package optimizer

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/expr"
	"repro/internal/hypergraph"
	"repro/internal/plan"
)

// OptimizeDP runs the Section 4 dynamic program directly: bottom-up
// enumeration of association trees over the query hypergraph (with
// Definition 3.2's broken-edge connectivity), keeping the cheapest
// plan per relation subset — the System-R approach the paper says its
// checks slot into. It applies to pure inner-join queries (run
// Simplify first; outer joins need the rule-based Optimize).
//
// dpMaskLimit is the widest relation set the DP's uint64 subset masks
// can represent. Two bits are held back so the full-set mask and the
// subset-enumeration arithmetic stay overflow-free.
const dpMaskLimit = 62

// dpGuard rejects relation counts the subset bitmask cannot encode.
func dpGuard(n int) error {
	if n > dpMaskLimit {
		return fmt.Errorf("optimizer: %d relations exceed the DP limit of %d", n, dpMaskLimit)
	}
	return nil
}

// Each conjunct of every join predicate is placed at the first
// combination where both its sides are available, which is exactly
// the conjunct break-up freedom the paper's Definition 3.2 adds.
func (o *Optimizer) OptimizeDP(q plan.Node, db plan.Database) (*Result, error) {
	h, err := hypergraph.FromPlan(q)
	if err != nil {
		return nil, err
	}
	for _, e := range h.Edges {
		if e.Kind != hypergraph.Undirected {
			return nil, fmt.Errorf("optimizer: DP enumeration handles inner joins only; edge %s is %s", e, e.Kind)
		}
	}
	n := len(h.Nodes)
	if err := dpGuard(n); err != nil {
		return nil, err
	}
	names := append([]string(nil), h.Nodes...)
	sort.Strings(names)
	index := make(map[string]int, n)
	for i, name := range names {
		index[name] = i
	}

	// Collect every conjunct with its relation mask.
	type conjunct struct {
		pred expr.Pred
		mask uint64
	}
	var conjuncts []conjunct
	for _, e := range h.Edges {
		for _, c := range expr.Conjuncts(e.Pred) {
			var m uint64
			for _, rel := range expr.Rels(c) {
				i, ok := index[rel]
				if !ok {
					return nil, fmt.Errorf("optimizer: predicate %s references unknown relation", c)
				}
				m |= 1 << uint(i)
			}
			conjuncts = append(conjuncts, conjunct{pred: c, mask: m})
		}
	}

	type entry struct {
		node plan.Node
		cost float64
	}
	best := make(map[uint64]entry)
	for i, name := range names {
		scan := plan.NewScan(name)
		cost, err := o.Est.PlanCost(scan)
		if err != nil {
			return nil, err
		}
		best[1<<uint(i)] = entry{node: scan, cost: cost}
	}

	full := uint64(1)<<uint(n) - 1
	// Preallocation is a hint only: beyond ~2^20 subsets the append
	// growth is noise next to the enumeration itself.
	hint := n
	if hint > 20 {
		hint = 20
	}
	subsets := make([]uint64, 0, 1<<uint(hint))
	for s := uint64(1); s <= full; s++ {
		subsets = append(subsets, s)
	}
	sort.Slice(subsets, func(i, j int) bool {
		return bits.OnesCount64(subsets[i]) < bits.OnesCount64(subsets[j])
	})

	considered := 0
	for _, s := range subsets {
		if bits.OnesCount64(s) < 2 {
			continue
		}
		low := s & (-s)
		rest := s &^ low
		for sub := rest; ; sub = (sub - 1) & rest {
			a := low | sub
			b := s &^ a
			if b != 0 {
				ea, okA := best[a]
				eb, okB := best[b]
				if okA && okB {
					// Applicable conjuncts: both sides touched, all
					// relations available.
					var preds []expr.Pred
					for _, c := range conjuncts {
						if c.mask&^s == 0 && c.mask&a != 0 && c.mask&b != 0 {
							preds = append(preds, c.pred)
						}
					}
					if len(preds) > 0 {
						join := plan.NewJoin(plan.InnerJoin, expr.And(preds...), ea.node, eb.node)
						cost, err := o.Est.PlanCost(join)
						if err != nil {
							return nil, err
						}
						considered++
						if cur, ok := best[s]; !ok || cost < cur.cost {
							best[s] = entry{node: join, cost: cost}
						}
					}
				}
			}
			if sub == 0 {
				break
			}
		}
	}
	top, ok := best[full]
	if !ok {
		return nil, fmt.Errorf("optimizer: query graph is disconnected; no join order covers all relations")
	}
	origCost, err := o.Est.PlanCost(q)
	if err != nil {
		return nil, err
	}
	origRows, err := o.Est.Rows(q)
	if err != nil {
		return nil, err
	}
	rows, err := o.Est.Rows(top.node)
	if err != nil {
		return nil, err
	}
	return &Result{
		Best:       Ranked{Plan: top.node, Cost: top.cost, Rows: rows},
		Original:   Ranked{Plan: q, Cost: origCost, Rows: origRows},
		Considered: considered,
	}, nil
}

package core

import (
	"sort"

	"repro/internal/plan"
)

// SaturateOptions bound the saturation.
type SaturateOptions struct {
	// Rules to close under; DefaultRules() if nil.
	Rules []Rule
	// MaxPlans caps the equivalence class size (0 means 100000).
	MaxPlans int
}

// Saturate computes the closure of root under the rule set: the set
// of equivalent plans reachable by applying rules at any subtree
// position, deduplicated by canonical plan fingerprint. The input
// plan is always the first element. This is the paper's enumeration
// (Section 4) realised as a transformation-based optimizer: every
// rule is an identity, so every returned plan evaluates to the same
// relation as root.
//
// The closure is breadth-first on one goroutine. The queue is consumed
// through a head index with periodic compaction instead of
// queue = queue[1:], so the backing array of a long run is released as
// it drains rather than pinned in full.
func Saturate(root plan.Node, opts SaturateOptions) []plan.Node {
	rules := opts.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	maxPlans := opts.MaxPlans
	if maxPlans <= 0 {
		maxPlans = 100000
	}
	seen := map[string]bool{plan.Key(root): true}
	out := []plan.Node{root}
	queue := []plan.Node{root}
	head := 0
	var scratch []plan.Node // reused across dequeues: alternatives are consumed immediately
	for head < len(queue) && len(out) < maxPlans {
		cur := queue[head]
		queue[head] = nil
		head++
		if head >= 1024 && head*2 >= len(queue) {
			queue = queue[:copy(queue, queue[head:])]
			head = 0
		}
		scratch = appendAlternatives(scratch[:0], cur, rules, nil)
		for _, alt := range scratch {
			key := plan.Key(alt)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, alt)
			queue = append(queue, alt)
			if len(out) >= maxPlans {
				break
			}
		}
	}
	return out
}

// appendAlternatives applies every rule at every subtree position of
// n and appends the resulting full plans to out, reusing its capacity.
// It recurses pre-order; wrap rebuilds the ancestors of n around a
// replacement subtree (nil at the root), so no path slices are
// materialized and unchanged siblings are shared with the input. The
// visit order fixes the closure's admission order.
func appendAlternatives(out []plan.Node, n plan.Node, rules []Rule, wrap func(plan.Node) plan.Node) []plan.Node {
	for _, r := range rules {
		for _, alt := range r.Apply(n) {
			if wrap != nil {
				alt = wrap(alt)
			}
			out = append(out, alt)
		}
	}
	ch := n.Children()
	for i, c := range ch {
		childWrap := func(sub plan.Node) plan.Node {
			newCh := make([]plan.Node, len(ch))
			copy(newCh, ch)
			newCh[i] = sub
			rebuilt := n.WithChildren(newCh)
			if wrap != nil {
				return wrap(rebuilt)
			}
			return rebuilt
		}
		out = appendAlternatives(out, c, rules, childWrap)
	}
	return out
}

// JoinOrders extracts the distinct association-tree shapes (orders in
// which base relations are combined, ignoring operators and unary
// nodes) of a set of plans, sorted lexicographically. It is used to
// compare the plan space with and without predicate break-up.
func JoinOrders(plans []plan.Node) []string {
	set := make(map[string]bool)
	var shape func(n plan.Node) string
	shape = func(n plan.Node) string {
		switch m := n.(type) {
		case *plan.Scan:
			return m.Rel
		case *plan.Join:
			l, r := shape(m.L), shape(m.R)
			if l > r {
				l, r = r, l
			}
			return "(" + l + "." + r + ")"
		case *plan.MGOJNode:
			l, r := shape(m.L), shape(m.R)
			if l > r {
				l, r = r, l
			}
			return "(" + l + "." + r + ")"
		default:
			ch := n.Children()
			if len(ch) == 1 {
				return shape(ch[0])
			}
			return n.String()
		}
	}
	for _, p := range plans {
		set[shape(p)] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

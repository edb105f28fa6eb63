package core

import (
	"sort"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
)

// SaturateOptions bound the saturation.
type SaturateOptions struct {
	// Rules to close under; DefaultRules() if nil.
	Rules []Rule
	// MaxPlans caps the equivalence class size (0 means 100000).
	MaxPlans int
	// Budget, when non-nil, governs the run: cancellation is checked
	// at every wave boundary (SaturateGuarded returns
	// guard.ErrCancelled), and every admitted plan is charged against
	// the expression budget — tripping it stops enumeration
	// gracefully with the plans found so far.
	Budget *guard.Budget
	// Obs, when non-nil, receives enumeration counters:
	// optimizer.rule_applied.<rule> (every identity firing),
	// optimizer.rule_admitted.<rule> (firings yielding a new plan),
	// optimizer.dedup_hits (firings deduplicated away),
	// optimizer.plans_admitted and optimizer.enumeration_capped.
	Obs *obs.Registry
}

// Derivation records how a plan entered the closure: the canonical
// string of its parent plan and the rule that produced it. The root
// has no derivation.
type Derivation struct {
	Parent string
	Rule   string
}

// Saturate computes the closure of root under the rule set: the set
// of equivalent plans reachable by applying rules at any subtree
// position, deduplicated by canonical plan fingerprint. The input
// plan is always the first element. This is the paper's enumeration
// (Section 4) realised as a transformation-based optimizer: every
// rule is an identity, so every returned plan evaluates to the same
// relation as root.
func Saturate(root plan.Node, opts SaturateOptions) []plan.Node {
	plans, _ := SaturateTraced(root, opts)
	return plans
}

// StoppedBudget is the SaturateGuarded stop reason for an expression
// budget trip; optimizer degradation tags reuse it verbatim.
const StoppedBudget = "budget:exprs"

// SaturateTraced is Saturate plus a derivation map (keyed by plan
// fingerprint, i.e. the canonical plan string) recording, for every
// plan except the root, which rule produced it from which parent.
// Walking the map back to the root yields the identity chain that
// justifies a plan — EXPLAIN-style provenance for the paper's
// rewrites.
func SaturateTraced(root plan.Node, opts SaturateOptions) ([]plan.Node, map[string]Derivation) {
	plans, trace, _, _ := SaturateGuarded(root, opts)
	return plans, trace
}

// SaturateGuarded is SaturateTraced under resource governance. A
// tripped expression budget is not an error: enumeration stops
// gracefully and stopped reports StoppedBudget alongside the plans
// found so far (always at least the root). Cancellation, injected
// faults and contained rule-application panics return a typed error
// plus whatever prefix of the closure was admitted before the abort.
// Checks sit at dequeues and admissions only, so a guarded run whose
// budget never trips produces the same plans and trace as
// SaturateTraced.
func SaturateGuarded(root plan.Node, opts SaturateOptions) (plans []plan.Node, trace map[string]Derivation, stopped string, err error) {
	rules := opts.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	maxPlans := opts.MaxPlans
	if maxPlans <= 0 {
		maxPlans = 100000
	}
	return saturateSerial(root, rules, maxPlans, opts.Budget, opts.Obs)
}

// saturateSerial is the single-goroutine breadth-first closure. The
// queue is consumed through a head index with periodic compaction
// instead of queue = queue[1:], so the backing array of a long run is
// released as it drains rather than pinned in full.
func saturateSerial(root plan.Node, rules []Rule, maxPlans int, b *guard.Budget, reg *obs.Registry) ([]plan.Node, map[string]Derivation, string, error) {
	rootKey := plan.Key(root)
	seen := map[string]bool{rootKey: true}
	trace := make(map[string]Derivation)
	out := []plan.Node{root}
	queue := []plan.Node{root}
	head := 0
	var scratch []altPlan // reused across dequeues: alternatives are consumed immediately
	for head < len(queue) && len(out) < maxPlans {
		// The serial engine's dequeue is its wave boundary: one
		// cancellation check and fault point per expanded plan.
		if err := b.Cancelled(); err != nil {
			return out, trace, "", err
		}
		if err := guard.Hit(guard.PointSaturateWave); err != nil {
			return out, trace, "", err
		}
		cur := queue[head]
		queue[head] = nil
		head++
		if head >= 1024 && head*2 >= len(queue) {
			queue = queue[:copy(queue, queue[head:])]
			head = 0
		}
		curKey := plan.Key(cur) // cached: computed once per plan, ever
		err := guard.Safely("saturate", curKey, reg, func() error {
			if e := guard.Hit(guard.PointRuleApply); e != nil {
				return e
			}
			scratch = appendAlternatives(scratch[:0], cur, rules)
			return nil
		})
		if err != nil {
			return out, trace, "", err
		}
		for _, alt := range scratch {
			if reg != nil {
				reg.Counter("optimizer.rule_applied." + alt.rule).Inc()
			}
			key := plan.Key(alt.plan)
			if seen[key] {
				if reg != nil {
					reg.Counter("optimizer.dedup_hits").Inc()
				}
				continue
			}
			seen[key] = true
			trace[key] = Derivation{Parent: curKey, Rule: alt.rule}
			out = append(out, alt.plan)
			queue = append(queue, alt.plan)
			if reg != nil {
				reg.Counter("optimizer.rule_admitted." + alt.rule).Inc()
				reg.Counter("optimizer.plans_admitted").Inc()
			}
			if b.ChargeExprs(1) != nil {
				return out, trace, StoppedBudget, nil
			}
			if len(out) >= maxPlans {
				if reg != nil {
					reg.Counter("optimizer.enumeration_capped").Inc()
				}
				break
			}
		}
	}
	return out, trace, "", nil
}

// DerivationChain reconstructs the rule applications leading from the
// root to the plan with the given canonical string, oldest first.
func DerivationChain(trace map[string]Derivation, planKey string) []string {
	var chain []string
	for {
		d, ok := trace[planKey]
		if !ok {
			break
		}
		chain = append(chain, d.Rule)
		planKey = d.Parent
	}
	// Reverse to oldest-first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

type altPlan struct {
	plan plan.Node
	rule string
}

// appendAlternatives applies every rule at every subtree position of
// cur and appends the resulting full plans (with the producing rule)
// to out, reusing its capacity. The traversal rebuilds the spine on
// the way out of the recursion, so no path slices are materialized
// and unchanged siblings are shared with cur.
func appendAlternatives(out []altPlan, cur plan.Node, rules []Rule) []altPlan {
	return appendAlts(out, cur, rules, nil)
}

// appendAlts recurses pre-order; wrap rebuilds the ancestors of n
// around a replacement subtree (nil at the root). The visit order
// matches the collectPaths order the serial engine always used, so
// admission order — and with it the derivation trace — is preserved.
func appendAlts(out []altPlan, n plan.Node, rules []Rule, wrap func(plan.Node) plan.Node) []altPlan {
	for _, r := range rules {
		for _, alt := range r.Apply(n) {
			if wrap != nil {
				alt = wrap(alt)
			}
			out = append(out, altPlan{plan: alt, rule: r.Name})
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
		out = appendAlts(out, c, rules, childWrap)
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

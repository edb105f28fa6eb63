// Package optimizer selects the cheapest equivalent plan for a query
// (Section 4): it closes the query under the paper's reordering
// identities — commutativity, the [BHAR95a]/[GALI92a]
// associativities, MGOJ introduction and generalized-selection
// predicate break-up — plus the aggregation push-up of Example 3.1,
// in a memo of equivalence groups, and extracts the cheapest member
// with branch-and-bound pruning.
//
// A Baseline optimizer (no break-up, no push-up) models the state of
// the art the paper improves on; comparing the two reproduces the
// paper's cost-win claims (experiments E7 and E9 in DESIGN.md).
package optimizer

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/stats/feedback"
)

// Options configure an optimization run.
type Options struct {
	// Rules is the identity rule set; core.DefaultRules() if nil.
	Rules []core.Rule
	// PushUpAggregates also seeds the enumeration with
	// aggregation-pull-up variants of the query (Example 3.1).
	PushUpAggregates bool
	// Workers is ignored: memo exploration is serial. It stays only
	// because the benchmark module still names it.
	Workers int
	// Obs receives the run's metrics (rule firings, dedup hits, plans
	// enumerated, per-phase wall time); obs.Default() when nil.
	Obs *obs.Registry
	// Budget, when non-nil, governs the run: cancellation (checked at
	// exploration wave boundaries and inside extraction) aborts with
	// guard.ErrCancelled, while a tripped expression budget degrades
	// gracefully — Optimize returns the best plan found so far, or
	// the heuristic left-deep order when that is cheaper, with
	// Result.Degraded naming the reason.
	Budget *guard.Budget
	// Feedback, when non-nil, attaches a cardinality feedback store to
	// the run's estimation session: a memo group with a correction
	// recorded under its key (Result.Estimates) is priced at the
	// observed cardinality instead of the static model's. Off (nil) by
	// default — a nil store leaves plans and costs bit-identical to a
	// run without feedback.
	Feedback *feedback.Store
}

// Ranked is one enumerated plan with its estimated cost.
type Ranked struct {
	Plan plan.Node
	Cost float64
	Rows float64
	// Derivation is the chain of identity rules that produced the
	// plan from the query as written (empty for the original).
	Derivation []string
}

// PhaseTiming is the wall time of one optimization phase.
type PhaseTiming struct {
	Name    string
	Elapsed time.Duration
}

// Result reports an optimization run.
type Result struct {
	Best       Ranked
	Original   Ranked
	Considered int
	// Phases reports per-phase wall time in execution order
	// (simplify, explore, cost).
	Phases []PhaseTiming
	// RuleFirings counts, per identity rule, the memo expressions it
	// admitted.
	RuleFirings map[string]int
	// Degraded is non-empty when enumeration stopped early, naming the
	// cap that stopped it ("budget:exprs" for the guard's expression
	// budget, "max-exprs" for the memo's own 20 000-expression cap):
	// Best is the cheapest plan found before the stop — possibly the
	// greedy left-deep fallback — rather than the optimum over the
	// full equivalence class.
	Degraded string
	// FeedbackCorrections counts the memo groups this run estimated
	// from feedback corrections instead of the static model (0 when
	// Options.Feedback is nil or no correction matched).
	FeedbackCorrections int
	// Estimates maps every node of Best.Plan to the cardinality of the
	// memo group it was extracted from: the rows the run priced it at,
	// and the key a feedback correction for the group is recorded
	// under ("" without Options.Feedback and for a base relation).
	Estimates map[plan.Node]stats.Estimate
}

// Optimizer ranks the equivalence class of a query by estimated cost.
type Optimizer struct {
	Est  *stats.Estimator
	Opts Options
}

// New builds an optimizer over the given statistics with the paper's
// full rule set and aggregation push-up enabled.
func New(est *stats.Estimator) *Optimizer {
	return &Optimizer{Est: est, Opts: Options{PushUpAggregates: true}}
}

// NewBaseline builds the comparison optimizer: no generalized
// selection, no MGOJ, no aggregation push-up — only the reorderings
// available before this paper.
func NewBaseline(est *stats.Estimator) *Optimizer {
	return &Optimizer{Est: est, Opts: Options{Rules: core.BaselineRules()}}
}

// Explain renders an optimization result: the chosen plan, its cost,
// and how it compares with the query as written.
func Explain(res *Result) string {
	out := fmt.Sprintf("plans considered: %d\n", res.Considered)
	if res.Degraded != "" {
		out += fmt.Sprintf("degraded:        %s (best-effort plan, not the full-class optimum)\n", res.Degraded)
	}
	out += fmt.Sprintf("original cost:   %.1f (est. %.0f rows)\n", res.Original.Cost, res.Original.Rows)
	out += fmt.Sprintf("best cost:       %.1f (est. %.0f rows)\n", res.Best.Cost, res.Best.Rows)
	if res.Original.Cost > 0 {
		out += fmt.Sprintf("speedup:         %.2fx\n", res.Original.Cost/res.Best.Cost)
	}
	if len(res.Best.Derivation) > 0 {
		out += "derivation:      " + strings.Join(res.Best.Derivation, " -> ") + "\n"
	}
	if res.FeedbackCorrections > 0 {
		out += fmt.Sprintf("feedback:        corrected %d estimates\n", res.FeedbackCorrections)
	}
	if len(res.Phases) > 0 {
		parts := make([]string, len(res.Phases))
		for i, p := range res.Phases {
			parts[i] = fmt.Sprintf("%s %s", p.Name, p.Elapsed.Round(time.Microsecond))
		}
		out += "phases:          " + strings.Join(parts, ", ") + "\n"
	}
	if len(res.RuleFirings) > 0 {
		rules := make([]string, 0, len(res.RuleFirings))
		for r := range res.RuleFirings {
			rules = append(rules, r)
		}
		sort.Strings(rules)
		parts := make([]string, len(rules))
		for i, r := range rules {
			parts[i] = fmt.Sprintf("%s×%d", r, res.RuleFirings[r])
		}
		out += "rule firings:    " + strings.Join(parts, ", ") + "\n"
	}
	out += "best plan:\n" + plan.Indent(res.Best.Plan)
	return out
}

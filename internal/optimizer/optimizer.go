// Package optimizer selects the cheapest equivalent plan for a query
// (Section 4): it closes the query under the paper's reordering
// identities — commutativity, the [BHAR95a]/[GALI92a]
// associativities, MGOJ introduction and generalized-selection
// predicate break-up — plus the aggregation push-up of Example 3.1,
// costs every member of the closure, and returns the minimum.
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
	"repro/internal/simplify"
	"repro/internal/stats"
	"repro/internal/stats/feedback"
)

// Options configure an optimization run.
type Options struct {
	// Rules is the identity rule set; core.DefaultRules() if nil.
	Rules []core.Rule
	// MaxPlans caps the enumerated equivalence class (default 20000).
	MaxPlans int
	// PushUpAggregates also seeds the enumeration with
	// aggregation-pull-up variants of the query (Example 3.1).
	PushUpAggregates bool
	// Workers parallelizes memo exploration across goroutines. 0 and 1
	// run serially; < 0 means runtime.GOMAXPROCS(0). Any value yields
	// the identical memo and best plan as the serial run. The
	// saturation reference (MemoOff) always runs serially.
	Workers int
	// Obs receives the run's metrics (rule firings, dedup hits, plans
	// enumerated, per-phase wall time); obs.Default() when nil.
	Obs *obs.Registry
	// Tracer, when non-nil, collects a span tree of the optimization
	// phases (simplify, saturate, cost, rank) for -trace output.
	Tracer *obs.Tracer
	// Budget, when non-nil, governs the run: cancellation (checked at
	// wave boundaries and inside the cost phase) aborts with
	// guard.ErrCancelled, while a tripped expression budget degrades
	// gracefully — Optimize returns the best plan found so far, or
	// the heuristic left-deep order when that is cheaper, with
	// Result.Degraded naming the reason.
	Budget *guard.Budget
	// Feedback, when non-nil, attaches a cardinality feedback store to
	// the run's estimation session: subtrees with recorded
	// estimated→actual corrections are costed at the observed
	// cardinality instead of the static model's. Off (nil) by default —
	// a nil store leaves plans, costs and traces bit-identical to a
	// run without feedback.
	Feedback *feedback.Store
	// UseMemo selects the enumeration engine. The default, MemoAuto,
	// explores through the internal/memo group table — equivalence
	// groups with branch-and-bound extraction; a rule that declares no
	// group-local scope is rejected with an error naming it. MemoOff
	// runs whole-tree saturation, the reference the memo is tested
	// against. On the memo path, Result.Considered counts admitted
	// memo expressions and Result.Plans holds only the winner — the
	// full ranked list is a saturation-path artifact (the memo never
	// materializes the class).
	UseMemo MemoMode
}

// MemoMode is the Options.UseMemo setting.
type MemoMode uint8

const (
	// MemoAuto (the default) uses the memo.
	MemoAuto MemoMode = iota
	// MemoOff always uses whole-tree saturation.
	MemoOff
)

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
	// All plans, cheapest first (capped by Options.MaxPlans).
	Plans []Ranked
	// Phases reports per-phase wall time in execution order
	// (simplify, saturate, cost, rank).
	Phases []PhaseTiming
	// RuleFirings counts, per identity rule, the plans it admitted
	// into the equivalence class (each plan credits the final rule of
	// its derivation).
	RuleFirings map[string]int
	// Degraded is non-empty when resource governance stopped
	// enumeration early ("budget:exprs"): Best is the cheapest plan
	// found before the stop — possibly the greedy left-deep fallback
	// — rather than the optimum over the full equivalence class.
	Degraded string
	// FeedbackCorrections counts the distinct subtrees this run costed
	// from feedback corrections instead of the static model (0 when
	// Options.Feedback is nil or no correction matched).
	FeedbackCorrections int
	// Order, on the memo path, reports how a root ORDER BY was
	// satisfied as a physical property: the required order, what the
	// chosen plan delivers, and how many enforcer sorts were injected
	// (zero means the requirement was eliminated — some operator's
	// natural output order covered it). Nil when the query required no
	// order or the saturation path ran.
	Order *OrderInfo
}

// OrderInfo is Result.Order: the provenance of a root sort
// requirement.
type OrderInfo struct {
	Required  plan.Order
	Delivered plan.Order
	// Enforced counts the explicit enforcer Sort nodes in the best
	// plan; Eliminated reports the zero-enforcer case.
	Enforced int
}

// Eliminated reports whether the requirement was met without any
// enforcer sort.
func (oi *OrderInfo) Eliminated() bool { return oi.Enforced == 0 }

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

// Optimize enumerates the equivalence class of q and returns the
// cheapest plan. The database is needed only for schema resolution of
// aggregation push-up seeds; pass nil when PushUpAggregates is off.
//
// Under a budget (Options.Budget) the run is interruptible and
// bounded: cancellation and contained panics surface as typed guard
// errors, and an exhausted expression budget degrades to the best
// plan found so far (Result.Degraded). The package boundary converts
// any internal panic into a *guard.PanicError carrying the phase
// reached and the query fingerprint.
func (o *Optimizer) Optimize(q plan.Node, db plan.Database) (res *Result, err error) {
	reg := o.Opts.Obs
	if reg == nil {
		reg = obs.Default()
	}
	curPhase := "init"
	defer guard.RecoverAs(&err, &curPhase, plan.Key(q), reg)
	reg.Counter("optimizer.runs").Inc()
	root := o.Opts.Tracer.Start("optimize")
	defer root.End()
	var phases []PhaseTiming
	phase := func(name string) func() {
		curPhase = name
		sp := root.Child(name)
		start := time.Now()
		return func() {
			d := time.Since(start)
			sp.End()
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
	// check of either engine is then a bit test.
	plan.IndexRelations(q)
	b := o.Opts.Budget
	if err := b.Cancelled(); err != nil {
		return nil, err
	}
	if err := guard.Hit(guard.PointSimplify); err != nil {
		return nil, err
	}
	if o.Opts.UseMemo == MemoAuto {
		return o.optimizeMemo(q, rules, maxPlans, reg, phase, &phases)
	}
	type seed struct {
		node   plan.Node
		prefix []string
	}
	seeds := []seed{{node: q}}
	// Outer join simplification first ([BHAR95c]); the paper assumes
	// simple queries, and downgraded operators reorder more freely.
	endSimplify := phase("simplify")
	if s := simplify.Simplify(q); plan.Key(s) != plan.Key(q) {
		seeds = append(seeds, seed{node: s, prefix: []string{"simplify-outer-joins"}})
		reg.Counter("optimizer.simplified_seeds").Inc()
	}
	endSimplify()
	endSaturate := phase("saturate")
	seen := make(map[string]bool)
	var all []plan.Node
	var chains [][]string
	var degraded string
	firings := make(map[string]int)
	var satErr error
	// The pprof labels make CPU profiles attribute samples to the
	// enumeration phase.
	obs.WithPhase(b.Context(), "saturation", "saturate", func() {
		for _, sd := range seeds {
			plans, trace, stopped, serr := core.SaturateGuarded(sd.node, core.SaturateOptions{
				Rules:    rules,
				MaxPlans: maxPlans - len(all),
				Budget:   b,
				Obs:      reg,
			})
			if serr != nil {
				satErr = serr
				return
			}
			if stopped != "" {
				degraded = stopped
			}
			for _, p := range plans {
				key := plan.Key(p)
				if !seen[key] {
					seen[key] = true
					all = append(all, p)
					chain := append(append([]string(nil), sd.prefix...), core.DerivationChain(trace, key)...)
					chains = append(chains, chain)
					if len(chain) > 0 {
						firings[chain[len(chain)-1]]++
					}
				}
			}
			if len(all) >= maxPlans || degraded != "" {
				break
			}
		}
	})
	endSaturate()
	if satErr != nil {
		return nil, satErr
	}
	reg.Counter("optimizer.plans_enumerated").Add(int64(len(all)))
	reg.Gauge("optimizer.last_considered").Set(int64(len(all)))
	if len(all) == 0 {
		return nil, fmt.Errorf("optimizer: no plans enumerated for %s", q)
	}
	sess := o.Est.NewSession(reg)
	sess.SetBudget(b)
	sess.SetFeedback(o.Opts.Feedback)
	if degraded != "" {
		reg.Counter("guard.degraded").Inc()
		// The greedy left-deep order joins the truncated closure as
		// one more candidate: the normal ranking picks it exactly when
		// it beats everything enumerated before the budget tripped.
		if hp, ok := heuristicLeftDeep(q, sess); ok {
			if key := plan.Key(hp); !seen[key] {
				seen[key] = true
				all = append(all, hp)
				chains = append(chains, []string{HeuristicRule})
			}
		}
	}
	endCost := phase("cost")
	var ranked []Ranked
	obs.WithPhase(b.Context(), "saturation", "cost", func() {
		ranked, err = costAll(sess, all, chains, reg)
	})
	if err != nil {
		return nil, err
	}
	endCost()
	reg.Counter("optimizer.plans_costed").Add(int64(len(ranked)))
	endRank := phase("rank")
	res = &Result{Considered: len(ranked), Original: ranked[0], RuleFirings: firings, Degraded: degraded}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Cost < ranked[j].Cost })
	res.Plans = ranked
	res.Best = ranked[0]
	res.FeedbackCorrections = int(sess.FeedbackHits())
	endRank()
	res.Phases = phases
	root.Annotate("plans=%d best=%.1f", res.Considered, res.Best.Cost)
	return res, nil
}

// costAll estimates cost and cardinality for every enumerated plan
// through one stats.Session, so shared subtrees across the closure are
// costed once. Each plan is costed under guard.Safely so a costing
// panic surfaces as a typed error; the first failure stops the loop.
func costAll(sess *stats.Session, all []plan.Node, chains [][]string, reg *obs.Registry) ([]Ranked, error) {
	ranked := make([]Ranked, len(all))
	for i, p := range all {
		err := guard.Safely("cost", plan.Key(p), reg, func() error {
			if e := guard.Hit(guard.PointCost); e != nil {
				return e
			}
			cost, err := sess.PlanCost(p)
			if err != nil {
				return fmt.Errorf("optimizer: costing %s: %w", p, err)
			}
			rows, err := sess.Rows(p)
			if err != nil {
				return err
			}
			ranked[i] = Ranked{Plan: p, Cost: cost, Rows: rows, Derivation: chains[i]}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return ranked, nil
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
	if res.Order != nil {
		prov := fmt.Sprintf("enforced %d", res.Order.Enforced)
		if res.Order.Eliminated() {
			prov = "eliminated"
		}
		out += fmt.Sprintf("order:           required %s delivered %s (%s)\n", res.Order.Required, res.Order.Delivered, prov)
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

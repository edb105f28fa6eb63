package optimizer_test

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/simplify"
	"repro/internal/stats"
)

// saturationRanking is the reference the memo is tested against: the
// exhaustive saturate-and-rank optimizer. It closes q — and its
// outer-join simplification, when that differs — under the default
// rules plus aggregation push-up, up to maxPlans distinct plans,
// deduplicated by plan key across the seeds; costs every plan through
// one stats.Session; and ranks them cheapest first, ties in
// enumeration order. The Result's Original is the query as written,
// Considered the number of distinct plans and Best the head of the
// ranking, which is returned whole beside it. Derivations and rule
// firings are not reconstructed.
func saturationRanking(t *testing.T, q plan.Node, db plan.Database, maxPlans int) (*optimizer.Result, []optimizer.Ranked) {
	t.Helper()
	plan.IndexRelations(q)
	seeds := []plan.Node{q}
	if s := simplify.Simplify(q); plan.Key(s) != plan.Key(q) {
		seeds = append(seeds, s)
	}
	rules := append(core.DefaultRules(), core.PushUpRule(db))
	seen := map[string]bool{}
	var all []plan.Node
	for _, seed := range seeds {
		if len(all) >= maxPlans {
			break
		}
		for _, p := range core.Saturate(seed, core.SaturateOptions{Rules: rules, MaxPlans: maxPlans - len(all)}) {
			if key := plan.Key(p); !seen[key] {
				seen[key] = true
				all = append(all, p)
			}
		}
	}
	sess := stats.NewEstimator(stats.FromDatabase(db)).NewSession(obs.NewRegistry())
	ranked := make([]optimizer.Ranked, len(all))
	for i, p := range all {
		cost, err := sess.PlanCost(p)
		if err != nil {
			t.Fatalf("oracle: costing %s: %v", p, err)
		}
		rows, err := sess.Rows(p)
		if err != nil {
			t.Fatalf("oracle: rows of %s: %v", p, err)
		}
		ranked[i] = optimizer.Ranked{Plan: p, Cost: cost, Rows: rows}
	}
	res := &optimizer.Result{Original: ranked[0], Considered: len(ranked)}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Cost < ranked[j].Cost })
	res.Best = ranked[0]
	return res, ranked
}

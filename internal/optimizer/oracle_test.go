package optimizer_test

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/memo"
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
// deduplicated by plan key across the seeds, and ranks them cheapest
// first, ties in enumeration order.
//
// Cardinality lives on memo groups, so the oracle prices each plan
// with the rows of the memo groups that hold its subtrees: it explores
// the same seeds in a memo and prices each plan of a seed's closure as
// a materialization of that seed's group (memo.Price, the containment
// walk of internal/memo's TestMemoHoldsSaturationClosure). What it
// checks of the optimizer is extraction: that branch-and-bound finds
// the cheapest plan of the closure. A plan no group holds fails the
// test. A closure of maxPlans plans or more returns a Result with
// only Considered set, for the caller to skip. The Result's Original is the query as written, Considered the
// number of distinct plans and Best the head of the ranking, which is
// returned whole beside it. Derivations and rule firings are not
// reconstructed.
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
	var from []int // the seed each plan's closure came from
	for i, seed := range seeds {
		if len(all) >= maxPlans {
			break
		}
		for _, p := range core.Saturate(seed, core.SaturateOptions{Rules: rules, MaxPlans: maxPlans - len(all)}) {
			if key := plan.Key(p); !seen[key] {
				seen[key] = true
				all, from = append(all, p), append(from, i)
			}
		}
	}
	if len(all) >= maxPlans {
		return &optimizer.Result{Considered: len(all)}, nil
	}
	m, err := memo.New(memo.Options{Rules: rules, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	groups := make([]memo.GroupID, len(seeds))
	for i, seed := range seeds {
		groups[i] = m.Add(seed)
	}
	if err := m.Explore(); err != nil {
		t.Fatal(err)
	}
	if m.CappedReason() != "" {
		t.Skipf("oracle: the memo of %s capped at %d expressions", q, m.Exprs())
	}
	sess := stats.NewEstimator(stats.FromDatabase(db)).NewSession(nil)
	ranked := make([]optimizer.Ranked, len(all))
	for i, p := range all {
		g := groups[from[i]]
		cost, ok, err := m.Price(g, p, sess)
		if err != nil {
			t.Fatalf("oracle: costing %s: %v", p, err)
		}
		if !ok {
			t.Fatalf("oracle: closure plan %s is in no memo group", p)
		}
		ranked[i] = optimizer.Ranked{Plan: p, Cost: cost, Rows: m.Estimate(g).Rows}
	}
	res := &optimizer.Result{Original: ranked[0], Considered: len(ranked)}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Cost < ranked[j].Cost })
	res.Best = ranked[0]
	return res, ranked
}

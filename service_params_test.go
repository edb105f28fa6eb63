package reorder

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sql"
)

// skewBinding is the skew_groupby template with fact.k, fact.v and
// d2.tag bound.
func skewBinding(k, v, tag int) string {
	return fmt.Sprintf("select fact.k, count(*) as n from fact, d1, d2 "+
		"where fact.j = d1.j and d1.a = d2.a and fact.k = %d and fact.v = %d and d2.tag = %d group by fact.k", k, v, tag)
}

// servedEntry returns the template q resolves to and the plan-cache
// entry that serves q (nil when none is cached).
func servedEntry(t *testing.T, svc *Service, q string) (*template, *cachedPlan) {
	t.Helper()
	tpl, _, err := svc.frontEnd(Request{SQL: q})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range svc.cache.Entries() {
		if e.Key == tpl.key {
			return tpl, e.Value.(*cachedPlan)
		}
	}
	return tpl, nil
}

// scansUnder lists the base relations n reads.
func scansUnder(n plan.Node) map[string]bool {
	rels := map[string]bool{}
	plan.Walk(n, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			rels[s.Rel] = true
		}
	})
	return rels
}

// joinsD1WithSelectedD2First reports whether p joins d1 with the
// selected d2 in a join that fact is not under.
func joinsD1WithSelectedD2First(p plan.Node) bool {
	found := false
	plan.Walk(p, func(n plan.Node) {
		j, ok := n.(*plan.Join)
		if !ok {
			return
		}
		rels := scansUnder(j)
		if len(rels) != 2 || !rels["d1"] || !rels["d2"] {
			return
		}
		for _, c := range j.Children() {
			if s, ok := c.(*plan.Select); ok && scansUnder(s)["d2"] {
				found = true
			}
		}
	})
	return found
}

// TestServiceSkewPlanShape: on the hit_scan skew data, the served
// skew_groupby plan joins d1 with σd2 before fact, because the
// estimator sees that fact.k = 0 is the heavy hitter. That holds for
// the miss that optimizes it and for the hits after, over every tag
// the benchmark binds.
func TestServiceSkewPlanShape(t *testing.T) {
	svc := newTestService(t, ServiceConfig{DB: stabilitySkew()})
	ctx := context.Background()
	for i, want := range []string{"miss", "hit"} {
		resp, err := svc.Query(ctx, Request{SQL: skewBinding(0, 0, 2)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheStatus != want {
			t.Fatalf("request %d: cache %q, want %q", i, resp.CacheStatus, want)
		}
	}
	for tag := 0; tag < 5; tag++ {
		q := skewBinding(0, 0, tag)
		if _, err := svc.Query(ctx, Request{SQL: q}); err != nil {
			t.Fatal(err)
		}
		_, cp := servedEntry(t, svc, q)
		if cp == nil {
			t.Fatalf("tag %d: no cache entry serves the request", tag)
		}
		if !joinsD1WithSelectedD2First(cp.plan) {
			t.Errorf("tag %d: served plan does not join d1 with σd2 first:\n%s", tag, plan.Key(cp.plan))
		}
	}
}

// TestServiceMissOptimizesWithRequestValues: the miss optimizes the
// template with the values of the request that missed — a service
// whose first skew_groupby request binds the heavy hitter fact.k = 0
// caches another plan than one whose first request binds the rare
// k = 57 — and either way the template keeps one cache entry, built by
// one optimization, that serves every later binding.
func TestServiceMissOptimizesWithRequestValues(t *testing.T) {
	db := stabilitySkew()
	ctx := context.Background()
	served := map[int]string{}
	for _, first := range []int{0, 57} {
		svc := newTestService(t, ServiceConfig{DB: db})
		for _, k := range []int{first, 0, 1, 2, 57, 1000} {
			if _, err := svc.Query(ctx, Request{SQL: skewBinding(k, k%10, 2)}); err != nil {
				t.Fatal(err)
			}
		}
		_, cp := servedEntry(t, svc, skewBinding(first, first%10, 2))
		if cp == nil {
			t.Fatalf("first k=%d: no cache entry serves the template", first)
		}
		served[first] = plan.Key(cp.plan)
		if got := svc.cache.Len(); got != 1 {
			t.Errorf("first k=%d: %d cache entries, want 1", first, got)
		}
		if got := svc.Observer().Registry.Snapshot().Counters["optimizer.runs"]; got != 1 {
			t.Errorf("first k=%d: optimizer ran %d times, want once", first, got)
		}
	}
	if served[0] == served[57] {
		t.Errorf("the heavy and the rare binding optimized to the same plan:\n%s", served[0])
	}
}

// pushSelections places each single-relation conjunct of the Selects
// over inner joins in n onto the scan it reads (selection push-down,
// exact over inner joins), so plan.Eval's nested-loop joins read
// filtered inputs.
func pushSelections(t *testing.T, n plan.Node) plan.Node {
	return plan.Rewrite(n, func(n plan.Node) plan.Node {
		sel, ok := n.(*plan.Select)
		if !ok {
			return nil
		}
		plan.Walk(sel.Input, func(m plan.Node) {
			if j, ok := m.(*plan.Join); ok && j.Kind != plan.InnerJoin {
				t.Fatalf("premise: %s under a pushed selection", j.Kind)
			}
		})
		in := sel.Input
		var kept []expr.Pred
		for _, c := range expr.Conjuncts(sel.Pred) {
			rels := map[string]bool{}
			for _, a := range c.Attrs(nil) {
				rels[a.Rel] = true
			}
			if len(rels) != 1 {
				kept = append(kept, c)
				continue
			}
			in = plan.Rewrite(in, func(m plan.Node) plan.Node {
				if s, ok := m.(*plan.Scan); ok && rels[s.Rel] {
					return plan.NewSelect(c, s)
				}
				return nil
			})
		}
		if len(kept) == 0 {
			return in
		}
		return plan.NewSelect(expr.And(kept...), in)
	})
}

// TestServiceParamsMatchEval is the differential of parameter-sensitive
// optimization: for heavy, rare and absent fact.k and every tag, the
// rows served through the cache (miss or hit, on the plan the first
// binding optimized) and through bypass (optimized with each binding's
// own values) equal plan.Eval of the bound query as a multiset. The
// data is the skew instance at a tenth of stabilitySkew's scale, where
// plan.Eval's nested loops stay fast.
func TestServiceParamsMatchEval(t *testing.T) {
	db := skewScaled(40)
	svc := newTestService(t, ServiceConfig{DB: db})
	ctx := context.Background()
	for _, k := range []int{0, 1, 57, 1000} {
		for tag := 0; tag < 10; tag++ {
			q := skewBinding(k, k%10, tag)
			stmt, err := sql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			node, err := sql.Lower(stmt, db)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pushSelections(t, node).Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			for _, cache := range []string{"", "", "bypass"} {
				resp, err := svc.Query(ctx, Request{SQL: q, Cache: cache})
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, fmt.Sprintf("k=%d tag=%d %s", k, tag, resp.CacheStatus), want, resp)
			}
		}
	}
}

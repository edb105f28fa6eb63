package memo

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/datagen"
	xpr "repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/simplify"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/value"
)

// coldShapes are the five cold_plan templates of the serving benchmark
// (bench/workloads.go), copied as literals.
var coldShapes = []struct{ name, sql string }{
	{"loj5_complex", "select r1.x, r5.y from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y and r3.x >= r1.y " +
		"left join r4 on r3.x = r4.x left join r5 on r4.y = r5.y and r5.x >= r1.y where r1.y = 7"},
	{"inner4_loj", "select r1.y, r5.x from r1 join r2 on r1.x = r2.x join r3 on r2.y = r3.y join r4 on r3.x = r4.x " +
		"left join r5 on r4.y = r5.y where r1.x = 7"},
	{"star4_complex", "select r1.x, r4.y from r1, r2, r3, r4 " +
		"where r1.x = r2.x and r1.y = r3.y and r1.x = r4.x and r2.y < r3.x + r4.y and r1.y = 7"},
	{"loj6", "select r1.x, r6.y from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
		"left join r4 on r3.x = r4.x left join r5 on r4.y = r5.y left join r6 on r5.x = r6.x where r1.y = 7"},
	{"mix5_groupby", "select r1.y, count(*) as n from r1 join r2 on r1.x = r2.x join r3 on r2.y = r3.y " +
		"left join r4 on r3.x = r4.x left join r5 on r4.y = r5.y where r1.x = 7 group by r1.y"},
}

// coldPin is what exploring a cold shape must reproduce. all is the
// number of ScopeChild bindings there are over the explored memo's
// live expressions, and bindings the number of those some rule's
// patterns match; built is memo.child_bindings, the number exploration
// built, more than bindings because a slot a merge re-points is bound
// again over its new group. counters holds the nonzero memo.exprs,
// memo.groups, memo.dedup_hits and per-rule applied/admitted counters.
// Winners and costs are those the memo found before it merged
// equivalent groups (and before it filtered bindings by operator
// kind); both changed how much work exploration does, not what it
// finds. Merging took the expressions from 345/833/309/693/308 and the
// groups from 56/52/44/52/36.
type coldPin struct {
	all, bindings, built int
	counters             string
	winner               string
	cost                 float64
}

var coldPins = map[string]coldPin{
	"loj5_complex": {646, 172, 183,
		"memo.dedup_hits=228 memo.exprs=188 memo.groups=41 " +
			"optimizer.rule_admitted.assoc-left=43 optimizer.rule_admitted.commute=69 optimizer.rule_admitted.select-pushdown=10 optimizer.rule_admitted.split=12 " +
			"optimizer.rule_applied.assoc-left=185 optimizer.rule_applied.commute=155 optimizer.rule_applied.select-pushdown=10 optimizer.rule_applied.split=12",
		"PROJ[r1.x,r5.y](((((SEL[r1.y = $1](r1) LOJ[r1.x = r2.x] r2) LOJ[r2.y = r3.y and r3.x >= r1.y] r3) LOJ[r3.x = r4.x] r4) LOJ[r4.y = r5.y and r5.x >= r1.y] r5))",
		1657.3063778326937},
	"inner4_loj": {238, 182, 188,
		"memo.dedup_hits=171 memo.exprs=81 memo.groups=21 " +
			"optimizer.rule_admitted.assoc-inner=13 optimizer.rule_admitted.commute=7 optimizer.rule_admitted.join-loj=7 optimizer.rule_admitted.select-pushdown=22 " +
			"optimizer.rule_applied.assoc-inner=77 optimizer.rule_applied.commute=62 optimizer.rule_applied.join-loj=59 optimizer.rule_applied.select-pushdown=22",
		"PROJ[r1.y,r5.x](((((SEL[r1.x = $1](r1) JOIN[r1.x = r2.x] r2) JOIN[r2.y = r3.y] r3) JOIN[r3.x = r4.x] r4) LOJ[r4.y = r5.y] r5))",
		1815.9312379249839},
	"star4_complex": {238, 196, 198,
		"memo.dedup_hits=102 memo.exprs=89 memo.groups=24 " +
			"optimizer.rule_admitted.assoc-inner=15 optimizer.rule_admitted.commute=7 optimizer.rule_admitted.select-merge=4 optimizer.rule_admitted.select-pushdown=24 optimizer.rule_admitted.split=4 " +
			"optimizer.rule_applied.assoc-inner=38 optimizer.rule_applied.commute=60 optimizer.rule_applied.select-merge=4 optimizer.rule_applied.select-pushdown=48 optimizer.rule_applied.split=6",
		"PROJ[r1.x,r4.y]((r3 JOIN[r1.y = r3.y and r2.y < (r3.x + r4.y)] ((SEL[r1.y = $1](r1) JOIN[r1.x = r2.x] r2) JOIN[r1.x = r4.x] r4)))",
		1335.5529037642216},
	"loj6": {482, 170, 189,
		"memo.dedup_hits=236 memo.exprs=134 memo.groups=28 " +
			"optimizer.rule_admitted.assoc-left=23 optimizer.rule_admitted.commute=35 optimizer.rule_admitted.select-pushdown=35 " +
			"optimizer.rule_applied.assoc-left=187 optimizer.rule_applied.commute=106 optimizer.rule_applied.select-pushdown=36",
		"PROJ[r1.x,r6.y]((((((SEL[r1.y = $1](r1) LOJ[r1.x = r2.x] r2) LOJ[r2.y = r3.y] r3) LOJ[r3.x = r4.x] r4) LOJ[r4.y = r5.y] r5) LOJ[r5.x = r6.x] r6))",
		2467.5948598850487},
	"mix5_groupby": {239, 138, 147,
		"memo.dedup_hits=159 memo.exprs=83 memo.groups=22 " +
			"optimizer.rule_admitted.assoc-inner=6 optimizer.rule_admitted.assoc-left=1 optimizer.rule_admitted.commute=12 optimizer.rule_admitted.join-loj=12 optimizer.rule_admitted.select-pushdown=22 " +
			"optimizer.rule_applied.assoc-inner=31 optimizer.rule_applied.assoc-left=16 optimizer.rule_applied.commute=63 optimizer.rule_applied.join-loj=79 optimizer.rule_applied.select-pushdown=23",
		"PROJ[r1.y,q1.n](GP[r1.y; q1.n=count(*)](((((SEL[r1.x = $1](r1) JOIN[r1.x = r2.x] r2) JOIN[r2.y = r3.y] r3) LOJ[r3.x = r4.x] r4) LOJ[r4.y = r5.y] r5)))",
		1906.2078167951202},
}

// optimizeMemo explores q the way optimizer.Optimize does — q and its
// outer-join simplification seed one memo under DefaultRules plus
// aggregation push-up, capped at maxExprs expressions (Optimize's cap is
// 20 000) — and returns the memo, its distinct roots and its registry.
func optimizeMemo(t *testing.T, q plan.Node, db plan.Database, maxExprs int) (*Memo, []GroupID, *obs.Registry) {
	t.Helper()
	plan.IndexRelations(q)
	reg := obs.NewRegistry()
	m, err := New(Options{Rules: append(core.DefaultRules(), core.PushUpRule(db)), MaxExprs: maxExprs, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	roots := []GroupID{m.Add(q)}
	if s := simplify.Simplify(q); plan.Key(s) != plan.Key(q) {
		if g := m.Add(s); g != roots[0] {
			roots = append(roots, g)
		}
	}
	if err := m.Explore(); err != nil {
		t.Fatal(err)
	}
	return m, roots, reg
}

var kindNames = [core.NumKinds]string{"other", "select", "group-by", "inner", "left", "right", "full"}

// checkChildPatterns regenerates every (live expression, slot, live
// child expression) binding of an explored memo — all of them, as
// exploration built them before it filtered by operator kind — and
// fails the test
// when a ScopeChild rule returns anything on a binding its patterns
// reject. It returns how many bindings there are and how many some
// rule's patterns match.
func checkChildPatterns(t *testing.T, m *Memo) (all, matched int) {
	t.Helper()
	for _, e := range m.exprs {
		if e.dead {
			continue
		}
		for s, cgid := range e.children {
			var in [2]plan.Node
			for i, c := range e.children {
				in[i] = m.exprs[m.groups[c].repr].node
			}
			start := 0
			if s > 0 {
				start = 1
			}
			for _, cid := range m.groups[cgid].exprs[start:] {
				if m.exprs[cid].dead {
					continue
				}
				in[s] = m.exprs[cid].node
				b := rebuild(e.node, in[0], in[1])
				root, l, r := core.KindOf(b), core.KindOf(in[0]), core.KindOf(in[1])
				all++
				bound := false
				for _, rule := range m.rules[core.ScopeChild] {
					if rule.Matches(root, l, r) {
						bound = true
					} else if alts := rule.Apply(b); len(alts) > 0 {
						t.Errorf("%s rejects kinds (%s, %s, %s) but returns %d alternatives on %s",
							rule.Name, kindNames[root], kindNames[l], kindNames[r], len(alts), b)
					}
				}
				if bound {
					matched++
				}
			}
		}
	}
	return all, matched
}

// pinnedCounters renders the nonzero counters coldPin.counters holds.
func pinnedCounters(c map[string]int64) string {
	var out []string
	for k, v := range c {
		if v != 0 && (k == "memo.exprs" || k == "memo.groups" || k == "memo.dedup_hits" || strings.HasPrefix(k, "optimizer.rule_")) {
			out = append(out, fmt.Sprintf("%s=%d", k, v))
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// pushUpShape is Example 1.1's shape — an aggregation below an outer
// join whose predicate references the aggregate column — under an
// inner join and a selection.
func pushUpShape() plan.Node {
	agg := schema.Attr("v", "agg")
	gp := plan.NewGroupBy([]schema.Attribute{schema.Attr("r2", "x")},
		[]algebra.Aggregate{{Func: algebra.CountStar, Out: agg}}, scan("r2"))
	pred := xpr.And(eqX("r1", "r2"), xpr.Cmp{Op: value.LT, L: xpr.Column("r1", "y"), R: xpr.Col{Attr: agg}})
	return plan.NewSelect(eqY("r1", "r3"), plan.NewJoin(plan.InnerJoin, eqX("r1", "r3"),
		plan.NewJoin(plan.LeftJoin, pred, scan("r1"), gp), scan("r3")))
}

// TestMemoChildPatternsSound: the operator kinds a ScopeChild rule
// declares cover everything its Apply can match — on every binding
// exploration used to build, of the cold_plan shapes, the paper's
// examples, the aggregation push-up shape and generated queries, a
// rule whose patterns reject the binding returns nothing — so binding
// only what the patterns match leaves the memo as it was. For the cold
// shapes the memo's counts, winner and cost are pinned (see coldPin).
func TestMemoChildPatternsSound(t *testing.T) {
	cold := datagen.Chain(7, datagen.UniformConfig{Rows: 300, Domain: 150, NullFrac: 0.05}, 1996)
	for _, sh := range coldShapes {
		t.Run(sh.name, func(t *testing.T) {
			stmt, err := sql.Parse(sh.sql)
			if err != nil {
				t.Fatal(err)
			}
			tmpl, _ := sql.Parameterize(stmt)
			q, err := sql.Lower(tmpl, cold)
			if err != nil {
				t.Fatal(err)
			}
			m, roots, reg := optimizeMemo(t, q, cold, 20000)
			pin := coldPins[sh.name]
			all, matched := checkChildPatterns(t, m)
			counters := reg.Snapshot().Counters
			if all != pin.all || matched != pin.bindings || counters["memo.child_bindings"] != int64(pin.built) {
				t.Errorf("%d bindings, %d matched, %d built; want %d, %d, %d",
					all, matched, counters["memo.child_bindings"], pin.all, pin.bindings, pin.built)
			}
			if got := pinnedCounters(counters); got != pin.counters {
				t.Errorf("counters\n got  %s\n want %s", got, pin.counters)
			}
			if counters["memo.exprs"] != int64(m.Exprs()) || counters["memo.groups"] != int64(m.Groups()) {
				t.Errorf("Exprs %d, Groups %d disagree with the counters", m.Exprs(), m.Groups())
			}
			for rule, n := range m.RuleFirings() {
				if counters["optimizer.rule_admitted."+rule] != int64(n) {
					t.Errorf("RuleFirings[%s] = %d, admitted counter %d", rule, n, counters["optimizer.rule_admitted."+rule])
				}
			}
			best, err := m.Extract(roots, stats.NewEstimator(stats.FromDatabase(cold)).NewSession(nil))
			if err != nil {
				t.Fatal(err)
			}
			if key := plan.Key(best.Plan); key != pin.winner || best.Cost != pin.cost {
				t.Errorf("winner %s at %v, want %s at %v", key, best.Cost, pin.winner, pin.cost)
			}
		})
	}
	pushDB := datagen.Chain(3, datagen.UniformConfig{Rows: 20, Domain: 5}, 1)
	for _, tc := range []struct {
		name string
		q    plan.Node
		db   plan.Database
	}{
		{"query2", query2(), nil}, {"Q5", q5(), nil}, {"Q6", q6(), nil}, {"Q6-simple", q6Simple(), nil},
		{"full-outer", fojChain(), nil}, {"push-up", pushUpShape(), pushDB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, _, _ := optimizeMemo(t, tc.q, tc.db, 20000)
			if all, _ := checkChildPatterns(t, m); all == 0 {
				t.Fatal("no bindings")
			}
			if tc.db != nil && m.RuleFirings()["push-up-aggregation"] == 0 {
				t.Error("the aggregation was never pulled up")
			}
		})
	}
	// A quarter of the generated queries reach Optimize's cap; a capped
	// memo holds bindings enough, and every one is a tree the rules must
	// get right.
	all, matched := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, n := datagen.RandomJoinQuery(rng)
		m, _, _ := optimizeMemo(t, q, datagen.RandomJoinDB(rng, n), 2000)
		a, k := checkChildPatterns(t, m)
		all, matched = all+a, matched+k
	}
	t.Logf("generated queries: %d of %d bindings matched", matched, all)
}

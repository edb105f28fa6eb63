package memo

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	xpr "repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/simplify"
	"repro/internal/stats"
)

func eqX(a, b string) xpr.Pred { return xpr.EqCols(a, "x", b, "x") }
func eqY(a, b string) xpr.Pred { return xpr.EqCols(a, "y", b, "y") }

func scan(r string) *plan.Scan { return plan.NewScan(r) }

// query2 is (r1 →p12 r2) →(p13∧p23) r3 (Sections 1.1 and 2).
func query2() plan.Node {
	return plan.NewJoin(plan.LeftJoin, xpr.And(eqY("r1", "r3"), eqX("r2", "r3")),
		plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), scan("r1"), scan("r2")), scan("r3"))
}

// q5 and q6 are the Section 3 examples (experiments.Q5/Q6, which this
// package cannot import).
func q5() plan.Node {
	left := plan.NewJoin(plan.FullJoin, xpr.And(eqX("r1", "r2"), eqY("r1", "r3")), scan("r1"),
		plan.NewJoin(plan.LeftJoin, eqX("r2", "r3"), scan("r2"), scan("r3")))
	right := plan.NewJoin(plan.LeftJoin, xpr.And(eqX("r4", "r5"), eqY("r4", "r6")), scan("r4"),
		plan.NewJoin(plan.InnerJoin, eqX("r5", "r6"), scan("r5"), scan("r6")))
	return plan.NewJoin(plan.LeftJoin, eqY("r2", "r4"), left, right)
}

func q6() plan.Node {
	return plan.NewJoin(plan.FullJoin, xpr.And(eqX("r1", "r2"), eqY("r1", "r4")), scan("r1"),
		plan.NewJoin(plan.LeftJoin, xpr.And(eqX("r2", "r3"), eqY("r2", "r4")), scan("r2"),
			plan.NewJoin(plan.LeftJoin, eqX("r3", "r4"), scan("r3"), scan("r4"))))
}

// q6Simple is Q6 made simple — the middle operator no longer rejects
// r4's padding — with a two-conjunct middle predicate: the top
// predicate spans the middle edge, so that edge does not separate the
// query and nothing may be broken off it.
func q6Simple() plan.Node {
	return plan.NewJoin(plan.FullJoin, xpr.And(eqX("r1", "r2"), eqY("r1", "r4")), scan("r1"),
		plan.NewJoin(plan.LeftJoin, xpr.And(eqX("r2", "r3"), eqY("r2", "r3")), scan("r2"),
			plan.NewJoin(plan.LeftJoin, eqX("r3", "r4"), scan("r3"), scan("r4"))))
}

// fojChain is r1 ↔(p12∧q12) (r2 ↔p23 r3): a full outer join whose
// break-up must keep both sides preserved.
func fojChain() plan.Node {
	return plan.NewJoin(plan.FullJoin, xpr.And(eqX("r1", "r2"), eqY("r1", "r2")), scan("r1"),
		plan.NewJoin(plan.FullJoin, eqX("r2", "r3"), scan("r2"), scan("r3")))
}

// q4 is Example 3.2's Figure 1 query (experiments.Q4):
// r1 →p12 (r2 →(p24∧p25) ((r4 ⋈p45 r5) ⋈p35 r3)).
func q4() plan.Node {
	inner := plan.NewJoin(plan.InnerJoin, xpr.EqCols("r3", "d", "r5", "d"),
		plan.NewJoin(plan.InnerJoin, xpr.EqCols("r4", "c", "r5", "c"), scan("r4"), scan("r5")),
		scan("r3"))
	mid := plan.NewJoin(plan.LeftJoin, xpr.And(xpr.EqCols("r2", "a", "r4", "a"), xpr.EqCols("r2", "b", "r5", "b")),
		scan("r2"), inner)
	return plan.NewJoin(plan.LeftJoin, xpr.EqCols("r1", "x", "r2", "x"), scan("r1"), mid)
}

func explored(t *testing.T, q plan.Node, opts Options) (*Memo, GroupID) {
	t.Helper()
	plan.IndexRelations(q)
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	root := m.Add(q)
	if err := m.Explore(); err != nil {
		t.Fatal(err)
	}
	return m, root
}

// TestShapeIdentity: an operator with the same predicate over the same
// input groups is one expression however often — and in whatever
// conjunct order — it is offered; with its operands commuted it is
// another.
func TestShapeIdentity(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := New(Options{Rules: []core.Rule{defaultRule("commute")}, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := scan("r1"), scan("r2")
	p, q := eqX("r1", "r2"), eqY("r1", "r2")
	g := m.Add(plan.NewJoin(plan.InnerJoin, xpr.And(p, q), r1, r2))
	if got := m.Exprs(); got != 3 {
		t.Fatalf("seed admitted %d expressions, want 3", got)
	}
	// A fresh node, fresh scans, the conjuncts swapped: same shape.
	if m.addResult(g, plan.NewJoin(plan.InnerJoin, xpr.And(q, p), scan("r1"), scan("r2")), nil, -1) {
		t.Error("the same operator over the same groups was admitted twice")
	}
	if hits := reg.Snapshot().Counters["memo.dedup_hits"]; hits != 1 {
		t.Errorf("memo.dedup_hits = %d, want 1", hits)
	}
	if !m.addResult(g, plan.NewJoin(plan.InnerJoin, xpr.And(p, q), r2, r1), nil, -1) {
		t.Error("the commuted operator was deduplicated away")
	}
	// A repeated conjunct is a different predicate: the cost model
	// charges its selectivity again.
	if !m.addResult(g, plan.NewJoin(plan.InnerJoin, xpr.And(p, q, p), r1, r2), nil, -1) {
		t.Error("p∧q∧p was identified with p∧q")
	}
	if got := m.Exprs(); got != 5 {
		t.Errorf("%d expressions, want 5", got)
	}
	if got := m.live; got != 3 {
		t.Errorf("%d groups, want 3 (r1, r2, the join)", got)
	}
	// Children resolve by pointer: a result built over a known
	// expression node lands on that node's group without shaping it.
	top := plan.NewSelect(eqX("r1", "r2"), m.exprs[m.groups[g].exprs[1]].node)
	if s := m.shapeOf(top); s.l != g {
		t.Errorf("selection over an admitted node resolved to group %d, want %d", s.l, g)
	}
}

// TestRulePanicLabelled: a rule that panics aborts exploration with a
// *guard.PanicError naming the phase and the binding it was applied
// to.
func TestRulePanicLabelled(t *testing.T) {
	boom := core.Rule{Name: "boom", Scope: core.ScopeNode, Apply: func(n plan.Node) []plan.Node {
		if j, ok := n.(*plan.Join); ok && j.Kind == plan.LeftJoin {
			panic("rule boom")
		}
		return nil
	}}
	m, err := New(Options{Rules: []core.Rule{boom}, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	q := query2()
	m.Add(q)
	var pe *guard.PanicError
	if err := m.Explore(); !errors.As(err, &pe) {
		t.Fatalf("error %v, want a PanicError", err)
	}
	inner := q.(*plan.Join).L
	if pe.Phase != "explore" || pe.PlanKey != plan.Key(inner) {
		t.Errorf("panic labelled %q/%q, want explore/%q", pe.Phase, pe.PlanKey, plan.Key(inner))
	}
}

// defaultRule returns the rule of core.DefaultRules with the name.
func defaultRule(name string) core.Rule {
	for _, r := range core.DefaultRules() {
		if r.Name == name {
			return r
		}
	}
	panic("no default rule " + name)
}

// splitKeys renders the break-up alternatives the memo admitted to the
// root group, sorted.
func splitKeys(m *Memo, root GroupID) []string {
	var keys []string
	for _, eid := range m.groups[m.find(root)].exprs {
		if e := m.exprs[eid]; !e.dead && e.rule == "split" {
			keys = append(keys, plan.Key(e.node))
		}
	}
	sort.Strings(keys)
	return keys
}

// TestSplitTableMatchesReference checks core.SplitTable — what the
// memo binds once per conjunct placement — against the per-option
// reference: every (operator, conjunct) pair core.DeferConjuncts
// accepts has an entry with the same deferred predicate, the same
// remaining predicate and core.CompensationSpecs' preserved list (a
// plain selection when that list is empty), nothing else has one, and
// the root group of an explored memo holds those alternatives (beside
// the ones of any further placement exploration derives).
func TestSplitTableMatchesReference(t *testing.T) {
	innerChain := plan.NewJoin(plan.InnerJoin, xpr.And(eqY("r1", "r3"), eqX("r2", "r3")),
		plan.NewJoin(plan.InnerJoin, eqX("r1", "r2"), scan("r1"), scan("r2")), scan("r3"))
	// An inner join above rejects r2's padding: the outer join is
	// removable, so the tree is not simple.
	notSimple := plan.NewJoin(plan.InnerJoin, xpr.And(eqX("r2", "r3"), eqY("r2", "r3")),
		plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), scan("r1"), scan("r2")), scan("r3"))
	cases := []struct {
		name    string
		q       plan.Node
		entries int
	}{
		{"query2", query2(), 2},
		{"Q5", q5(), 4},
		// As written Q6 is not simple: p24 rejects the padding of r4.
		{"Q6", q6(), 0},
		// Only the top edge's two conjuncts; the middle edge has two
		// as well but does not separate.
		{"Q6-simple", q6Simple(), 2},
		{"full-outer", fojChain(), 2},
		{"inner-plain-select", innerChain, 2},
		{"not-simple", notSimple, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			table := core.SplitTable(tc.q)
			if len(table) != tc.entries {
				t.Fatalf("%d entries, want %d", len(table), tc.entries)
			}
			byOption := map[string]core.SplitEntry{}
			for _, e := range table {
				byOption[fmt.Sprintf("%p/%d", e.Target, e.Conjunct)] = e
			}
			var want []string
			accepted := 0
			h, _ := hypergraph.FromPlan(tc.q)
			for _, opt := range core.SplitOptionsOf(tc.q) {
				ref, err := core.DeferConjuncts(tc.q, opt.Target, []int{opt.Conjunct})
				e, ok := byOption[fmt.Sprintf("%p/%d", opt.Target, opt.Conjunct)]
				if (err == nil) != ok {
					t.Fatalf("option %s/%d: reference error %v, table entry %v", opt.Target, opt.Conjunct, err, ok)
				}
				if err != nil {
					continue
				}
				accepted++
				got := e.Apply(tc.q)
				if plan.Key(got) != plan.Key(ref) {
					t.Errorf("entry builds %s, reference %s", got, ref)
				}
				var edge *hypergraph.Hyperedge
				for _, he := range h.Edges {
					if he.Origin == opt.Target {
						edge = he
					}
				}
				specs := core.CompensationSpecs(h, edge)
				if !reflect.DeepEqual(e.Specs, specs) {
					t.Errorf("entry preserves %v, CompensationSpecs %v", e.Specs, specs)
				}
				if _, isSel := got.(*plan.Select); isSel != (len(specs) == 0) {
					t.Errorf("empty preserved list must give a plain selection: %s", got)
				}
				want = append(want, plan.Key(ref))
			}
			if accepted != len(table) {
				t.Errorf("table has %d entries, the reference accepts %d options", len(table), accepted)
			}
			m, root := explored(t, tc.q, Options{})
			got := splitKeys(m, root)
			for _, k := range want {
				if i := sort.SearchStrings(got, k); i == len(got) || got[i] != k {
					t.Errorf("root group lacks the alternative %s\n has %v", k, got)
				}
			}
			if len(want) == 0 && len(got) != 0 {
				t.Errorf("root group has split alternatives %v, the reference accepts none", got)
			}
		})
	}
}

// memoSummary is what must not change from one exploration of a query
// to the next.
type memoSummary struct {
	exprs, groups int
	capped        string
	firings       map[string]int
	winner        string
	cost          float64
}

func summarize(t *testing.T, q plan.Node, db plan.Database, opts Options) memoSummary {
	t.Helper()
	m, root := explored(t, q, opts)
	best, err := m.Extract([]GroupID{root}, stats.NewEstimator(stats.FromDatabase(db)).NewSession(nil))
	if err != nil {
		t.Fatal(err)
	}
	return memoSummary{m.Exprs(), m.live, m.CappedReason(), m.RuleFirings(), plan.Key(best.Plan), best.Cost}
}

// TestWorkersIdenticalMemo: exploration runs its waves on one
// goroutine, so every exploration of a query builds the same memo —
// expression and group counts, per-rule firings, winner and cost —
// both run to fixpoint and capped mid-wave by MaxExprs, where the cap
// must land on the same expression. Run under -race by make race.
func TestWorkersIdenticalMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := datagen.RandomJoinDB(rng, 6)
	for _, tc := range []struct {
		name string
		q    plan.Node
	}{{"query2", query2()}, {"Q5", q5()}, {"Q6", q6()}} {
		full := summarize(t, tc.q, db, Options{})
		for _, maxExprs := range []int{0, full.exprs / 2} {
			t.Run(fmt.Sprintf("%s/max=%d", tc.name, maxExprs), func(t *testing.T) {
				first := summarize(t, tc.q, db, Options{MaxExprs: maxExprs})
				// One result may admit the few operators it newly built
				// together, so a capped memo holds at least MaxExprs.
				if maxExprs > 0 && (first.capped != cappedMaxExprs || first.exprs < maxExprs || first.exprs >= full.exprs) {
					t.Fatalf("MaxExprs=%d: capped %q at %d of %d expressions", maxExprs, first.capped, first.exprs, full.exprs)
				}
				for run := 2; run <= 4; run++ {
					if again := summarize(t, tc.q, db, Options{MaxExprs: maxExprs}); !reflect.DeepEqual(again, first) {
						t.Errorf("exploration %d:\n got  %+v\n want %+v", run, again, first)
					}
				}
			})
		}
	}
}

// contains reports whether the tree n is a materialization of group
// gid: some expression of the group has n's operator and holds each of
// n's inputs in the matching input group.
func (m *Memo) contains(gid GroupID, n plan.Node, seen map[containsKey]bool) bool {
	key := containsKey{gid, n}
	if v, ok := seen[key]; ok {
		return v
	}
	seen[key] = false // a cyclic spelling does not justify itself
	op, in := m.operator(n)
	for _, eid := range m.groups[m.find(gid)].exprs {
		e := m.exprs[eid]
		if eop, _ := m.operator(e.node); e.dead || eop != op {
			continue
		}
		ok := true
		for i, cg := range e.children {
			ok = ok && m.contains(cg, in[i], seen)
		}
		if ok {
			seen[key] = true
			return true
		}
	}
	return false
}

type containsKey struct {
	g GroupID
	n plan.Node
}

// TestMemoHoldsSaturationClosure is the plan-space pin, stronger than
// comparing best costs (it covers every plan, not only the cheapest):
// every plan of the whole-tree
// closure core.Saturate computes is a materialization of the memo's
// root group — for the paper's examples and for generated queries over
// inner, left and full outer joins with multi-conjunct, complex and
// one-sided predicates. Binding predicate break-up once per conjunct
// placement instead of once per join tree must lose none of them.
func TestMemoHoldsSaturationClosure(t *testing.T) {
	check := func(t *testing.T, q plan.Node) bool {
		closure := core.Saturate(q, core.SaturateOptions{MaxPlans: 4000})
		if len(closure) >= 4000 {
			return false
		}
		m, root := explored(t, q, Options{})
		seen := map[containsKey]bool{}
		for _, p := range closure {
			if !m.contains(root, p, seen) {
				t.Fatalf("query %s\nclosure plan (of %d) missing from the memo (%d expressions):\n%s",
					q, len(closure), m.Exprs(), p)
			}
		}
		return true
	}
	for _, tc := range []struct {
		name string
		q    plan.Node
	}{{"query2", query2()}, {"Q4", q4()}, {"Q6", q6()}, {"Q6-simple", q6Simple()}, {"full-outer", fojChain()}} {
		t.Run(tc.name, func(t *testing.T) {
			if !check(t, tc.q) {
				t.Fatal("closure capped")
			}
		})
	}
	checked := 0
	for seed := int64(1); seed <= 100; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Simplified, as the optimizer's second seed is: a query
			// with a removable outer join hardly reorders as written.
			q, _ := datagen.RandomJoinQuery(rand.New(rand.NewSource(seed)))
			if !check(t, simplify.Simplify(q)) {
				t.Skip("closure capped")
			}
			checked++
		})
	}
	if checked < 50 {
		t.Errorf("only %d generated closures were small enough to check", checked)
	}
	// The seeds on which extraction once missed saturation's optimum
	// (while members of one group carried different cardinalities):
	// both of the optimizer's seeds (the query as written and
	// simplified) must hold their whole closure, saturation's winner
	// included.
	for _, seed := range []int64{18, 129, 131, 313} {
		seed := seed
		t.Run(fmt.Sprintf("gap-seed=%d", seed), func(t *testing.T) {
			q, _ := datagen.RandomJoinQuery(rand.New(rand.NewSource(seed)))
			if !check(t, q) || !check(t, simplify.Simplify(q)) {
				t.Fatal("closure capped")
			}
		})
	}
}

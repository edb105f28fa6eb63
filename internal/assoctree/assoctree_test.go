package assoctree

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/hypergraph"
	"repro/internal/plan"
)

// q4 is Example 3.2 / Figure 1 (see hypergraph tests).
func q4(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	p12 := expr.EqCols("r1", "x", "r2", "x")
	p24 := expr.EqCols("r2", "a", "r4", "a")
	p25 := expr.EqCols("r2", "b", "r5", "b")
	p45 := expr.EqCols("r4", "c", "r5", "c")
	p35 := expr.EqCols("r3", "d", "r5", "d")
	inner := plan.NewJoin(plan.InnerJoin, p35,
		plan.NewJoin(plan.InnerJoin, p45, plan.NewScan("r4"), plan.NewScan("r5")),
		plan.NewScan("r3"))
	mid := plan.NewJoin(plan.LeftJoin, expr.And(p24, p25), plan.NewScan("r2"), inner)
	h, err := hypergraph.FromPlan(plan.NewJoin(plan.LeftJoin, p12, plan.NewScan("r1"), mid))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func enum(t *testing.T, h *hypergraph.Hypergraph, mode hypergraph.ConnectMode) *Enumerator {
	t.Helper()
	e, err := NewEnumerator(h, mode)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestQ4StrictCount pins the [BHAR95a] baseline: without hyperedge
// break-up, Q4 admits exactly 7 association trees (r4 and r5 must be
// combined before r2 can join them through h2).
func TestQ4StrictCount(t *testing.T) {
	e := enum(t, q4(t), hypergraph.Strict)
	if got := e.Count(); got != 7 {
		t.Errorf("strict count = %d, want 7", got)
	}
	if got := len(e.Trees(0)); got != 7 {
		t.Errorf("strict trees = %d, want 7", got)
	}
}

// TestQ4BrokenWidensPlanSpace checks the paper's headline claim for
// Example 3.2: Definition 3.2 admits strictly more association trees
// than [BHAR95a], including the listed tree (r1.((r2.r4).(r5.r3)))
// where r2 meets r4 before r5 is available.
func TestQ4BrokenWidensPlanSpace(t *testing.T) {
	strict := enum(t, q4(t), hypergraph.Strict)
	broken := enum(t, q4(t), hypergraph.Broken)
	sc, bc := strict.Count(), broken.Count()
	if bc <= sc {
		t.Errorf("broken count %d should exceed strict count %d", bc, sc)
	}
	// Every strict tree remains valid under Definition 3.2.
	for _, tr := range strict.Trees(0) {
		if !broken.HasTree(tr) {
			t.Errorf("strict tree %s rejected by broken mode", tr)
		}
	}
}

// TestQ4ListedTrees checks the example trees the paper lists in
// Section 3 (after Definition 3.2).
func TestQ4ListedTrees(t *testing.T) {
	strict := enum(t, q4(t), hypergraph.Strict)
	broken := enum(t, q4(t), hypergraph.Broken)
	cases := []struct {
		tree           string
		strict, broken bool
	}{
		{"((r1.r2).((r4.r5).r3))", true, true},
		{"((r1.r2).(r4.(r5.r3)))", true, true}, // the paper's second listed tree
		{"(r1.((r2.r4).(r5.r3)))", false, true},
		{"(r1.((r2.r5).(r4.r3)))", false, false}, // see note below
		{"(r1.(r2.((r4.r5).r3)))", true, true},
	}
	for _, c := range cases {
		tr, err := ParseTree(c.tree)
		if err != nil {
			t.Fatalf("parse %q: %v", c.tree, err)
		}
		if got := strict.HasTree(tr); got != c.strict {
			t.Errorf("strict.HasTree(%s) = %v, want %v", c.tree, got, c.strict)
		}
		if got := broken.HasTree(tr); got != c.broken {
			t.Errorf("broken.HasTree(%s) = %v, want %v", c.tree, got, c.broken)
		}
	}
	// Note: the paper lists (r1.((r2.r5).(r4.r3))) as a valid tree,
	// but its subtree (r4.r3) has no hyperedge piece connecting r4
	// and r3, violating Definition 3.2 item 2 as literally stated.
	// We follow the formal definition; see DESIGN.md.
}

// TestChainCounts sanity-checks the enumerator on pure join chains,
// where the number of association trees of an n-relation chain query
// is known in closed form (1, 1, 3, 11, 45, …; OEIS A001700-adjacent
// counts of binary trees over intervals — for a chain with simple
// edges both modes agree).
func TestChainCounts(t *testing.T) {
	build := func(n int) *hypergraph.Hypergraph {
		var node plan.Node = plan.NewScan("r1")
		for i := 2; i <= n; i++ {
			p := expr.EqCols(relName(i-1), "a", relName(i), "a")
			node = plan.NewJoin(plan.InnerJoin, p, node, plan.NewScan(relName(i)))
		}
		h, err := hypergraph.FromPlan(node)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// Unordered binary trees over a chain of n relations where every
	// subtree is a contiguous interval: the Catalan numbers C(n-1).
	want := map[int]uint64{2: 1, 3: 2, 4: 5, 5: 14, 6: 42}
	for n, w := range want {
		for _, mode := range []hypergraph.ConnectMode{hypergraph.Strict, hypergraph.Broken} {
			e := enum(t, build(n), mode)
			if got := e.Count(); got != w {
				t.Errorf("chain(%d) mode %v count = %d, want %d", n, mode, got, w)
			}
		}
	}
}

func relName(i int) string {
	return "r" + string(rune('0'+i))
}

// TestStarCounts checks a star query (r1 joined to each of r2..rn):
// every tree must attach satellites to the component containing r1.
func TestStarCounts(t *testing.T) {
	build := func(n int) *hypergraph.Hypergraph {
		var node plan.Node = plan.NewScan("r1")
		for i := 2; i <= n; i++ {
			p := expr.EqCols("r1", "a", relName(i), "a")
			node = plan.NewJoin(plan.InnerJoin, p, node, plan.NewScan(relName(i)))
		}
		h, err := hypergraph.FromPlan(node)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// Star with k satellites: trees = k! (satellites attach in any
	// order, each combination is a fresh join with the center blob).
	want := map[int]uint64{2: 1, 3: 2, 4: 6, 5: 24}
	for n, w := range want {
		e := enum(t, build(n), hypergraph.Strict)
		if got := e.Count(); got != w {
			t.Errorf("star(%d) count = %d, want %d", n, got, w)
		}
	}
}

func TestParseTreeErrors(t *testing.T) {
	for _, bad := range []string{"", "(", "(r1.r2", "(r1 r2)", "(r1.r2))", "()", "(.r1)"} {
		if _, err := ParseTree(bad); err == nil {
			t.Errorf("ParseTree(%q) should fail", bad)
		}
	}
	tr, err := ParseTree("((r1.r2).((r4.r5).r3))")
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.String(); got != "((r1.r2).((r4.r5).r3))" {
		t.Errorf("round trip = %q", got)
	}
}

// TestTreesMatchesCount cross-checks materialization against the DP
// count on Q4 in both modes.
func TestTreesMatchesCount(t *testing.T) {
	for _, mode := range []hypergraph.ConnectMode{hypergraph.Strict, hypergraph.Broken} {
		e := enum(t, q4(t), mode)
		if got, want := uint64(len(e.Trees(0))), e.Count(); got != want {
			t.Errorf("mode %v: %d materialized trees, count says %d", mode, got, want)
		}
		// All materialized trees are valid per HasTree and distinct.
		seen := map[string]bool{}
		for _, tr := range e.Trees(0) {
			if !e.HasTree(tr) {
				t.Errorf("mode %v: enumerated tree %s fails HasTree", mode, tr)
			}
			if seen[tr.String()] {
				t.Errorf("mode %v: duplicate tree %s", mode, tr)
			}
			seen[tr.String()] = true
		}
	}
}

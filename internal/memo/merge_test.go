package memo

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/stats"
)

// chainSQL is an inner chain over r1..rn joined x, y, x, ... in turn,
// with an optional extra conjunct.
func chainSQL(n int, extra string) string {
	q := "select r1.x from r1"
	for i := 2; i <= n; i++ {
		q += ", r" + string(rune('0'+i))
	}
	for i := 1; i < n; i++ {
		col := "x"
		if i%2 == 0 {
			col = "y"
		}
		sep := " and "
		if i == 1 {
			sep = " where "
		}
		q += sep + "r" + string(rune('0'+i)) + "." + col + " = r" + string(rune('0'+i+1)) + "." + col
	}
	if extra != "" {
		q += " and " + extra
	}
	return q
}

// TestMergeBoundsInnerChains: with equivalent groups merged, an inner
// chain explores to fixpoint in a memo the size of its plan space —
// before, the inner 5-chain admitted 1 878 expressions and the inner
// 7-chain with a selection stopped at Optimize's 20 000-expression cap.
// An n-chain has n(n+1)/2 connected subgraphs, and the groups stay
// within four per subgraph.
func TestMergeBoundsInnerChains(t *testing.T) {
	db := datagen.Chain(7, datagen.UniformConfig{Rows: 300, Domain: 150, NullFrac: 0.05}, 1996)
	for _, tc := range []struct {
		name              string
		sql               string
		maxExprs, maxGrps int
	}{
		{"inner5", chainSQL(5, ""), 200, 4 * 15},
		{"inner7_sel", chainSQL(7, "r1.y < 50"), 400, 4 * 28},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stmt, err := sql.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			q, err := sql.Lower(stmt, db)
			if err != nil {
				t.Fatal(err)
			}
			m, _, _ := optimizeMemo(t, q, db, 20000)
			t.Logf("%s: %d expressions, %d groups", tc.name, m.Exprs(), m.Groups())
			if m.Capped() {
				t.Fatalf("capped (%s) at %d expressions", m.CappedReason(), m.Exprs())
			}
			if m.Exprs() > tc.maxExprs || m.Groups() > tc.maxGrps {
				t.Errorf("%d expressions in %d groups, want at most %d in %d", m.Exprs(), m.Groups(), tc.maxExprs, tc.maxGrps)
			}
		})
	}
}

// TestMergeCascadesAndDrops drives a merge by hand. Two spellings of
// (r1 ⋈ r2) ⋈ r3 seed separate groups for r1 ⋈ r2 and r2 ⋈ r1 and for
// the two roots, and the first root also holds r3 ⋈ (r1 ⋈ r2) and
// r3 ⋈ (r2 ⋈ r1). Admitting r2 ⋈ r1 to the r1 ⋈ r2 group merges the
// two; re-keying then finds the second root's only expression already
// in the first root (a duplicate of another group: dropped, and the
// roots merge in cascade) and r3 ⋈ (r2 ⋈ r1) a duplicate within its
// own group (dropped). Extraction over the merged memo returns a plan
// with the query's result.
func TestMergeCascadesAndDrops(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := New(Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	j := func(l, r plan.Node) plan.Node { return plan.NewJoin(plan.InnerJoin, eqX("r1", "r2"), l, r) }
	top := func(l, r plan.Node) plan.Node { return plan.NewJoin(plan.InnerJoin, eqY("r2", "r3"), l, r) }
	q := top(j(scan("r1"), scan("r2")), scan("r3"))
	plan.IndexRelations(q)
	root := m.Add(q)
	j12 := m.Add(q.(*plan.Join).L)
	other := m.Add(top(j(scan("r2"), scan("r1")), scan("r3")))
	j21 := m.Add(j(scan("r2"), scan("r1")))
	if m.Groups() != 7 || j12 == j21 || root == other {
		t.Fatalf("seeded %d groups (r1⋈r2 %d, r2⋈r1 %d, roots %d, %d), want 7 distinct", m.Groups(), j12, j21, root, other)
	}
	for _, n := range []plan.Node{top(scan("r3"), j(scan("r1"), scan("r2"))), top(scan("r3"), j(scan("r2"), scan("r1")))} {
		if !m.addResult(root, n, nil, -1) {
			t.Fatalf("%s was not admitted", n)
		}
	}
	exprs := m.Exprs()
	if m.addResult(j12, j(scan("r2"), scan("r1")), nil, -1) {
		t.Fatal("a shape held by another group was admitted again")
	}
	if m.Exprs() != exprs {
		t.Errorf("the merge admitted %d expressions", m.Exprs()-exprs)
	}
	if m.find(j21) != j12 || m.find(other) != root {
		t.Errorf("r2⋈r1 resolves to %d, want %d; the second root to %d, want %d", m.find(j21), j12, m.find(other), root)
	}
	if m.Groups() != 5 || reg.Counter("memo.merges").Value() != 2 {
		t.Errorf("%d groups after %d merges, want 5 after 2", m.Groups(), reg.Counter("memo.merges").Value())
	}
	live := func(gid GroupID) (n int) {
		seen := map[shape]bool{}
		for _, eid := range m.groups[m.find(gid)].exprs {
			if e := m.exprs[eid]; !e.dead {
				if seen[e.shape] {
					t.Errorf("group %d holds %v twice", gid, e.shape)
				}
				seen[e.shape] = true
				n++
			}
		}
		return n
	}
	if n := live(j12); n != 2 {
		t.Errorf("the r1⋈r2 group has %d live expressions, want 2", n)
	}
	// Its seed, r3 ⋈ (r1 ⋈ r2) and nothing of the dropped two.
	if n := live(root); n != 2 {
		t.Errorf("the root group has %d live expressions, want 2", n)
	}
	dead := 0
	for _, e := range m.exprs {
		if e.dead {
			dead++
		}
		if g := m.find(m.owner[e.shape]); !e.dead && g != e.group {
			t.Errorf("expression %d of group %d: its shape resolves to group %d", e.id, e.group, g)
		}
	}
	if dead != 2 {
		t.Errorf("%d expressions dropped, want 2", dead)
	}

	db := datagen.Chain(3, datagen.UniformConfig{Rows: 40, Domain: 8}, 7)
	best, err := m.Extract([]GroupID{root, other}, stats.NewEstimator(stats.FromDatabase(db)).NewSession(nil))
	if err != nil {
		t.Fatal(err)
	}
	if best.Group != root {
		t.Errorf("winner from group %d, want %d", best.Group, root)
	}
	want, err := q.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := best.Plan.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsMultisets(want) {
		t.Errorf("winner %s returns %d rows, the query %d", best.Plan, got.Len(), want.Len())
	}
	if _, ok, err := m.Price(other, plan.Node(top(j(scan("r2"), scan("r1")), scan("r3"))), stats.NewEstimator(stats.FromDatabase(db)).NewSession(nil)); err != nil || !ok {
		t.Errorf("the second root's tree is no member of its merged group (ok %v, err %v)", ok, err)
	}
}

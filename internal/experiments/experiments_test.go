package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/assoctree"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update-experiments-golden", false, "rewrite testdata/experiments.golden from this run")

// reports memoizes Run per experiment id, so the smoke test and the
// golden test run each experiment once between them.
var reports sync.Map // id → *report

type report struct {
	once sync.Once
	out  string
	err  error
}

func runReport(id string) (string, error) {
	v, _ := reports.LoadOrStore(id, &report{})
	r := v.(*report)
	r.once.Do(func() { r.out, r.err = Run(id) })
	return r.out, r.err
}

// TestAllExperimentsRun smoke-tests every experiment report; each
// must produce non-trivial output and no embedded error text.
func TestAllExperimentsRun(t *testing.T) {
	for _, id := range All {
		if testing.Short() && (id == "e7" || id == "e8" || id == "e13" || id == "e14") {
			continue
		}
		out, err := runReport(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 80 {
			t.Errorf("%s: suspiciously short output:\n%s", id, out)
		}
		if strings.Contains(out, "bug") && !strings.Contains(out, "count bug") {
			t.Errorf("%s: report contains a failure marker:\n%s", id, out)
		}
	}
	if _, err := Run("nosuch"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

var (
	// durationRE matches a printed time.Duration ("252µs",
	// "3.868048864s", "1m2.5s").
	durationRE = regexp.MustCompile(`\b(?:\d+(?:\.\d+)?(?:ns|µs|us|ms|s|m|h))+\b`)
	// ratioRE matches a speedup ("5.35x") or a share ("10.8%").
	ratioRE  = regexp.MustCompile(`\b\d+(?:\.\d+)?(?:x\b|%)`)
	spacesRE = regexp.MustCompile(` {2,}`)
)

// maskTimings replaces the run-to-run varying figures of a report:
// every duration, and on a line that prints one, every ratio (the
// speedups and phase shares derived from those durations). Past its
// indentation, a masked line's runs of spaces collapse to one, since
// column padding follows the width of the figures it masks.
func maskTimings(report string) string {
	lines := strings.Split(report, "\n")
	for i, l := range lines {
		if !durationRE.MatchString(l) {
			continue
		}
		body := strings.TrimLeft(l, " ")
		body = durationRE.ReplaceAllString(body, "<dur>")
		body = ratioRE.ReplaceAllString(body, "<ratio>")
		lines[i] = l[:len(l)-len(strings.TrimLeft(l, " "))] + spacesRE.ReplaceAllString(body, " ")
	}
	return strings.Join(lines, "\n")
}

// TestExperimentsGolden diffs every experiment's report, as
// cmd/experiments prints them, against testdata/experiments.golden
// with timings masked: plan counts, costs, cardinalities, plans and
// counters are deterministic, so any change to them shows here. Run
// with -update-experiments-golden to rewrite the file after an
// intended change.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var b strings.Builder
	for _, id := range All {
		out, err := runReport(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b.WriteString(out + "\n" + strings.Repeat("=", 78) + "\n")
	}
	got := maskTimings(b.String())
	path := filepath.Join("testdata", "experiments.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-experiments-golden to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("experiments.golden differs at line %d:\n got: %q\nwant: %q\n(run with -update-experiments-golden after an intended change)", i+1, g, w)
		}
	}
}

// TestE4AllIdentitiesHold pins that the E4 report shows zero failures.
func TestE4AllIdentitiesHold(t *testing.T) {
	out := e4()
	if strings.Contains(out, " 199/200") || !strings.Contains(out, "200/200") {
		t.Errorf("identity failures reported:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "trials equal") && !strings.Contains(line, "200/200") {
			t.Errorf("identity line with failures: %s", line)
		}
	}
}

// TestE11NoFailures pins zero subsumption failures.
func TestE11NoFailures(t *testing.T) {
	out := e11()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "failures") && !strings.Contains(line, " 0 failures") {
			t.Errorf("subsumption failures: %s", line)
		}
	}
}

// TestE14OptimizerFindsJoinFirst pins the Query 1 headline: with a
// highly filtering r4, the chosen plan joins r4 below the
// aggregation, and it is equivalent to the query as written.
func TestE14OptimizerFindsJoinFirst(t *testing.T) {
	q := query1()
	db := query1DB(2)
	est := stats.NewEstimator(stats.FromDatabase(db))
	res, err := optimizer.New(est).Optimize(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost >= res.Original.Cost {
		t.Errorf("expected a strict win: best %.0f vs original %.0f", res.Best.Cost, res.Original.Cost)
	}
	// The winning plan's aggregation must sit above the r4 join.
	found := false
	plan.Walk(res.Best.Plan, func(n plan.Node) {
		if gb, ok := n.(*plan.GroupBy); ok {
			rels := plan.BaseRelSet(gb.Input)
			if rels["r4"] {
				found = true
			}
		}
	})
	if !found {
		t.Errorf("chosen plan does not aggregate after the r4 join:\n%s", plan.Indent(res.Best.Plan))
	}
	ok, err := plan.Equivalent(q, res.Best.Plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("chosen plan not equivalent")
	}
}

// TestE14FullNoCostlierThanBaseline: at every |r4| E14 sweeps, the
// full optimizer's best plan costs no more than the baseline
// optimizer's. BaselineRules is a subset of DefaultRules
// (TestBaselineRulesSubset), so the full optimizer's class holds every
// plan the baseline's does.
func TestE14FullNoCostlierThanBaseline(t *testing.T) {
	q := query1()
	for _, r4Rows := range e14Sizes {
		db := query1DB(r4Rows)
		est := stats.NewEstimator(stats.FromDatabase(db))
		full, err := optimizer.New(est).Optimize(q, db)
		if err != nil {
			t.Fatal(err)
		}
		base, err := optimizer.NewBaseline(est).Optimize(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if full.Best.Cost > base.Best.Cost {
			t.Errorf("|r4|=%d: full optimizer's best costs %.0f, the baseline's %.0f\nfull:     %s\nbaseline: %s",
				r4Rows, full.Best.Cost, base.Best.Cost, full.Best.Plan, base.Best.Plan)
		}
	}
}

// foldTree renders an association tree with each node's operands in
// lexical order, the commutation folding core.JoinOrders applies to
// plans, so the two spaces compare as sets of strings.
func foldTree(t *assoctree.Tree) string {
	if t.IsLeaf() {
		return t.Leaf
	}
	l, r := foldTree(t.L), foldTree(t.R)
	if l > r {
		l, r = r, l
	}
	return "(" + l + "." + r + ")"
}

// TestPlanSpaceMatchesAssociationTrees ties Definition 3.2 to the
// optimizer's rule sets: the join orders of the closure core.Saturate
// reaches under DefaultRules are exactly the association trees of the
// broken hypergraph, and under BaselineRules a subset of the strict
// ([BHAR95a]) trees whose misses are pinned by name. The memo holds
// that closure (TestMemoHoldsSaturationClosure in internal/memo), so
// the production optimizer covers the paper's plan space. The counts
// are the figures EXPERIMENTS.md cites: E3's 7 and 25 trees of Q4,
// and E9's one join order of Query 2 without GS and three with it.
func TestPlanSpaceMatchesAssociationTrees(t *testing.T) {
	for _, tc := range []struct {
		name   string
		q      plan.Node
		rules  []core.Rule
		mode   hypergraph.ConnectMode
		trees  int
		orders int
		// missed lists the trees the closure does not reach.
		missed []string
	}{
		{"Q4/default", Q4(), core.DefaultRules(), hypergraph.Broken, 25, 25, nil},
		{"Query2/default", Query2(), core.DefaultRules(), hypergraph.Broken, 3, 3, nil},
		// Each missed tree joins r3 after r2's left outer join has
		// combined r2 with r4.r5. Q4 holds r2 →p (r45 ⋈p35 r3), and
		// A →p (B ⋈q C) has no plain reassociation that pulls C out
		// while keeping A's rows preserved: it becomes
		// (A →p B) MGOJ_q[A] C, [BHAR95a]'s MGOJ, which BaselineRules
		// leaves out. The last subtest adds MGOJ introduction back and
		// reaches all seven.
		{"Q4/baseline", Q4(), core.BaselineRules(), hypergraph.Strict, 7, 4, []string{
			"((((r4.r5).r2).r1).r3)",
			"((((r4.r5).r2).r3).r1)",
			"(((r1.r2).(r4.r5)).r3)",
		}},
		{"Query2/baseline", Query2(), core.BaselineRules(), hypergraph.Strict, 1, 1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, err := hypergraph.FromPlan(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			e, err := assoctree.NewEnumerator(h, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			if got := e.Count(); got != uint64(tc.trees) {
				t.Fatalf("%d association trees, want %d", got, tc.trees)
			}
			trees := map[string]bool{}
			for _, tr := range e.Trees(0) {
				trees[foldTree(tr)] = true
			}
			if len(trees) != tc.trees {
				t.Fatalf("%d trees after commutation folding, want %d", len(trees), tc.trees)
			}
			orders := core.JoinOrders(core.Saturate(tc.q, core.SaturateOptions{Rules: tc.rules}))
			if len(orders) != tc.orders {
				t.Errorf("closure reaches %d join orders, want %d: %v", len(orders), tc.orders, orders)
			}
			reached := map[string]bool{}
			for _, o := range orders {
				if !trees[o] {
					t.Errorf("closure reaches %s, which is no association tree", o)
				}
				reached[o] = true
			}
			var missed []string
			for tr := range trees {
				if !reached[tr] {
					missed = append(missed, tr)
				}
			}
			slices.Sort(missed)
			if !slices.Equal(missed, tc.missed) {
				t.Errorf("closure misses %v, want %v", missed, tc.missed)
			}
		})
	}
	t.Run("Q4/baseline+MGOJ", func(t *testing.T) {
		var rules []core.Rule // BaselineRules plus mgoj-intro
		for _, r := range core.DefaultRules() {
			if r.Name != "split" {
				rules = append(rules, r)
			}
		}
		if n := len(core.JoinOrders(core.Saturate(Q4(), core.SaturateOptions{Rules: rules}))); n != 7 {
			t.Errorf("BaselineRules plus MGOJ introduction reach %d join orders of Q4, want all 7 strict trees", n)
		}
	})
}

// Package experiments regenerates every table, figure and worked
// example of the paper (the per-experiment index E1–E12 in
// DESIGN.md). Each experiment returns a plain-text report; the
// cmd/experiments binary prints them and the root benchmarks measure
// the competing plans' execution times.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/assoctree"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/hypergraph"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/simplify"
	"repro/internal/stats"
	"repro/internal/value"
)

// All lists the experiment ids in order.
var All = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15"}

// Run dispatches one experiment by id.
func Run(id string) (string, error) {
	switch strings.ToLower(id) {
	case "e1":
		return e1(), nil
	case "e2":
		return e2(), nil
	case "e3":
		return e3(), nil
	case "e4":
		return e4(), nil
	case "e5":
		return e5(), nil
	case "e6":
		return e6(), nil
	case "e7":
		return e7(defaultE7Config()), nil
	case "e8":
		return e8(DefaultE8Config()), nil
	case "e9":
		return e9(), nil
	case "e10":
		return e10(), nil
	case "e11":
		return e11(), nil
	case "e12":
		return e12(), nil
	case "e13":
		return e13(), nil
	case "e14":
		return e14(), nil
	case "e15":
		return e15(), nil
	default:
		return "", fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(All, ", "))
	}
}

// --- E1: Example 2.1 — tables T1, T2 and the GS compensation -------

// example21Plans returns the three plans of Example 2.1: T1 (the
// query as written), T2 (complex predicate broken off) and the
// GS-compensated T2.
func example21Plans() (t1, t2, compensated plan.Node) {
	p12 := expr.EqCols("r1", "c", "r2", "c")
	p13 := expr.EqCols("r1", "f", "r3", "f")
	p23 := expr.EqCols("r2", "e", "r3", "e")
	inner := plan.NewJoin(plan.LeftJoin, p12, plan.NewScan("r1"), plan.NewScan("r2"))
	t1 = plan.NewJoin(plan.LeftJoin, expr.And(p13, p23), inner, plan.NewScan("r3"))
	t2 = plan.NewJoin(plan.LeftJoin, p23, inner, plan.NewScan("r3"))
	compensated = plan.NewGenSel(p13, []plan.PreservedSpec{plan.NewPreserved("r1", "r2")}, t2)
	return
}

// e1 prints Example 2.1's input relations, T1, T2, and verifies
// σ*_{p13}[r1r2](T2) = T1.
func e1() string {
	db := datagen.Example21()
	t1p, t2p, comp := example21Plans()
	var b strings.Builder
	b.WriteString("E1 — Example 2.1: generalized selection compensates a broken-up complex predicate\n\n")
	for _, name := range []string{"r1", "r2", "r3"} {
		fmt.Fprintf(&b, "%s:\n%s\n", name, db[name])
	}
	t1, _ := executor.Run(t1p, db)
	t2, _ := executor.Run(t2p, db)
	got, _ := executor.Run(comp, db)
	t1.SortForDisplay()
	t2.SortForDisplay()
	got.SortForDisplay()
	fmt.Fprintf(&b, "T1 = (r1 -> r2) ->[p13 and p23] r3:\n%s\n", t1)
	fmt.Fprintf(&b, "T2 = (r1 -> r2) ->[p23] r3:\n%s\n", t2)
	fmt.Fprintf(&b, "GS[p13; r1r2](T2):\n%s\n", got)
	fmt.Fprintf(&b, "GS[p13; r1r2](T2) == T1: %v   (paper: they are equal)\n", got.EqualAsSets(t1))
	return b.String()
}

// --- E2: Figure 1 — the hypergraph of Q4 ---------------------------

// Q4 builds the query of Example 3.2 / Figure 1.
func Q4() plan.Node {
	p12 := expr.EqCols("r1", "x", "r2", "x")
	p24 := expr.EqCols("r2", "a", "r4", "a")
	p25 := expr.EqCols("r2", "b", "r5", "b")
	p45 := expr.EqCols("r4", "c", "r5", "c")
	p35 := expr.EqCols("r3", "d", "r5", "d")
	inner := plan.NewJoin(plan.InnerJoin, p35,
		plan.NewJoin(plan.InnerJoin, p45, plan.NewScan("r4"), plan.NewScan("r5")),
		plan.NewScan("r3"))
	mid := plan.NewJoin(plan.LeftJoin, expr.And(p24, p25), plan.NewScan("r2"), inner)
	return plan.NewJoin(plan.LeftJoin, p12, plan.NewScan("r1"), mid)
}

// e2 prints Figure 1's hypergraph with preserved and conflict sets.
func e2() string {
	h, err := hypergraph.FromPlan(Q4())
	if err != nil {
		return err.Error()
	}
	var b strings.Builder
	b.WriteString("E2 — Figure 1: hypergraph of Q4 with preserved/conflict sets\n\n")
	b.WriteString(h.String())
	fmt.Fprintf(&b, "acyclic: %v\n\n", h.IsAcyclic())
	for _, e := range h.Edges {
		if e.Kind != hypergraph.Undirected {
			fmt.Fprintf(&b, "pres(h%d) = %v\n", e.ID, h.Pres(e))
		}
		fmt.Fprintf(&b, "conf(h%d) = %s\n", e.ID, edgeIDs(h.Conf(e)))
		if e.Kind == hypergraph.Undirected {
			fmt.Fprintf(&b, "ccoj(h%d) = %s\n", e.ID, edgeIDs(h.CCOJ(e)))
		}
	}
	return b.String()
}

func edgeIDs(edges []*hypergraph.Hyperedge) string {
	if len(edges) == 0 {
		return "{}"
	}
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = fmt.Sprintf("h%d", e.ID)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// --- E3: association-tree counts under Definition 3.2 --------------

// e3 compares the association-tree space of Q4 with and without
// hyperedge break-up and lists the paper's example trees.
func e3() string {
	h, err := hypergraph.FromPlan(Q4())
	if err != nil {
		return err.Error()
	}
	strict, _ := assoctree.NewEnumerator(h, hypergraph.Strict)
	broken, _ := assoctree.NewEnumerator(h, hypergraph.Broken)
	var b strings.Builder
	b.WriteString("E3 — association trees of Q4 (Example 3.2)\n\n")
	fmt.Fprintf(&b, "[BHAR95a] baseline (no break-up):  %d trees\n", strict.Count())
	fmt.Fprintf(&b, "Definition 3.2 (with break-up):    %d trees\n\n", broken.Count())
	b.WriteString("paper's listed trees:\n")
	for _, s := range []string{
		"((r1.r2).((r4.r5).r3))",
		"((r1.r2).(r4.(r5.r3)))",
		"(r1.((r2.r4).(r5.r3)))",
		"(r1.((r2.r5).(r4.r3)))",
	} {
		tr, err := assoctree.ParseTree(s)
		if err != nil {
			return err.Error()
		}
		fmt.Fprintf(&b, "  %-28s strict=%-5v broken=%v\n", s, strict.HasTree(tr), broken.HasTree(tr))
	}
	b.WriteString("\n(the last listed tree violates Definition 3.2 item 2 as stated; see DESIGN.md)\n")
	b.WriteString("\nall Definition 3.2 trees:\n")
	for _, tr := range broken.Trees(0) {
		fmt.Fprintf(&b, "  %s\n", tr)
	}
	return b.String()
}

// --- E4: identities (1)–(8) on randomized databases ----------------

// e4 verifies each association identity by execution.
func e4() string {
	rng := rand.New(rand.NewSource(4))
	scan := plan.NewScan
	eqX := func(a, c string) expr.Pred { return expr.EqCols(a, "x", c, "x") }
	eqY := func(a, c string) expr.Pred { return expr.EqCols(a, "y", c, "y") }
	type identity struct {
		name string
		mk   func() (plan.Node, plan.Node)
	}
	ids := []identity{
		{"(1) LOJ at root", func() (plan.Node, plan.Node) {
			return core.Identity1(scan("r1"), scan("r2"), eqY("r1", "r2"), eqX("r1", "r2"))
		}},
		{"(2) FOJ at root", func() (plan.Node, plan.Node) {
			return core.Identity2(scan("r1"), scan("r2"), eqY("r1", "r2"), eqX("r1", "r2"))
		}},
		{"(3) LOJ over pair", func() (plan.Node, plan.Node) {
			return core.Identity3(plan.InnerJoin, scan("r1"), scan("r2"), scan("r3"),
				eqX("r1", "r2"), eqY("r1", "r3"), eqX("r2", "r3"))
		}},
		{"(4) FOJ over pair", func() (plan.Node, plan.Node) {
			return core.Identity4(plan.LeftJoin, scan("r1"), scan("r2"), scan("r3"),
				eqX("r1", "r2"), eqY("r1", "r3"), eqX("r2", "r3"))
		}},
		{"(5) join under LOJ", func() (plan.Node, plan.Node) {
			return core.Identity5(scan("r1"), scan("r2"), scan("r3"),
				eqX("r1", "r2"), eqY("r2", "r3"), eqX("r2", "r3"))
		}},
		{"(6) join under FOJ (corrected)", func() (plan.Node, plan.Node) {
			return core.Identity6(scan("r1"), scan("r2"), scan("r3"),
				eqX("r1", "r2"), eqY("r2", "r3"), eqX("r2", "r3"))
		}},
		{"(7) ROJ under FOJ", func() (plan.Node, plan.Node) {
			return core.Identity7(scan("r1"), scan("r2"), scan("r3"),
				eqX("r1", "r2"), eqY("r2", "r3"), eqX("r2", "r3"))
		}},
		{"(8) join+ROJ under FOJ", func() (plan.Node, plan.Node) {
			return core.Identity8(scan("r1"), scan("r2"), scan("r3"), scan("r4"),
				eqX("r1", "r2"), eqY("r2", "r3"), eqX("r2", "r3"), eqX("r2", "r4"))
		}},
	}
	var b strings.Builder
	b.WriteString("E4 — association identities (1)-(8), verified by execution on 200 random databases\n\n")
	for _, id := range ids {
		trials, fails := 200, 0
		for i := 0; i < trials; i++ {
			db := randDB(rng, 5, 3, "r1", "r2", "r3", "r4")
			lhs, rhs := id.mk()
			ok, err := plan.Equivalent(lhs, rhs, db)
			if err != nil || !ok {
				fails++
			}
		}
		fmt.Fprintf(&b, "identity %-32s %d/%d trials equal\n", id.name, trials-fails, trials)
	}
	return b.String()
}

func randDB(rng *rand.Rand, maxRows, domain int, rels ...string) plan.Database {
	db := make(plan.Database, len(rels))
	for _, name := range rels {
		bld := relation.NewBuilder(name, "x", "y")
		n := rng.Intn(maxRows + 1)
		for i := 0; i < n; i++ {
			vals := make([]value.Value, 2)
			for j := range vals {
				if rng.Intn(8) == 0 {
					vals[j] = value.Null
				} else {
					vals[j] = value.NewInt(int64(rng.Intn(domain)))
				}
			}
			bld.Row(vals...)
		}
		db[name] = bld.Relation()
	}
	return db
}

// --- E5: Theorem 1 compensation specs -------------------------------

// e5 prints the Theorem 1 preserved lists for representative edges.
func e5() string {
	var b strings.Builder
	b.WriteString("E5 — Theorem 1: generalized-selection compensation per edge kind\n\n")
	show := func(desc string, q plan.Node, pick func(h *hypergraph.Hypergraph) *hypergraph.Hyperedge) {
		h, err := hypergraph.FromPlan(q)
		if err != nil {
			fmt.Fprintf(&b, "%s: %v\n", desc, err)
			return
		}
		e := pick(h)
		specs := core.CompensationSpecs(h, e)
		parts := make([]string, len(specs))
		for i, s := range specs {
			parts[i] = s.String()
		}
		fmt.Fprintf(&b, "%-46s edge %-24s specs [%s]\n", desc, fmt.Sprintf("h%d (%s)", e.ID, e.Kind), strings.Join(parts, ", "))
	}
	eqX := func(a, c string) expr.Pred { return expr.EqCols(a, "x", c, "x") }
	eqY := func(a, c string) expr.Pred { return expr.EqCols(a, "y", c, "y") }
	// Directed complex edge (Q4's h2): pres = {r1, r2}.
	show("Q4: break h2 (directed, complex)", Q4(), func(h *hypergraph.Hypergraph) *hypergraph.Hyperedge {
		for _, e := range h.Edges {
			if e.Complex() {
				return e
			}
		}
		return h.Edges[0]
	})
	// FOJ at root (identity 2 shape).
	foj := plan.NewJoin(plan.FullJoin, expr.And(eqX("r1", "r2"), eqY("r1", "r2")),
		plan.NewScan("r1"), plan.NewScan("r2"))
	show("r1 FOJ r2 (bi-directed at root)", foj, func(h *hypergraph.Hypergraph) *hypergraph.Hyperedge {
		return h.Edges[0]
	})
	// Join under a FOJ (identity 6 shape).
	i6 := plan.NewJoin(plan.FullJoin, eqX("r1", "r2"), plan.NewScan("r1"),
		plan.NewJoin(plan.InnerJoin, expr.And(eqX("r2", "r3"), eqY("r2", "r3")),
			plan.NewScan("r2"), plan.NewScan("r3")))
	show("join under FOJ (identity 6 shape)", i6, func(h *hypergraph.Hypergraph) *hypergraph.Hyperedge {
		for _, e := range h.Edges {
			if e.Kind == hypergraph.Undirected {
				return e
			}
		}
		return h.Edges[0]
	})
	// ROJ under FOJ (identity 7 shape).
	i7 := plan.NewJoin(plan.FullJoin, eqX("r1", "r2"), plan.NewScan("r1"),
		plan.NewJoin(plan.RightJoin, expr.And(eqX("r2", "r3"), eqY("r2", "r3")),
			plan.NewScan("r2"), plan.NewScan("r3")))
	show("ROJ under FOJ (identity 7 shape)", i7, func(h *hypergraph.Hypergraph) *hypergraph.Hyperedge {
		for _, e := range h.Edges {
			if e.Kind == hypergraph.Directed {
				return e
			}
		}
		return h.Edges[0]
	})
	return b.String()
}

// --- E6: Q5 / Q6 recursive splitting --------------------------------

// e6 prints the recursive double-splits of Q5 and Q6 and their
// execution-verified equivalence.
func e6() string {
	var b strings.Builder
	b.WriteString("E6 — recursive splitting of multiple complex predicates (Q5, Q6)\n\n")
	rng := rand.New(rand.NewSource(6))

	eqX := func(a, c string) expr.Pred { return expr.EqCols(a, "x", c, "x") }
	eqY := func(a, c string) expr.Pred { return expr.EqCols(a, "y", c, "y") }
	q6 := plan.NewJoin(plan.FullJoin, expr.And(eqX("r1", "r2"), eqY("r1", "r4")),
		plan.NewScan("r1"),
		plan.NewJoin(plan.LeftJoin, expr.And(eqX("r2", "r3"), eqY("r2", "r4")),
			plan.NewScan("r2"),
			plan.NewJoin(plan.LeftJoin, eqX("r3", "r4"), plan.NewScan("r3"), plan.NewScan("r4"))))
	// Q6 as printed is not simple (its inner outer join is removable
	// by null rejection); the machinery requires the simplified,
	// equivalent form.
	q6 = simplify.Simplify(q6).(*plan.Join)

	var q6Node plan.Node = q6
	top := q6
	for outer := 0; outer < 2; outer++ {
		first, err := core.DeferConjuncts(q6Node, top, []int{outer})
		if err != nil {
			fmt.Fprintf(&b, "outer split %d: %v\n", outer, err)
			continue
		}
		gs := first.(*plan.GenSel)
		var inner *plan.Join
		plan.Walk(gs.Input, func(n plan.Node) {
			if j, ok := n.(*plan.Join); ok && len(expr.Conjuncts(j.Pred)) == 2 {
				inner = j
			}
		})
		for innerIdx := 0; innerIdx < 2; innerIdx++ {
			second, err := core.DeferConjuncts(gs.Input, inner, []int{innerIdx})
			if err != nil {
				fmt.Fprintf(&b, "inner split: %v\n", err)
				continue
			}
			full := first.WithChildren([]plan.Node{second})
			equal := true
			for trial := 0; trial < 40; trial++ {
				db := randDB(rng, 4, 3, "r1", "r2", "r3", "r4")
				ok, err := plan.Equivalent(q6Node, full, db)
				if err != nil || !ok {
					equal = false
				}
			}
			fmt.Fprintf(&b, "Q6 split outer=%d inner=%d: %s\n  equivalent on 40 random databases: %v\n",
				outer, innerIdx, full, equal)
		}
	}
	// Dependent-predicate rule: the inner predicate cannot be broken
	// first.
	var innerJoin *plan.Join
	plan.Walk(q6Node, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && j.Kind == plan.LeftJoin && len(expr.Conjuncts(j.Pred)) == 2 {
			innerJoin = j
		}
	})
	if _, err := core.DeferConjuncts(q6Node, innerJoin, []int{0}); err != nil {
		fmt.Fprintf(&b, "\nbreaking the dependent (inner) predicate first is rejected:\n  %v\n", err)
	}
	return b.String()
}

// --- E7: Example 1.1 — supplier audit cost crossover ----------------

// e7Config parameterizes the supplier experiment.
type e7Config struct {
	Base          datagen.SupplierConfig
	BankruptSweep []float64
}

// defaultE7Config sweeps the BANKRUPT selectivity.
func defaultE7Config() e7Config {
	return e7Config{
		Base:          datagen.DefaultSupplierConfig,
		BankruptSweep: []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1.0},
	}
}

// E7Plans returns the Example 1.1 query as written and its
// aggregation-pulled-up reordering for the given database.
func E7Plans(db plan.Database) (asWritten, reordered plan.Node, err error) {
	asWritten = datagen.SupplierQuery()
	reordered, err = core.PushUpGroupBy(asWritten.(*plan.Join), db)
	return
}

// e7 sweeps the fraction of BANKRUPT suppliers and reports, for each
// point, the estimated cost and measured execution time of the plan
// as written (aggregate 95DETAIL first) and of the reordered plan
// (join first, aggregate last). The paper's claim: with few bankrupt
// suppliers the reordering wins; as the filter admits everything the
// advantage shrinks.
func e7(cfg e7Config) string {
	var b strings.Builder
	b.WriteString("E7 — Example 1.1: supplier audit, aggregate-first vs join-first\n\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %12s %8s\n",
		"bankrupt", "cost(asis)", "cost(reord)", "time(asis)", "time(reord)", "speedup")
	for _, frac := range cfg.BankruptSweep {
		c := cfg.Base
		c.BankruptFrac = frac
		db := datagen.Supplier(c)
		asWritten, reordered, err := E7Plans(db)
		if err != nil {
			return err.Error()
		}
		est := stats.NewEstimator(stats.FromDatabase(db))
		costA, _ := est.PlanCost(asWritten)
		costR, _ := est.PlanCost(reordered)
		timeA := timeRun(asWritten, db)
		timeR := timeRun(reordered, db)
		ra, _ := executor.Run(asWritten, db)
		rr, _ := executor.Run(reordered, db)
		if !ra.EqualAsSets(rr) {
			return "E7: plans disagree — reordering bug"
		}
		fmt.Fprintf(&b, "%-10.2f %12.0f %12.0f %12s %12s %7.2fx\n",
			frac, costA, costR, timeA, timeR, float64(timeA)/float64(timeR))
	}
	b.WriteString("\n(speedup > 1 means the paper's reordering wins; the advantage shrinks as the filter admits more suppliers)\n")
	return b.String()
}

func timeRun(p plan.Node, db plan.Database) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := executor.Run(p, db); err != nil {
			return 0
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// --- E8: unnesting vs tuple iteration semantics ---------------------

// E8Config sizes the join-aggregate experiment.
type E8Config struct {
	Sizes []int // |r1| sweep
	R2    int
	R3    int
	Seed  int64
}

// DefaultE8Config sweeps the outer relation size.
func DefaultE8Config() E8Config {
	return E8Config{Sizes: []int{50, 100, 200, 400, 800}, Seed: 8}
}

// E8Query builds the Section 1.1 join-aggregate query.
func E8Query() *core.JoinAggregateQuery {
	return &core.JoinAggregateQuery{
		Rel:  "r1",
		Proj: []schema.Attribute{schema.Attr("r1", "a")},
		Filters: []core.CountFilter{{
			LHS: expr.Column("r1", "b"),
			Op:  value.GE,
			Sub: &core.CountQuery{
				Rel:  "r2",
				Corr: expr.EqCols("r2", "c", "r1", "c"),
				Filters: []core.CountFilter{{
					LHS: expr.Column("r2", "d"),
					Op:  value.GE,
					Sub: &core.CountQuery{
						Rel: "r3",
						Corr: expr.And(
							expr.EqCols("r2", "e", "r3", "e"),
							expr.EqCols("r1", "f", "r3", "f"),
						),
					},
				}},
			},
		}},
	}
}

// E8DB builds the relations for one sweep point.
func E8DB(n int, cfg E8Config) plan.Database {
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := make(plan.Database)
	build := func(name string, cols []string, rows, domain int) {
		b := relation.NewBuilder(name, cols...)
		for i := 0; i < rows; i++ {
			vals := make([]value.Value, len(cols))
			for j := range vals {
				vals[j] = value.NewInt(int64(rng.Intn(domain)))
			}
			b.Row(vals...)
		}
		db[name] = b.Relation()
	}
	r2, r3 := cfg.R2, cfg.R3
	if r2 == 0 {
		r2 = n / 2 // scale with the outer relation: TIS then degrades quadratically
	}
	if r3 == 0 {
		r3 = n / 2
	}
	build("r1", []string{"a", "b", "c", "f"}, n, 20)
	build("r2", []string{"c", "d", "e"}, r2, 20)
	build("r3", []string{"e", "f"}, r3, 20)
	return db
}

// e8 compares tuple iteration semantics with the unnested outer-join
// plan as |r1| grows: TIS degrades superlinearly while the unnested
// plan stays near-linear — the [GANS87]/[MURA92] motivation the paper
// builds on.
func e8(cfg E8Config) string {
	var b strings.Builder
	b.WriteString("E8 — join-aggregate queries: TIS vs unnested outer-join plan\n\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %9s %7s\n", "|r1|", "TIS", "unnested", "speedup", "equal")
	q := E8Query()
	for _, n := range cfg.Sizes {
		db := E8DB(n, cfg)
		unnested, err := q.Unnest(db)
		if err != nil {
			return err.Error()
		}
		startTIS := time.Now()
		want, err := q.TIS(db)
		if err != nil {
			return err.Error()
		}
		tisTime := time.Since(startTIS)
		startUn := time.Now()
		got, err := executor.Run(unnested, db)
		if err != nil {
			return err.Error()
		}
		unTime := time.Since(startUn)
		fmt.Fprintf(&b, "%-8d %12s %12s %8.1fx %7v\n",
			n, tisTime, unTime, float64(tisTime)/float64(unTime), got.EqualAsMultisets(want))
	}
	b.WriteString("\n(the unnested plan contains the generalized selection that closes the count bug; see core.Unnest)\n")
	return b.String()
}

// --- E9: Query 2 — plan space with and without GS -------------------

// Query2 builds (r1 →p12 r2) →(p13∧p23) r3.
func Query2() plan.Node {
	p12 := expr.EqCols("r1", "x", "r2", "x")
	p13 := expr.EqCols("r1", "y", "r3", "y")
	p23 := expr.EqCols("r2", "x", "r3", "x")
	return plan.NewJoin(plan.LeftJoin, expr.And(p13, p23),
		plan.NewJoin(plan.LeftJoin, p12, plan.NewScan("r1"), plan.NewScan("r2")),
		plan.NewScan("r3"))
}

// e9 reports the join orders reachable for Query 2 with and without
// generalized selection, and the cost-based choice on a skewed
// database.
func e9() string {
	var b strings.Builder
	b.WriteString("E9 — Query 2 (Section 1.1): partial reordering through generalized selection\n\n")
	q := Query2()
	baseline := core.Saturate(q, core.SaturateOptions{Rules: core.BaselineRules()})
	full := core.Saturate(q, core.SaturateOptions{})
	fmt.Fprintf(&b, "join orders without GS (baseline): %v\n", core.JoinOrders(baseline))
	fmt.Fprintf(&b, "join orders with GS (this paper):  %v\n\n", core.JoinOrders(full))

	rng := rand.New(rand.NewSource(9))
	db := plan.Database{
		"r1": datagen.Uniform(rng, "r1", datagen.UniformConfig{Rows: 2000, Domain: 40}),
		"r2": datagen.Uniform(rng, "r2", datagen.UniformConfig{Rows: 100, Domain: 40}),
		"r3": datagen.Uniform(rng, "r3", datagen.UniformConfig{Rows: 100, Domain: 40}),
	}
	est := stats.NewEstimator(stats.FromDatabase(db))
	fullRes, err := optimizer.New(est).Optimize(q, db)
	if err != nil {
		return err.Error()
	}
	baseRes, err := optimizer.NewBaseline(est).Optimize(q, db)
	if err != nil {
		return err.Error()
	}
	fmt.Fprintf(&b, "plans considered: baseline %d, with GS %d\n", baseRes.Considered, fullRes.Considered)
	fmt.Fprintf(&b, "best cost:        baseline %.0f, with GS %.0f\n", baseRes.Best.Cost, fullRes.Best.Cost)
	fmt.Fprintf(&b, "chosen plan:\n%s", plan.Indent(fullRes.Best.Plan))
	return b.String()
}

// --- E10: plan-space growth and enumeration time --------------------

// e10 measures equivalence-class size and enumeration time as the
// number of relations grows, for chains of outer joins whose top
// predicate is complex.
func e10() string {
	var b strings.Builder
	b.WriteString("E10 — enumeration scaling: chain queries with one complex predicate\n\n")
	fmt.Fprintf(&b, "%-6s %10s %10s %12s %14s %12s\n", "rels", "baseline", "with GS", "enum time", "assoc(strict)", "assoc(broken)")
	for n := 3; n <= 6; n++ {
		q := complexChain(n)
		base := core.Saturate(q, core.SaturateOptions{Rules: core.BaselineRules(), MaxPlans: 100000})
		start := time.Now()
		full := core.Saturate(q, core.SaturateOptions{MaxPlans: 100000})
		enumTime := time.Since(start)
		h, err := hypergraph.FromPlan(q)
		if err != nil {
			return err.Error()
		}
		se, _ := assoctree.NewEnumerator(h, hypergraph.Strict)
		be, _ := assoctree.NewEnumerator(h, hypergraph.Broken)
		fmt.Fprintf(&b, "%-6d %10d %10d %12s %14d %12d\n", n, len(base), len(full), enumTime.Round(time.Microsecond), se.Count(), be.Count())
	}
	b.WriteString("\n(plans = distinct expression trees in the closure; assoc = association trees of the hypergraph)\n")
	return b.String()
}

// complexChain builds r1 → r2 → … with the final edge carrying a
// complex two-conjunct predicate referencing the first relation.
func complexChain(n int) plan.Node {
	rel := func(i int) string { return fmt.Sprintf("r%d", i) }
	var node plan.Node = plan.NewScan(rel(1))
	for i := 2; i < n; i++ {
		node = plan.NewJoin(plan.LeftJoin, expr.EqCols(rel(i-1), "x", rel(i), "x"),
			node, plan.NewScan(rel(i)))
	}
	last := expr.And(
		expr.EqCols(rel(1), "y", rel(n), "y"),
		expr.EqCols(rel(n-1), "x", rel(n), "x"),
	)
	return plan.NewJoin(plan.LeftJoin, last, node, plan.NewScan(rel(n)))
}

// --- E11: GS subsumes the binary operators ---------------------------

// e11 verifies the Section 2 equations on random inputs.
func e11() string {
	rng := rand.New(rand.NewSource(11))
	trials := 300
	failJoin, failLOJ, failFOJ := 0, 0, 0
	for i := 0; i < trials; i++ {
		db := randDB(rng, 6, 3, "r1", "r2")
		r1, r2 := db["r1"], db["r2"]
		if r1.Len() == 0 || r2.Len() == 0 {
			continue
		}
		p := expr.EqCols("r1", "x", "r2", "x")
		prod := algebra.Product(r1, r2)
		if !algebra.MustGenSelect(p, nil, prod).EqualAsSets(algebra.Join(p, r1, r2)) {
			failJoin++
		}
		if !algebra.MustGenSelect(p, []map[string]bool{algebra.RelSet("r1")}, prod).
			EqualAsSets(algebra.LeftOuter(p, r1, r2)) {
			failLOJ++
		}
		if !algebra.MustGenSelect(p, []map[string]bool{algebra.RelSet("r1"), algebra.RelSet("r2")}, prod).
			EqualAsSets(algebra.FullOuter(p, r1, r2)) {
			failFOJ++
		}
	}
	var b strings.Builder
	b.WriteString("E11 — Section 2: the binary operators as generalized selections over ×\n\n")
	fmt.Fprintf(&b, "r1 JOIN r2 = GS[p; ](r1 x r2):        %d failures / %d trials\n", failJoin, trials)
	fmt.Fprintf(&b, "r1 LOJ r2  = GS[p; r1](r1 x r2):      %d failures / %d trials\n", failLOJ, trials)
	fmt.Fprintf(&b, "r1 FOJ r2  = GS[p; r1, r2](r1 x r2):  %d failures / %d trials\n", failFOJ, trials)
	b.WriteString("\n(empty-input caveat of Definition 2.1 excluded; see TestGSEmptySideCaveat)\n")
	return b.String()
}

// --- E12: Example 3.1 — group-by push-up -----------------------------

// E12Plans builds Example 3.1's expression and its push-up rewriting.
func E12Plans(db plan.Database) (original, rewritten plan.Node, err error) {
	cCol := schema.Attr("v", "c")
	gp := plan.NewGroupBy(
		[]schema.Attribute{schema.Attr("r1", "x"), schema.Attr("r2", "x")},
		[]algebra.Aggregate{algebra.CountRel("r1", cCol)},
		plan.NewJoin(plan.LeftJoin, expr.EqCols("r1", "x", "r2", "x"),
			plan.NewScan("r1"), plan.NewScan("r2")),
	)
	p13 := expr.Cmp{Op: value.GE, L: expr.Column("r3", "y"), R: expr.Col{Attr: cCol}}
	p23 := expr.EqCols("r2", "x", "r3", "x")
	original = plan.NewJoin(plan.LeftJoin, expr.And(p13, p23), gp, plan.NewScan("r3"))
	rewritten, err = core.PushUpGroupBy(original.(*plan.Join), db)
	return
}

// e12 demonstrates the push-up of Example 3.1 and verifies it.
func e12() string {
	rng := rand.New(rand.NewSource(12))
	var b strings.Builder
	b.WriteString("E12 — Example 3.1: aggregation push-up with deferred predicate on the aggregated column\n\n")
	db := randDB(rng, 5, 3, "r1", "r2", "r3")
	original, rewritten, err := E12Plans(db)
	if err != nil {
		return err.Error()
	}
	b.WriteString("original:\n" + plan.Indent(original))
	b.WriteString("\nrewritten:\n" + plan.Indent(rewritten))
	equal := true
	for trial := 0; trial < 100; trial++ {
		db := randDB(rng, 5, 3, "r1", "r2", "r3")
		ok, err := plan.Equivalent(original, rewritten, db)
		if err != nil || !ok {
			equal = false
		}
	}
	fmt.Fprintf(&b, "\nequivalent on 100 random databases: %v\n", equal)
	return b.String()
}

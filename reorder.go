// Package reorder is a Go implementation of "SQL Query Optimization:
// Reordering for a General Class of Queries" (Goel & Iyer, SIGMOD
// 1996): exhaustive reordering of SQL queries containing joins,
// one-sided and full outer joins, and GROUP BY aggregations, built on
// the paper's generalized selection operator σ*.
//
// The package is a facade over the internal subsystems:
//
//   - internal/algebra — the operators themselves (σ, σ*, ⋈, →, ←, ↔,
//     π_{X,f(Y)}, MGOJ) over in-memory relations;
//   - internal/plan — logical plans with reference evaluation;
//   - internal/hypergraph — the query hypergraph with preserved sets
//     and conflict sets (Definition 3.3);
//   - internal/assoctree — association-tree enumeration
//     (Definition 3.2 vs the [BHAR95a] baseline);
//   - internal/core — the association identities (1)–(8), Theorem 1
//     predicate break-up, group-by push-up and correlated-COUNT
//     unnesting;
//   - internal/optimizer — cost-based selection over the equivalence
//     class;
//   - internal/executor — hash-based physical operators;
//   - internal/sql — a SQL front end for the paper's query class.
//
// Quick start:
//
//	db := reorder.Database{"t": ..., "s": ...}
//	q, err := reorder.Parse("select ... from t ...", db)
//	res, err := reorder.Optimize(ctx, q, db, reorder.Options{})
//	rows, err := reorder.Execute(ctx, res.Best.Plan, db, reorder.Limits{})
package reorder

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/assoctree"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/guard"
	"repro/internal/hypergraph"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/simplify"
	"repro/internal/sql"
	"repro/internal/stats"
)

// Database binds relation names to in-memory extensions.
type Database = plan.Database

// Relation is an in-memory relation (schema plus tuples).
type Relation = relation.Relation

// Node is a logical query plan.
type Node = plan.Node

// Result is an optimization report: the best plan, the query as
// written, and how the run went (plans considered, phase timings,
// rule firings, degradation).
type Result = optimizer.Result

// Parse parses a SQL query of the supported subset and lowers it to a
// logical plan against db's schemas. Views (derived tables) are
// merged, aggregated views become generalized projections, and
// correlated COUNT subqueries are unnested into the paper's
// outer-join + group-by + generalized-selection form.
func Parse(query string, db Database) (Node, error) {
	return sql.ParseAndLower(query, db)
}

// Limits caps an optimization or execution: MaxExprs bounds the
// number of plan expressions the enumerator may admit (tripping it
// degrades gracefully to the best plan found, see Result.Degraded),
// MaxRows and MaxBytes bound the intermediate rows an execution may
// materialize (tripping them aborts with a guard.ErrBudget error).
// The zero value is unlimited.
type Limits = guard.Limits

// ErrCancelled is returned (wrapped) by Optimize and Execute when ctx
// is cancelled or its deadline expires. Test with guard.IsCancelled
// or errors.Is.
var ErrCancelled = guard.ErrCancelled

// Options configure Optimize. The zero value is the paper's full rule
// set with no limits.
type Options struct {
	// Limits governs the run together with ctx: cancellation is
	// observed at the optimizer's wave boundaries (returning
	// ErrCancelled), and tripping MaxExprs degrades to a best-effort
	// plan tagged in Result.Degraded instead of enumerating the full
	// class.
	Limits Limits
	// Baseline restricts the optimizer to the pre-paper rule set: no
	// generalized selection, no predicate break-up, no MGOJ, no
	// aggregation push-up. Comparing with the full rule set reproduces
	// the paper's headline claims.
	Baseline bool
}

// Optimize enumerates the equivalence class of q under the paper's
// identities (predicate break-up with Theorem 1 compensation, outer
// join reassociation, MGOJ introduction, aggregation push-up), costs
// it against statistics computed from db, and returns the cheapest
// plan. A SQL query goes through Parse first.
func Optimize(ctx context.Context, q Node, db Database, opts Options) (*Result, error) {
	est := stats.ForDatabase(db)
	o := optimizer.New(est)
	if opts.Baseline {
		o = optimizer.NewBaseline(est)
	}
	o.Opts.Budget = guard.New(ctx, opts.Limits, nil)
	return o.Optimize(q, db)
}

// Execute runs a plan on the columnar engine the query service uses.
// Cancellation and the MaxRows/MaxBytes intermediate-result limits
// are checked at operator and batch boundaries, and panics inside the
// executor come back as *guard.PanicError instead of unwinding.
func Execute(ctx context.Context, q Node, db Database, l Limits) (*Relation, error) {
	out, _, err := executor.Exec(q, db, executor.Options{Budget: guard.New(ctx, l, nil)})
	if err != nil {
		return nil, err
	}
	return out.ToRelation(), nil
}

// Explain renders an optimization result.
func Explain(res *Result) string { return optimizer.Explain(res) }

// ExplainPlan renders a plan as an indented operator tree.
func ExplainPlan(q Node) string { return plan.Indent(q) }

// Enumerate returns the equivalence class of q under the paper's full
// rule set, capped at maxPlans (0 = default).
func Enumerate(q Node, maxPlans int) []Node {
	return core.Saturate(q, core.SaturateOptions{MaxPlans: maxPlans})
}

// JoinOrders lists the distinct association-tree shapes of a set of
// plans.
func JoinOrders(plans []Node) []string { return core.JoinOrders(plans) }

// Hypergraph builds the query hypergraph of a pure join tree, as in
// the paper's Figure 1.
func Hypergraph(q Node) (*hypergraph.Hypergraph, error) {
	return hypergraph.FromPlan(q)
}

// AssociationTreeCounts returns the number of association trees of
// the query's hypergraph under the paper's Definition 3.2 (with
// hyperedge break-up) and under the [BHAR95a] baseline (without).
func AssociationTreeCounts(q Node) (broken, strict uint64, err error) {
	h, err := hypergraph.FromPlan(q)
	if err != nil {
		return 0, 0, err
	}
	be, err := assoctree.NewEnumerator(h, hypergraph.Broken)
	if err != nil {
		return 0, 0, err
	}
	se, err := assoctree.NewEnumerator(h, hypergraph.Strict)
	if err != nil {
		return 0, 0, err
	}
	return be.Count(), se.Count(), nil
}

// Equivalent evaluates both plans against db and reports whether they
// produce the same relation — the ground-truth equivalence check.
func Equivalent(a, b Node, db Database) (bool, error) {
	return plan.Equivalent(a, b, db)
}

// Simplify applies outer join simplification ([BHAR95c]): outer joins
// whose NULL-padded rows are rejected by null-intolerant predicates
// upstream are downgraded (full outer to one-sided, one-sided to
// inner), which both shrinks intermediate results and widens the
// reordering space. Optimize applies it automatically.
func Simplify(q Node) Node { return simplify.Simplify(q) }

// LoadCSVDir loads every *.csv file in dir as a base relation named
// after the file (without extension). See relation.FromCSV for the
// format and type inference.
func LoadCSVDir(dir string) (Database, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	db := Database{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".csv")
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		rel, err := relation.FromCSV(name, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		db[name] = rel
	}
	if len(db) == 0 {
		return nil, fmt.Errorf("reorder: no .csv files in %s", dir)
	}
	return db, nil
}

// PlanDOT renders a plan as Graphviz DOT.
func PlanDOT(q Node) string { return plan.DOT(q) }

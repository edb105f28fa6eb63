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
//	res, err := reorder.OptimizeSQL("select ... from t ...", db)
//	rows, err := reorder.Execute(res.Best.Plan, db)
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

// Result is an optimization report: best plan, original plan, and the
// whole costed equivalence class.
type Result = optimizer.Result

// Parse parses a SQL query of the supported subset and lowers it to a
// logical plan against db's schemas. Views (derived tables) are
// merged, aggregated views become generalized projections, and
// correlated COUNT subqueries are unnested into the paper's
// outer-join + group-by + generalized-selection form.
func Parse(query string, db Database) (Node, error) {
	return sql.ParseAndLower(query, db)
}

// Optimize enumerates the equivalence class of q under the paper's
// identities (predicate break-up with Theorem 1 compensation, outer
// join reassociation, MGOJ introduction, aggregation push-up), costs
// every plan against statistics computed from db, and returns the
// cheapest.
func Optimize(q Node, db Database) (*Result, error) {
	est := stats.ForDatabase(db)
	return optimizer.New(est).Optimize(q, db)
}

// OptimizeBaseline is Optimize restricted to the pre-paper rule set:
// no generalized selection, no predicate break-up, no aggregation
// push-up. Comparing with Optimize reproduces the paper's headline
// claims.
func OptimizeBaseline(q Node, db Database) (*Result, error) {
	est := stats.ForDatabase(db)
	return optimizer.NewBaseline(est).Optimize(q, db)
}

// Limits caps an optimization or execution: MaxExprs bounds the
// number of plan expressions the enumerator may admit (tripping it
// degrades gracefully to the best plan found, see Result.Degraded),
// MaxRows and MaxBytes bound the intermediate rows an execution may
// materialize (tripping them aborts with a guard.ErrBudget error).
// The zero value is unlimited.
type Limits = guard.Limits

// ErrCancelled is returned (wrapped) by the budgeted entry points
// when ctx is cancelled or its deadline expires. Test with
// guard.IsCancelled or errors.Is.
var ErrCancelled = guard.ErrCancelled

// OptimizeBudget is Optimize under resource governance: ctx
// cancellation and deadline are observed at the optimizer's wave
// boundaries (returning ErrCancelled), and tripping l.MaxExprs
// degrades to a best-effort plan tagged in Result.Degraded instead of
// enumerating the full class.
func OptimizeBudget(ctx context.Context, q Node, db Database, l Limits) (*Result, error) {
	est := stats.ForDatabase(db)
	o := optimizer.New(est)
	o.Opts.Budget = guard.New(ctx, l, nil)
	return o.Optimize(q, db)
}

// ExecuteBudget is Execute under resource governance: cancellation
// and the MaxRows/MaxBytes intermediate-result limits are checked at
// operator and batch boundaries, and panics inside the executor come
// back as *guard.PanicError instead of unwinding.
func ExecuteBudget(ctx context.Context, q Node, db Database, l Limits) (*Relation, error) {
	out, _, err := executor.Exec(q, db, executor.Options{Budget: guard.New(ctx, l, nil)})
	if err != nil {
		return nil, err
	}
	return out.ToRelation(), nil
}

// OptimizeSQL is Parse followed by Optimize.
func OptimizeSQL(query string, db Database) (*Result, error) {
	q, err := Parse(query, db)
	if err != nil {
		return nil, err
	}
	return Optimize(q, db)
}

// Execute runs a plan with the hash-based physical executor.
func Execute(q Node, db Database) (*Relation, error) {
	return executor.Run(q, db)
}

// ExecuteSQL parses, optimizes and executes a query.
func ExecuteSQL(query string, db Database) (*Relation, error) {
	res, err := OptimizeSQL(query, db)
	if err != nil {
		return nil, err
	}
	return Execute(res.Best.Plan, db)
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

// OptimizeTrees runs the paper's own Section 4 pipeline instead of
// rule-based memo exploration: enumerate the association trees of the query
// hypergraph (Definition 3.2), assign operators and σ* compensations
// to each (core.AssignOperators), and return the cheapest.
func OptimizeTrees(q Node, db Database) (*Result, error) {
	est := stats.ForDatabase(db)
	return optimizer.New(est).OptimizeTrees(q, db)
}

// OptimizeDP runs a System-R dynamic program over the hypergraph for
// pure inner-join queries (run Simplify first for queries whose outer
// joins are all removable).
func OptimizeDP(q Node, db Database) (*Result, error) {
	est := stats.ForDatabase(db)
	return optimizer.New(est).OptimizeDP(q, db)
}

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

// EncodePlan serializes a plan to JSON for caching or external
// tooling; DecodePlan inverts it.
func EncodePlan(q Node) ([]byte, error) { return plan.EncodeJSON(q) }

// DecodePlan deserializes a plan encoded by EncodePlan.
func DecodePlan(data []byte) (Node, error) { return plan.DecodeJSON(data) }

// PlanDOT renders a plan as Graphviz DOT.
func PlanDOT(q Node) string { return plan.DOT(q) }

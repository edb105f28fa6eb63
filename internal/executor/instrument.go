package executor

import (
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
)

// RunInstrumented executes the plan like Run while collecting
// per-operator statistics: output cardinality and inclusive wall
// time for every node, plus hash-build sizes, residual-predicate
// evaluations, null-padding counts and nested-loop fallbacks for the
// binary operators. The figures land in two places — the returned
// plan.Annotations (keyed by node, for EXPLAIN ANALYZE rendering and
// the JSON export) and reg's aggregate counters/histograms (nil means
// obs.Default()).
func RunInstrumented(n plan.Node, db plan.Database, reg *obs.Registry) (*relation.Relation, plan.Annotations, error) {
	return RunInstrumentedGuarded(n, db, reg, nil)
}

// RunInstrumentedGuarded is RunInstrumented under resource
// governance, with RunGuarded's budget and panic-containment
// contract; EXPLAIN ANALYZE uses it so -timeout and row/byte caps
// also bound instrumented executions.
func RunInstrumentedGuarded(n plan.Node, db plan.Database, reg *obs.Registry, b *guard.Budget) (out *relation.Relation, ann plan.Annotations, err error) {
	if reg == nil {
		reg = obs.Default()
	}
	phase := "execute"
	defer guard.RecoverAs(&err, &phase, plan.Key(n), reg)
	ann = plan.Annotations{}
	obs.WithPhase(b.Context(), "executor", "execute", func() {
		out, err = runInstrumented(n, db, reg, ann, b)
	})
	if err != nil {
		return nil, nil, err
	}
	return out, ann, nil
}

func runInstrumented(n plan.Node, db plan.Database, reg *obs.Registry, ann plan.Annotations, b *guard.Budget) (*relation.Relation, error) {
	if err := b.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	a := ann.For(n)
	var out *relation.Relation
	var err error
	switch m := n.(type) {
	case *plan.Scan:
		out, err = m.Eval(db)
	case *materialized:
		out = m.rel
	case *plan.Select:
		var in *relation.Relation
		if in, err = runInstrumented(m.Input, db, reg, ann, b); err == nil {
			out = algebra.Select(m.Pred, in)
		}
	case *plan.Project:
		var in *relation.Relation
		if in, err = runInstrumented(m.Input, db, reg, ann, b); err == nil {
			out = in.Project(m.Attrs, m.Distinct)
		}
	case *plan.GroupBy:
		var in *relation.Relation
		if in, err = runInstrumented(m.Input, db, reg, ann, b); err == nil {
			out = algebra.GroupProject(m.Keys, m.Aggs, in)
		}
	case *plan.Sort:
		var in *relation.Relation
		if in, err = runInstrumented(m.Input, db, reg, ann, b); err == nil {
			out, err = plan.SortRows(in, m.Keys, m.Limit)
		}
	case *plan.GenSel:
		var in *relation.Relation
		if in, err = runInstrumented(m.Input, db, reg, ann, b); err == nil {
			specs := make([]map[string]bool, len(m.Preserved))
			for i, s := range m.Preserved {
				specs[i] = s.Set()
			}
			out, err = algebra.GenSelect(m.Pred, specs, in)
		}
	case *plan.Join:
		var l, r *relation.Relation
		if l, err = runInstrumented(m.L, db, reg, ann, b); err != nil {
			break
		}
		if r, err = runInstrumented(m.R, db, reg, ann, b); err != nil {
			break
		}
		st := &joinProbe{}
		out, err = joinExecProbe(m.Kind, m.Pred, l, r, st, b, nil)
		recordJoinProbe(a, st, reg)
	case *plan.MGOJNode:
		var l, r *relation.Relation
		if l, err = runInstrumented(m.L, db, reg, ann, b); err != nil {
			break
		}
		if r, err = runInstrumented(m.R, db, reg, ann, b); err != nil {
			break
		}
		st := &joinProbe{}
		out, err = mgojExecProbe(m, l, r, st, b)
		recordJoinProbe(a, st, reg)
	case *plan.MergeJoin:
		var l, r *relation.Relation
		if l, err = runInstrumented(m.L, db, reg, ann, b); err != nil {
			break
		}
		if r, err = runInstrumented(m.R, db, reg, ann, b); err != nil {
			break
		}
		st := &joinProbe{}
		out, err = mergeJoinProbe(m, l, r, st, b)
		recordJoinProbe(a, st, reg)
	case *plan.StreamAgg:
		var in *relation.Relation
		if in, err = runInstrumented(m.Input, db, reg, ann, b); err == nil {
			out, err = streamAggProbe(m, in, b)
		}
	default:
		err = fmt.Errorf("executor: unsupported node %T", n)
	}
	if err != nil {
		return nil, err
	}
	if err := guard.Hit(guard.PointExecOperator); err != nil {
		return nil, err
	}
	switch n.(type) {
	case *plan.Scan, *materialized, *plan.Join, *plan.MGOJNode, *plan.MergeJoin, *plan.StreamAgg:
		// Same charging rule as run: base inputs are free, joins and
		// the order-consuming operators have charged per batch.
	default:
		if err := b.ChargeOut(out.Len(), out.Schema().Len()); err != nil {
			return nil, err
		}
	}
	a.Rows = out.Len()
	a.Elapsed = time.Since(start)
	op := OpName(n)
	reg.Counter("executor.ops").Inc()
	reg.Counter("executor.op." + op).Inc()
	reg.Counter("executor.rows_out").Add(int64(out.Len()))
	reg.Histogram("executor.op_ns").ObserveDuration(a.Elapsed)
	reg.Histogram("executor.rows_out." + op).Observe(int64(out.Len()))
	return out, nil
}

// recordJoinProbe copies one join's physical counters into the node
// annotation and the aggregate registry.
func recordJoinProbe(a *plan.Annotation, st *joinProbe, reg *obs.Registry) {
	a.AddExtra("hash_build_rows", int64(st.BuildRows))
	a.AddExtra("residual_evals", int64(st.ResidualEvals))
	a.AddExtra("null_padded", int64(st.NullPadded))
	if st.Collisions > 0 {
		a.AddExtra("hash_collisions", int64(st.Collisions))
	}
	if st.Partitions > 0 {
		a.AddExtra("hash_partitions", int64(st.Partitions))
	}
	if st.ArenaChunks > 0 {
		a.AddExtra("arena_chunks", int64(st.ArenaChunks))
	}
	if st.NestedLoop {
		a.AddExtra("nested_loop", 1)
	}
	if st.SpillParts > 0 {
		a.AddExtra("spill_partitions", int64(st.SpillParts))
		a.AddExtra("spill_bytes", st.SpillBytes)
	}
	if st.SpillRecursions > 0 {
		a.AddExtra("spill_recursions", int64(st.SpillRecursions))
	}
	if st.BuildSwapped {
		a.AddExtra("build_swapped", 1)
	}
	if st.SpillEscalated {
		a.AddExtra("spill_escalated", 1)
	}
	switch st.Build { // EXPLAIN ANALYZE renders it build=index|hash
	case "index":
		a.AddExtra("build_index", 1)
	case "hash":
		a.AddExtra("build_index", 0)
	}
	reg.Counter("executor.hash_build_rows").Add(int64(st.BuildRows))
	reg.Counter("executor.residual_evals").Add(int64(st.ResidualEvals))
	reg.Counter("executor.null_padded").Add(int64(st.NullPadded))
	reg.Counter("executor.hash_collisions").Add(int64(st.Collisions))
}

// OpName returns the stable metric label of a plan operator — the
// label the per-operator counters, the q-error histograms and the
// flight recorder's OpStat rows all key by.
func OpName(n plan.Node) string {
	switch m := n.(type) {
	case *plan.Scan:
		return "scan"
	case *materialized:
		return "materialized"
	case *plan.Select:
		return "select"
	case *plan.Project:
		return "project"
	case *plan.GroupBy:
		return "groupby"
	case *plan.Sort:
		return "sort"
	case *plan.GenSel:
		return "gensel"
	case *plan.Join:
		return "join." + m.Kind.String()
	case *plan.MGOJNode:
		return "mgoj"
	case *plan.MergeJoin:
		return "mergejoin." + m.Kind.String()
	case *plan.StreamAgg:
		return "streamagg"
	default:
		return fmt.Sprintf("%T", n)
	}
}

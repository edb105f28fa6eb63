package executor

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/plan"
)

// joinProbe collects the physical counters of one join execution for
// EXPLAIN ANALYZE; a nil probe disables collection.
type joinProbe struct {
	BuildRows     int  // build rows a hash join's lookup holds
	ResidualEvals int  // residual/loop predicate evaluations
	NullPadded    int  // NULL-padded rows emitted for outer kinds
	Collisions    int  // bucket hits rejected by key verification
	NestedLoop    bool // true when no equi conjunct was hashable

	SpillParts      int // non-empty partitions of a partitioned join
	SpillRecursions int // partitions split again on the next hash bits

	BuildSwapped   bool // adaptive build/probe swap fired pre-probe
	SpillEscalated bool // adaptive escalation to the partitioned join

	// Build says where a hash join's table came from: "index" (the
	// build image's shared join index) or "hash" (built for this
	// request); empty for a nested loop.
	Build string
	// Lookup says how such a join found a probe row's build rows:
	// "dense" (by key − min, batch.DenseIndex) or "hash".
	Lookup string
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
	if st.NestedLoop {
		a.AddExtra("nested_loop", 1)
	}
	if st.SpillParts > 0 {
		a.AddExtra("spill_partitions", int64(st.SpillParts))
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
	switch st.Lookup { // rendered lookup=dense|hash
	case "dense":
		a.AddExtra("dense_lookup", 1)
	case "hash":
		a.AddExtra("dense_lookup", 0)
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
	default:
		return fmt.Sprintf("%T", n)
	}
}

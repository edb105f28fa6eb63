// Package executor evaluates logical plans with physical operators:
// hash joins for equi-predicates (with residual evaluation and
// preserved-side padding for outer joins), hash-based generalized
// selection and aggregation, and nested loops as the general
// fallback. Results are bit-identical (as sets) to the reference
// semantics of plan.Node.Eval, which the package tests verify; the
// benchmarks use this executor so that measured plan-cost shapes
// reflect realistic engines rather than O(n·m) reference loops.
package executor

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// execBatchRows is the join probe's guard granularity: cancellation,
// fault points and row/byte charges are checked once per this many
// probe-side tuples, so governance costs a modulus per tuple and the
// response latency to a trip is bounded by one batch.
const execBatchRows = 1024

// Run executes the plan against db on the row-at-a-time engine,
// unbudgeted and uninstrumented. It is the reference the columnar
// engine is checked against (the property suites, the benchmark's
// oracle), so it shares no walker and no state with the production
// entry points below — only the tuple operators themselves.
func Run(n plan.Node, db plan.Database) (*relation.Relation, error) {
	ch := n.Children()
	in := make([]*relation.Relation, len(ch))
	for i, c := range ch {
		r, err := Run(c, db)
		if err != nil {
			return nil, err
		}
		in[i] = r
	}
	switch m := n.(type) {
	case *plan.Scan:
		return m.Eval(db)
	case *plan.Select:
		return algebra.Select(m.Pred, in[0]), nil
	case *plan.Project:
		return in[0].Project(m.Attrs, m.Distinct), nil
	case *plan.GroupBy:
		return algebra.GroupProject(m.Keys, m.Aggs, in[0]), nil
	case *plan.Sort:
		return plan.SortRows(in[0], m.Keys, m.Limit)
	case *plan.GenSel:
		specs := make([]map[string]bool, len(m.Preserved))
		for i, s := range m.Preserved {
			specs[i] = s.Set()
		}
		return algebra.GenSelect(m.Pred, specs, in[0])
	case *plan.Join:
		return JoinExec(m.Kind, m.Pred, in[0], in[1])
	case *plan.MGOJNode:
		join, err := JoinExec(plan.InnerJoin, m.Pred, in[0], in[1])
		if err != nil {
			return nil, err
		}
		return mgojCompensate(m, join, in[0], in[1], nil, nil)
	default:
		return nil, fmt.Errorf("executor: unsupported node %T", n)
	}
}

// Options configures one Exec. The zero value runs the plan as planned,
// unbudgeted and uninstrumented.
type Options struct {
	// Budget governs the run: cancellation and row/byte limits are
	// checked at per-operator and per-batch boundaries (surfacing
	// guard.ErrCancelled / ErrBudget — a MaxBytes overrun is the typed
	// error unless Adapt.Spill escalates the join), and executor
	// counters land in its registry. nil never trips.
	Budget *guard.Budget
	// Obs instruments the run: every node of the plan gets an
	// annotation with its output rows and inclusive time, joins add
	// their probe figures, and the per-operator and exec.vector.*
	// counters land here instead of in the budget's registry. nil runs
	// uninstrumented and returns no annotations.
	Obs *obs.Registry
	// Adapt enables mid-query adaptivity (build/probe swap, spill
	// escalation); nil is the static plan.
	Adapt *Adapt
}

// Exec is the production execution entry point: the plan runs on the
// columnar engine (vector.go) and its result comes back columnar, for a
// caller that reads the typed vectors directly (the query service
// encodes them onto the wire). A panic anywhere in the execution
// converts to a *guard.PanicError carrying the plan fingerprint
// instead of unwinding into the caller. The result is multiset-equal
// to Run's, and row-identical to it under a root Sort; it
// may share columns with a base table's image, so callers treat it as
// read-only. Adaptive transitions land in the annotations
// (build_swapped, spill_escalated extras) and the exec.adapt.*
// counters.
func Exec(n plan.Node, db plan.Database, o Options) (out *batch.Rel, ann plan.Annotations, err error) {
	phase := "execute"
	defer guard.RecoverAs(&err, &phase, n, o.Obs)
	e := &vecEngine{db: db, b: o.Budget, batch: execBatchRows, reg: o.Budget.Registry(), adapt: o.Adapt}
	if o.Obs == nil {
		out, err = e.exec(n)
		return out, nil, err
	}
	e.reg, e.ann = o.Obs, plan.Annotations{}
	obs.WithPhase(o.Budget.Context(), "executor", "execute", func() {
		out, err = e.exec(n)
	})
	if err != nil {
		return nil, nil, err
	}
	return out, e.ann, nil
}

// RunGuarded is Exec under a budget with the result boxed row-major.
func RunGuarded(n plan.Node, db plan.Database, b *guard.Budget) (*relation.Relation, error) {
	out, _, err := Exec(n, db, Options{Budget: b})
	if err != nil {
		return nil, err
	}
	return out.ToRelation(), nil
}

// equiKey is one hashable equality conjunct l.col = r.col.
type equiKey struct {
	li, ri int // column positions in the left/right schemas
}

// splitEqui partitions pred into hashable equality conjuncts and a
// residual predicate.
func splitEqui(pred expr.Pred, ls, rs *schema.Schema) (keys []equiKey, residual expr.Pred) {
	var rest []expr.Pred
	for _, c := range expr.Conjuncts(pred) {
		cmp, ok := c.(expr.Cmp)
		if !ok || cmp.Op != value.EQ {
			rest = append(rest, c)
			continue
		}
		lc, lok := cmp.L.(expr.Col)
		rc, rok := cmp.R.(expr.Col)
		if !lok || !rok {
			rest = append(rest, c)
			continue
		}
		li, ri := ls.IndexOf(lc.Attr), rs.IndexOf(rc.Attr)
		if li >= 0 && ri >= 0 {
			keys = append(keys, equiKey{li, ri})
			continue
		}
		// Try the mirrored orientation.
		li, ri = ls.IndexOf(rc.Attr), rs.IndexOf(lc.Attr)
		if li >= 0 && ri >= 0 {
			keys = append(keys, equiKey{li, ri})
			continue
		}
		rest = append(rest, c)
	}
	return keys, expr.And(rest...)
}

// fastKey hashes the values at the given positions, or ok=false (no
// match possible) when any is NULL — predicates are null in-tolerant.
// It is the shared allocation-free key helper of the tuple hash join
// and the spill partitioner: a thin named wrapper over
// relation.Tuple.HashOn so both measurably execute the same code.
// Bucket hits MUST be confirmed with Tuple.EqualOn — hashes collide.
func fastKey(t relation.Tuple, idx []int) (uint64, bool) {
	return t.HashOn(idx)
}

// Arena slabs start at arenaMinTuples output tuples and double up to
// arenaChunkTuples: a join that emits a handful of rows (a point query)
// allocates a handful, one that emits thousands amortizes row
// allocation to one make per 512.
const (
	arenaMinTuples   = 16
	arenaChunkTuples = 512
)

// tupleArena hands out fixed-width tuples carved from chunked slabs.
// Rows from one arena stay reachable as long as the output relation
// does, which is the same lifetime the per-row make had.
type tupleArena struct {
	width  int
	slab   []value.Value
	grow   int // tuples in the most recent slab
	chunks int
	tuples int
}

func newTupleArena(width int) *tupleArena { return &tupleArena{width: width} }

// next returns an uninitialized tuple of the arena's width, with
// capacity clipped so appends never bleed into neighbouring rows.
func (a *tupleArena) next() relation.Tuple {
	if len(a.slab) < a.width {
		a.grow = min(max(2*a.grow, arenaMinTuples), arenaChunkTuples)
		a.slab = make([]value.Value, a.grow*a.width)
		a.chunks++
	}
	t := relation.Tuple(a.slab[:a.width:a.width])
	a.slab = a.slab[a.width:]
	a.tuples++
	return t
}

// joinProbe collects the physical counters of one join execution for
// EXPLAIN ANALYZE; a nil probe disables collection (the registry
// fallback accounting always runs).
type joinProbe struct {
	BuildRows     int  // tuples hashed on the build (right) side
	ResidualEvals int  // residual/loop predicate evaluations
	NullPadded    int  // NULL-padded rows emitted for outer kinds
	Collisions    int  // bucket hits rejected by key verification
	ArenaChunks   int  // output arena slabs allocated
	NestedLoop    bool // true when no equi conjunct was hashable

	SpillParts      int   // partition files written to disk
	SpillBytes      int64 // bytes written to spill files
	SpillRecursions int   // recursive re-partitionings

	BuildSwapped   bool // adaptive build/probe swap fired pre-probe
	SpillEscalated bool // adaptive escalation to the grace/spill join

	// Build says where a columnar hash join's table came from: "index"
	// (the build image's shared join index) or "hash" (built for this
	// request); empty for every other join.
	Build string
	// Lookup says how such a join found a probe row's build rows:
	// "dense" (by key − min, batch.DenseIndex) or "hash".
	Lookup string
}

// flushArenas folds arena totals into the probe and the run's
// registry.
func (st *joinProbe) flushArenas(reg *obs.Registry, arenas ...*tupleArena) {
	chunks, tuples := 0, 0
	for _, a := range arenas {
		chunks += a.chunks
		tuples += a.tuples
	}
	if st != nil {
		st.ArenaChunks += chunks
	}
	reg.Counter("exec.arena.chunks").Add(int64(chunks))
	reg.Counter("exec.arena.tuples").Add(int64(tuples))
}

// JoinExec joins two materialized relations with the given kind and
// predicate, using a hash join when an equality conjunct exists and a
// nested loop otherwise.
func JoinExec(kind plan.JoinKind, pred expr.Pred, l, r *relation.Relation) (*relation.Relation, error) {
	return joinExecProbe(kind, pred, l, r, nil, nil)
}

// chargeSince charges the growth of out since *charged against the
// budget's row/byte limits and advances the cursor; the join probe
// calls it at batch boundaries and once at the end, so output is
// charged exactly once.
func chargeSince(b *guard.Budget, out *relation.Relation, charged *int, width int) error {
	d := out.Len() - *charged
	*charged = out.Len()
	return b.ChargeOut(d, width)
}

func joinExecProbe(kind plan.JoinKind, pred expr.Pred, l, r *relation.Relation, st *joinProbe, b *guard.Budget) (*relation.Relation, error) {
	ls, rs := l.Schema(), r.Schema()
	out := relation.New(ls.Concat(rs))
	keys, residual := splitEqui(pred, ls, rs)
	if len(keys) == 0 {
		// No hashable equi conjunct: count the quadratic fallback on the
		// run's registry. EXPLAIN ANALYZE names the join through its
		// nested_loop extra; a per-predicate metric name would mint one
		// permanent counter per bound literal.
		b.Registry().Counter("executor.nested_loop_fallback").Inc()
		if st != nil {
			st.NestedLoop = true
		}
		return nestedLoop(kind, pred, l, r, out, st, b)
	}
	li := make([]int, len(keys))
	ri := make([]int, len(keys))
	for i, k := range keys {
		li[i], ri[i] = k.li, k.ri
	}
	// Reserve the build side's modeled resident footprint before
	// materializing the hash table: under a MaxBytes budget an
	// oversized build trips typed here, which is exactly the abort the
	// spilling grace join (spill.go) exists to avoid — it reserves
	// per-partition footprints that fit instead.
	buildRes := estBytes(r.Len(), rs.Len())
	if err := b.ReserveBytes(buildRes); err != nil {
		return nil, err
	}
	defer b.ReleaseBytes(buildRes)
	// Build on the right input, bucketed by 64-bit key hash.
	build := make(map[uint64][]int, r.Len())
	for j, t := range r.Tuples() {
		if h, ok := fastKey(t, ri); ok {
			build[h] = append(build[h], j)
			if st != nil {
				st.BuildRows++
			}
		}
	}
	rightMatched := make([]bool, r.Len())
	nl, nr := ls.Len(), rs.Len()
	env := expr.TupleEnv{Schema: out.Schema()}
	scratch := make(relation.Tuple, nl+nr)
	arena := newTupleArena(nl + nr)
	collisions := 0
	charged := 0
	for i, lt := range l.Tuples() {
		if i%execBatchRows == 0 {
			if err := guard.Hit(guard.PointExecBatch); err != nil {
				return nil, err
			}
			if err := b.Err(); err != nil {
				return nil, err
			}
			if err := chargeSince(b, out, &charged, nl+nr); err != nil {
				return nil, err
			}
		}
		matched := false
		if h, ok := fastKey(lt, li); ok {
			for _, j := range build[h] {
				rt := r.Tuple(j)
				if !lt.EqualOn(rt, li, ri) {
					collisions++
					continue
				}
				copy(scratch, lt)
				copy(scratch[nl:], rt)
				env.Tuple = scratch
				if st != nil {
					st.ResidualEvals++
				}
				if residual.Eval(env).Holds() {
					matched = true
					rightMatched[j] = true
					row := arena.next()
					copy(row, scratch)
					out.Append(row)
				}
			}
		}
		if !matched && (kind == plan.LeftJoin || kind == plan.FullJoin) {
			row := arena.next()
			copy(row, lt)
			for i := nl; i < nl+nr; i++ {
				row[i] = value.Null
			}
			if st != nil {
				st.NullPadded++
			}
			out.Append(row)
		}
	}
	if kind == plan.RightJoin || kind == plan.FullJoin {
		for j, rt := range r.Tuples() {
			if j%execBatchRows == 0 {
				if err := b.Err(); err != nil {
					return nil, err
				}
				if err := chargeSince(b, out, &charged, nl+nr); err != nil {
					return nil, err
				}
			}
			if rightMatched[j] {
				continue
			}
			row := arena.next()
			for i := 0; i < nl; i++ {
				row[i] = value.Null
			}
			copy(row[nl:], rt)
			if st != nil {
				st.NullPadded++
			}
			out.Append(row)
		}
	}
	if st != nil {
		st.Collisions += collisions
	}
	if collisions > 0 {
		b.Registry().Counter("exec.hash.collisions").Add(int64(collisions))
	}
	st.flushArenas(b.Registry(), arena)
	if err := chargeSince(b, out, &charged, nl+nr); err != nil {
		return nil, err
	}
	return out, nil
}

// nestedLoop is the fallback join for non-equi predicates.
func nestedLoop(kind plan.JoinKind, pred expr.Pred, l, r *relation.Relation, out *relation.Relation, st *joinProbe, b *guard.Budget) (*relation.Relation, error) {
	nl, nr := l.Schema().Len(), r.Schema().Len()
	env := expr.TupleEnv{Schema: out.Schema()}
	scratch := make(relation.Tuple, nl+nr)
	rightMatched := make([]bool, r.Len())
	charged := 0
	for i, lt := range l.Tuples() {
		if i%execBatchRows == 0 {
			if err := guard.Hit(guard.PointExecBatch); err != nil {
				return nil, err
			}
			if err := b.Err(); err != nil {
				return nil, err
			}
			if err := chargeSince(b, out, &charged, nl+nr); err != nil {
				return nil, err
			}
		}
		matched := false
		copy(scratch, lt)
		for j, rt := range r.Tuples() {
			copy(scratch[nl:], rt)
			env.Tuple = scratch
			if st != nil {
				st.ResidualEvals++
			}
			if pred.Eval(env).Holds() {
				matched = true
				rightMatched[j] = true
				row := make(relation.Tuple, nl+nr)
				copy(row, scratch)
				out.Append(row)
			}
		}
		if !matched && (kind == plan.LeftJoin || kind == plan.FullJoin) {
			row := make(relation.Tuple, nl+nr)
			copy(row, lt)
			for i := nl; i < nl+nr; i++ {
				row[i] = value.Null
			}
			if st != nil {
				st.NullPadded++
			}
			out.Append(row)
		}
	}
	if kind == plan.RightJoin || kind == plan.FullJoin {
		for j, rt := range r.Tuples() {
			if rightMatched[j] {
				continue
			}
			row := make(relation.Tuple, nl+nr)
			for i := 0; i < nl; i++ {
				row[i] = value.Null
			}
			copy(row[nl:], rt)
			if st != nil {
				st.NullPadded++
			}
			out.Append(row)
		}
	}
	if err := chargeSince(b, out, &charged, nl+nr); err != nil {
		return nil, err
	}
	return out, nil
}

// mgojCompensate appends MGOJ's preserved-projection padding to an
// already-computed inner join of l and r; shared between the row
// reference and the columnar walker. Only the padding rows are charged —
// the join rows were charged as the probe emitted them.
func mgojCompensate(m *plan.MGOJNode, join, l, r *relation.Relation, st *joinProbe, b *guard.Budget) (*relation.Relation, error) {
	if err := b.Err(); err != nil {
		return nil, err
	}
	s := join.Schema()
	out := relation.New(s)
	for _, t := range join.Tuples() {
		out.Append(t)
	}
	pads := 0
	for _, spec := range m.Preserved {
		attrs := s.AttrsOfRels(spec.Set())
		if len(attrs) == 0 {
			return nil, fmt.Errorf("executor: preserved spec %s resolves to nothing", spec)
		}
		var source *relation.Relation
		switch {
		case containsAll(l.Schema(), attrs):
			source = l
		case containsAll(r.Schema(), attrs):
			source = r
		default:
			// A specification spanning both inputs needs the
			// cross-product's projections, as in Definition 2.1.
			source = algebra.Product(l, r)
		}
		all := source.Project(attrs, true)
		kept := join.Project(attrs, true)
		for _, t := range all.Minus(kept).PadTo(s).Tuples() {
			if !allNull(t) {
				if st != nil {
					st.NullPadded++
				}
				pads++
				out.Append(t)
			}
		}
	}
	if err := b.ChargeOut(pads, s.Len()); err != nil {
		return nil, err
	}
	return out, nil
}

func containsAll(s *schema.Schema, attrs []schema.Attribute) bool {
	for _, a := range attrs {
		if !s.Contains(a) {
			return false
		}
	}
	return true
}

func allNull(t relation.Tuple) bool {
	for _, v := range t {
		if !v.IsNull() {
			return false
		}
	}
	return true
}

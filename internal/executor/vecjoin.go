package executor

import (
	"slices"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
)

// vecJoin is the columnar join: take or build the build side's lookup
// — a dense index over one int64 key, an array-chained hash table over
// the key hashes otherwise — and probe the other side batch-at-a-time.
// It returns the matched (left, right) row-index pairs for the caller
// to gather (batch.Gather2); -1 on either side NULL-pads an outer row.
// The build side is the right input, as planned. A predicate with no
// hashable equi conjunct runs the same probe as a nested loop
// (crossLookup); a build side that cannot fit the byte budget's
// headroom is joined partition by partition (partitionJoin). The
// output schema and the key split come from sh (joinShape).
func (e *vecEngine) vecJoin(kind plan.JoinKind, sh *plan.Shape, l, r *batch.Rel, st *joinProbe) (lsel, rsel []int32, err error) {
	outSchema, li, ri, residual := sh.Out, sh.LI, sh.RI, sh.Residual
	if len(li) == 0 {
		// Every build row is a candidate and the whole predicate is the
		// residual. The loop holds no table, so it reserves nothing and
		// never partitions. EXPLAIN ANALYZE names the join through its
		// nested_loop extra; a per-predicate metric name would mint one
		// permanent counter per bound literal.
		e.reg.Counter("executor.nested_loop_fallback").Inc()
		if st != nil {
			st.NestedLoop = true
		}
		return e.probeJoin(kind, residual, outSchema, l, r, crossLookup(r.N), st)
	}
	buildRes := estBytes(r.N, r.Schema.Len())
	if !e.fits(buildRes) {
		if err := guard.Hit(guard.PointExecSpill); err != nil {
			return nil, nil, err
		}
		return e.partitionJoin(kind, residual, outSchema, l, r, li, ri, st)
	}
	if err := e.b.ReserveBytes(buildRes); err != nil {
		return nil, nil, err
	}
	defer e.b.ReleaseBytes(buildRes)
	return e.hashJoin(kind, residual, outSchema, l, r, li, ri, st)
}

// joinShape is the shape of join node n (a Join or MGOJ) with
// predicate pred over input schemas ls and rs: the one n holds when it
// was derived from these very schemas, else derived here and offered to
// n.
func joinShape(n plan.Node, pred expr.Pred, ls, rs *schema.Schema) *plan.Shape {
	if sh := plan.CachedShape(n, ls, rs); sh != nil {
		return sh
	}
	li, ri, residual := splitEqui(pred, ls, rs)
	return plan.OfferShape(n, &plan.Shape{In: [2]*schema.Schema{ls, rs}, Out: ls.Concat(rs), LI: li, RI: ri, Residual: residual})
}

// selSlack is both the free room below which hashJoin re-sizes its
// match lists and the number of probe rows it wants behind it before it
// extrapolates their fan-out.
const selSlack = 64

// hashJoin is the build/probe kernel: it looks up build rows by
// columns bi for each probe row's columns pi, and returns the matched
// row-index pairs (probe rows in psel, build rows in bsel), -1 marking
// the NULL-padded side of an outer row. kind is read with probe as the
// left input and build as the right. The residual is evaluated over
// env-schema tuples laid out probe columns then build columns. A
// single int64 key whose build values are dense is looked up by
// key − min (batch.DenseIndex); every other key is hashed. Both lookups list a probe row's matches in ascending
// build-row order, so the two produce identical selection vectors.
func (e *vecEngine) hashJoin(kind plan.JoinKind, residual expr.Pred, envSchema *schema.Schema, probe, build *batch.Rel, pi, bi []int, st *joinProbe) (psel, bsel []int32, err error) {
	lk, indexed := denseLookup(probe, build, pi, bi)
	if lk == nil {
		lk, indexed = hashLookup(probe, build, pi, bi)
	}
	if st != nil {
		st.BuildRows += lk.rows
		st.Build, st.Lookup = "hash", "hash"
		if indexed {
			st.Build = "index"
		}
		if lk.dense != nil {
			st.Lookup = "dense"
		}
	}
	return e.probeJoin(kind, residual, envSchema, probe, build, lk, st)
}

// joinLookup finds the build rows a probe row's key matches, in
// ascending build-row order — through a dense index's run of the key,
// or by walking an array-chained hash table and verifying each hash
// hit with Keys.Equal. A nested loop's lookup lists every build row.
type joinLookup struct {
	rows int // build rows a hashed or dense lookup holds (those with no NULL key)

	every []int32 // a nested loop's candidates: every build row

	dense *batch.DenseIndex
	pv    *batch.Vec // the probe key column, PhysInt, of a dense lookup

	ph, bh     []uint64
	pok        []bool
	head, next []int32
	mask       uint64
	pk, bk     batch.Keys
	buf        []int32 // the verified matches of the last hashed lookup
	collisions int     // hash hits Keys.Equal rejected
}

// denseLookup is the lookup through build's dense index over its one
// key column, or nil when the key is not one int64 column on both
// sides or its build values are not dense.
func denseLookup(probe, build *batch.Rel, pi, bi []int) (*joinLookup, bool) {
	if len(bi) != 1 || probe.Col(pi[0]).Phys != batch.PhysInt || build.Col(bi[0]).Phys != batch.PhysInt {
		return nil, false
	}
	dx, shared := build.DenseIndex(bi[0])
	if dx == nil {
		return nil, false
	}
	return &joinLookup{rows: len(dx.Rows), dense: dx, pv: probe.Col(pi[0])}, shared
}

// hashLookup is the lookup through build's key-hash table. A build side
// that is a base table's scan brings the table's own hash table with it
// (batch.JoinIndex); anything else is hashed and chained here, for this
// request. Each chain lists its rows in ascending order: per probe row,
// matches emerge in the same order the tuple engine's insertion-ordered
// buckets produce them, which keeps float aggregates over join output
// accumulating in the same order (bit-identical sums) on both engines.
func hashLookup(probe, build *batch.Rel, pi, bi []int) (*joinLookup, bool) {
	bx, indexed := build.JoinIndex(bi, true)
	px, _ := probe.JoinIndex(pi, false)
	return &joinLookup{
		rows: bx.Rows,
		ph:   px.Hashes, pok: px.OK,
		bh: bx.Hashes, head: bx.Head, next: bx.Next, mask: bx.Mask,
		pk: probe.Keys(pi), bk: build.Keys(bi),
	}, indexed
}

// crossLookup is a nested loop's lookup over n build rows.
func crossLookup(n int) *joinLookup {
	every := make([]int32, n)
	for j := range every {
		every[j] = int32(j)
	}
	return &joinLookup{every: every}
}

// matches returns probe row i's build rows. The slice is the index's
// own (dense) or reused by the next call (hashed): read it before
// looking up again, and never write to it.
func (lk *joinLookup) matches(i int) []int32 {
	if lk.every != nil {
		return lk.every
	}
	if lk.dense != nil {
		if lk.pv.IsNull(i) {
			return nil
		}
		return lk.dense.Run(lk.pv.Ints[i])
	}
	if !lk.pok[i] {
		return nil
	}
	buf := lk.buf[:0]
	h := lk.ph[i]
	for j := lk.head[h&lk.mask]; j >= 0; j = lk.next[j] {
		if lk.bh[j] != h {
			continue // slot shared by a different hash
		}
		if !lk.pk.Equal(i, lk.bk, int(j)) {
			lk.collisions++
			continue
		}
		buf = append(buf, j)
	}
	lk.buf = buf
	return buf
}

// probeJoin probes build through lk for every probe row; see hashJoin.
// It is Definition 2.1's generalized selection over the candidate pairs
// lk names: the residual filters them, and unmatched rows of an outer
// side are NULL-padded.
func (e *vecEngine) probeJoin(kind plan.JoinKind, residual expr.Pred, envSchema *schema.Schema, probe, build *batch.Rel, lk *joinLookup, st *joinProbe) (psel, bsel []int32, err error) {
	np, nb := probe.Schema.Len(), build.Schema.Len()
	_, residualTrue := residual.(expr.True)
	var env expr.TupleEnv
	var scratch relation.Tuple
	if !residualTrue {
		env = expr.TupleEnv{Schema: envSchema}
		scratch = make(relation.Tuple, np+nb)
	}
	probeOuter := kind == plan.LeftJoin || kind == plan.FullJoin
	buildOuter := kind == plan.RightJoin || kind == plan.FullJoin
	var buildMatched []bool
	if buildOuter {
		buildMatched = make([]bool, build.N)
	}
	// With no residual to filter and no build row to mark, every
	// candidate is a match: a probe row's run goes out in one append.
	bulk := residualTrue && !buildOuter

	// Probe batch-at-a-time: guard checks, fault points and
	// incremental output charges once per batch. The match lists start at one batch
	// and grow by the fan-out seen so far.
	psel = make([]int32, 0, min(probe.N, e.batch))
	bsel = make([]int32, 0, min(probe.N, e.batch))
	residualEvals, padded := 0, 0
	charged := 0
	for lo := 0; lo < probe.N; lo += e.batch {
		if err := e.checkBatch(); err != nil {
			return nil, nil, err
		}
		if err := e.b.ChargeOut(len(psel)-charged, np+nb); err != nil {
			return nil, nil, err
		}
		charged = len(psel)
		hi := min(lo+e.batch, probe.N)
		for i := lo; i < hi; i++ {
			if cap(psel)-len(psel) < selSlack {
				// Nearly full: once enough probe rows are behind to trust
				// their fan-out, size for the rest of the probe side at that
				// fan-out plus a tenth; before that, double.
				rest := cap(psel)
				if i >= selSlack {
					rest = int(1.1 * float64(len(psel)) / float64(i) * float64(probe.N-i))
				}
				psel, bsel = slices.Grow(psel, rest+selSlack), slices.Grow(bsel, rest+selSlack)
			}
			run := lk.matches(i)
			matched := false
			if bulk {
				if matched = len(run) > 0; matched {
					n := len(psel)
					psel = slices.Grow(psel, len(run))[:n+len(run)]
					for k := n; k < len(psel); k++ {
						psel[k] = int32(i)
					}
					bsel = append(bsel, run...)
				}
			} else {
				if !residualTrue && len(run) > 0 {
					probe.ReadTuple(i, scratch[:np])
				}
				for _, j := range run {
					if !residualTrue {
						build.ReadTuple(int(j), scratch[np:])
						env.Tuple = scratch
						residualEvals++
						if !residual.Eval(&env).Holds() {
							continue
						}
					}
					matched = true
					if buildOuter {
						buildMatched[j] = true
					}
					psel = append(psel, int32(i))
					bsel = append(bsel, j)
				}
			}
			if !matched && probeOuter {
				psel = append(psel, int32(i))
				bsel = append(bsel, -1)
				padded++
			}
		}
	}
	if buildOuter {
		for j := 0; j < build.N; j++ {
			if buildMatched[j] {
				continue
			}
			psel = append(psel, -1)
			bsel = append(bsel, int32(j))
			padded++
		}
	}
	if st != nil {
		st.Collisions += lk.collisions
		st.ResidualEvals += residualEvals
		st.NullPadded += padded
	}
	if lk.collisions > 0 {
		e.reg.Counter("exec.hash.collisions").Add(int64(lk.collisions))
	}
	if err := e.b.ChargeOut(len(psel)-charged, np+nb); err != nil {
		return nil, nil, err
	}
	return psel, bsel, nil
}

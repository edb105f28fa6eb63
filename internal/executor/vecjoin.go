package executor

import (
	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
)

// vecJoin is the columnar hash join: build an array-chained hash
// table over the build side's precomputed key hashes, probe the other
// side batch-at-a-time accumulating (left,right) row-index pairs, and
// gather the output columns in one pass — NULL padding for outer
// kinds is index -1 in the same gather. The build side is the right
// input unless Adapt's swap threshold says the left one is the cheaper
// to hash; either way the output columns come out in (l, r) order.
// Non-equi predicates cannot be hashed and fall back to the tuple
// engine's nested loop; a build side that cannot fit the byte budget's
// headroom routes through the spilling grace join when the caller
// allows it (spillAllowed). Both escapes are counted.
func (e *vecEngine) vecJoin(kind plan.JoinKind, pred expr.Pred, l, r *batch.Rel, st *joinProbe) (*batch.Rel, error) {
	ls, rs := l.Schema, r.Schema
	keys, residual := splitEqui(pred, ls, rs)
	if len(keys) == 0 {
		e.reg.Counter("exec.vector.fallback.join-nonequi").Inc()
		out, err := joinExecProbe(kind, pred, l.ToRelation(), r.ToRelation(), st, e.b, e.adapt)
		if err != nil {
			return nil, err
		}
		return batch.FromRelation(out), nil
	}
	li := make([]int, len(keys))
	ri := make([]int, len(keys))
	for i, k := range keys {
		li[i], ri[i] = k.li, k.ri
	}
	// Mid-query adaptivity, decided before anything is built: the same
	// cascade as the row engine's adaptJoin. Escalation is checked on
	// the effective (post-swap) build side, so a swap that also cannot
	// fit memory goes straight to the grace join.
	swap := e.adapt.swapWanted(l.N, r.N)
	build := r
	if swap {
		build = l
	}
	buildRes := estBytes(build.N, build.Schema.Len())
	if free, limited := e.b.BytesFree(); limited && e.spillAllowed() && 2*buildRes > free {
		return e.spillJoin(kind, pred, l, r, st)
	}
	if err := e.b.ReserveBytes(buildRes); err != nil {
		return nil, err
	}
	defer e.b.ReleaseBytes(buildRes)

	outSchema := ls.Concat(rs)
	var lsel, rsel []int32
	var err error
	if swap {
		if err := guard.Hit(guard.PointExecBuildSwap); err != nil {
			return nil, err
		}
		e.reg.Counter("exec.adapt.swaps").Inc()
		if st != nil {
			st.BuildSwapped = true
		}
		// The mirrored join: r probes a table built on l, and r's outer
		// side is the mirror of l's. Rows stream out in r's order, then
		// l's unmatched — a different order, the same multiset.
		rsel, lsel, err = e.hashJoin(mirrorKind(kind), residual, outSchema, r, l, ri, li, true, st)
	} else {
		lsel, rsel, err = e.hashJoin(kind, residual, outSchema, l, r, li, ri, false, st)
	}
	if err != nil {
		return nil, err
	}
	return batch.Gather2(outSchema, l, lsel, r, rsel), nil
}

// mirrorKind is the join kind with its inputs exchanged.
func mirrorKind(k plan.JoinKind) plan.JoinKind {
	switch k {
	case plan.LeftJoin:
		return plan.RightJoin
	case plan.RightJoin:
		return plan.LeftJoin
	}
	return k
}

// spillAllowed reports whether a join whose build side outgrows the
// byte budget's headroom may go to disk: the RunVectorized* callers
// opt in wholesale, everyone else through Adapt.Spill. Without it the
// overrun is RunGuarded's typed guard.ErrBudget.
func (e *vecEngine) spillAllowed() bool {
	return e.autoSpill || e.adapt.spillWanted()
}

// spillJoin hands one join to the grace/spill join over the row-major
// seam, counted as an adaptive escalation when Adapt asked for it and
// on exec.vector.spill otherwise.
func (e *vecEngine) spillJoin(kind plan.JoinKind, pred expr.Pred, l, r *batch.Rel, st *joinProbe) (*batch.Rel, error) {
	opts := SpillOptions{}
	if e.adapt.spillWanted() {
		if err := guard.Hit(guard.PointExecBuildSwap); err != nil {
			return nil, err
		}
		e.reg.Counter("exec.adapt.spill_escalations").Inc()
		if st != nil {
			st.SpillEscalated = true
		}
		opts.Dir = e.adapt.SpillDir
	} else {
		e.reg.Counter("exec.vector.spill").Inc()
	}
	out, err := spillJoinProbe(kind, pred, l.ToRelation(), r.ToRelation(), st, e.b, e.reg, opts)
	if err != nil {
		return nil, err
	}
	return batch.FromRelation(out), nil
}

// hashJoin is the build/probe kernel: it hashes build on columns bi,
// probes with probe's columns pi, and returns the matched row-index
// pairs (probe rows in psel, build rows in bsel), -1 marking the
// NULL-padded side of an outer row. kind is read with probe as the
// left input and build as the right. The residual is evaluated over
// env-schema tuples laid out probe columns then build columns, or —
// buildFirst, a mirrored call — the other way round, so it always sees
// the plan's (l, r) layout.
func (e *vecEngine) hashJoin(kind plan.JoinKind, residual expr.Pred, envSchema *schema.Schema, probe, build *batch.Rel, pi, bi []int, buildFirst bool, st *joinProbe) (psel, bsel []int32, err error) {
	// Build: chain build rows with equal hash slots through two flat
	// int32 arrays — head per slot, next per row — instead of a
	// map[uint64][]int. Insertion prepends, so rows are inserted in
	// reverse and each chain iterates in ascending row order: per probe
	// row, matches emerge in the same order the tuple engine's
	// insertion-ordered buckets produce them, which keeps float
	// aggregates over join output accumulating in the same order
	// (bit-identical sums) on both engines.
	bh, bok := build.KeyHashes(bi, false)
	ph, pok := probe.KeyHashes(pi, false)
	P := nextPow2(2*build.N + 2)
	mask := uint64(P - 1)
	head := make([]int32, P)
	for i := range head {
		head[i] = -1
	}
	next := make([]int32, build.N)
	buildRows := 0
	for j := build.N - 1; j >= 0; j-- {
		if !bok[j] {
			continue
		}
		s := bh[j] & mask
		next[j] = head[s]
		head[s] = int32(j)
		buildRows++
	}
	if st != nil {
		st.BuildRows += buildRows
	}

	np, nb := probe.Schema.Len(), build.Schema.Len()
	pOff, bOff := 0, np
	if buildFirst {
		pOff, bOff = nb, 0
	}
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

	// Probe batch-at-a-time: guard checks, fault points and
	// incremental output charges once per batch, like the tuple
	// engine's per-batch protocol.
	psel = make([]int32, 0, probe.N)
	bsel = make([]int32, 0, probe.N)
	collisions, residualEvals, padded := 0, 0, 0
	charged := 0
	for lo := 0; lo < probe.N; lo += e.batch {
		if err := guard.Hit(guard.PointExecBatch); err != nil {
			return nil, nil, err
		}
		if err := e.b.Err(); err != nil {
			return nil, nil, err
		}
		if err := e.b.ChargeOut(len(psel)-charged, np+nb); err != nil {
			return nil, nil, err
		}
		charged = len(psel)
		hi := min(lo+e.batch, probe.N)
		for i := lo; i < hi; i++ {
			matched := false
			if pok[i] {
				h := ph[i]
				for j := head[h&mask]; j >= 0; j = next[j] {
					if bh[j] != h {
						continue // slot shared by a different hash
					}
					if !probe.EqualOn(i, build, int(j), pi, bi) {
						collisions++
						continue
					}
					if !residualTrue {
						probe.ReadTuple(i, scratch[pOff:pOff+np])
						build.ReadTuple(int(j), scratch[bOff:bOff+nb])
						env.Tuple = scratch
						residualEvals++
						if !residual.Eval(env).Holds() {
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
		st.Collisions += collisions
		st.ResidualEvals += residualEvals
		st.NullPadded += padded
	}
	if collisions > 0 {
		e.reg.Counter("exec.hash.collisions").Add(int64(collisions))
	}
	e.reg.Counter("exec.vector.join.batches").Add(int64((probe.N + e.batch - 1) / e.batch))
	if err := e.b.ChargeOut(len(psel)-charged, np+nb); err != nil {
		return nil, nil, err
	}
	return psel, bsel, nil
}

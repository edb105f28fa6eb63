package executor

import (
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

// This file implements the grace-style partitioned hash join: both
// inputs are partitioned by join-key hash across workers, per-partition
// tables are built and probed concurrently, and outer-join NULL padding
// happens per partition. The merge is deterministic — partition outputs
// concatenate in partition order, each internally ordered by probe-side
// tuple index, followed by NULL-key pads in index order — so repeated
// runs produce identical relations, multiset-equal to the serial Run.

// minPartitionRows is the combined input size below which partitioning
// costs more than it saves and the serial join runs instead.
const minPartitionRows = 512

// JoinExecParallel joins two materialized relations like JoinExec,
// but grace-partitioned across workers goroutines (0 = GOMAXPROCS).
// It falls back to the serial join — recorded on the
// exec.partition.fallback.* counters — when no equi conjunct exists,
// when only one worker is available, or when the inputs are small.
func JoinExecParallel(kind plan.JoinKind, pred expr.Pred, l, r *relation.Relation, workers int) (*relation.Relation, error) {
	return JoinExecParallelGuarded(kind, pred, l, r, workers, nil)
}

// JoinExecParallelGuarded is JoinExecParallel under a budget:
// cancellation and tripped limits are observed by every worker before
// it claims its next partition, so an abort drains the pool at the
// next partition boundary — the WaitGroup join guarantees no worker
// goroutine outlives the call, and the per-partition outputs and
// arenas of an aborted join are dropped wholesale.
func JoinExecParallelGuarded(kind plan.JoinKind, pred expr.Pred, l, r *relation.Relation, workers int, b *guard.Budget) (out *relation.Relation, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	phase := "execute"
	defer guard.RecoverAs(&err, &phase, "", nil)
	return partitionedJoinProbe(kind, pred, l, r, workers, nil, b, nil)
}

func partitionedJoinProbe(kind plan.JoinKind, pred expr.Pred, l, r *relation.Relation, workers int, st *joinProbe, b *guard.Budget, a *Adapt) (*relation.Relation, error) {
	ls, rs := l.Schema(), r.Schema()
	keys, residual := splitEqui(pred, ls, rs)
	reg := b.Registry()
	if len(keys) == 0 {
		reg.Counter("exec.partition.fallback.nonequi").Inc()
		return joinExecProbe(kind, pred, l, r, st, b, a)
	}
	if workers <= 1 || l.Len()+r.Len() < minPartitionRows {
		reg.Counter("exec.partition.fallback.small").Inc()
		return joinExecProbe(kind, pred, l, r, st, b, a)
	}
	// An adaptive build/probe swap covers the whole join, not one
	// partition: delegate to the serial adaptive join, which commits
	// the swap (or its own spill escalation) before the first probe.
	if a.swapWanted(l.Len(), r.Len()) {
		reg.Counter("exec.partition.fallback.adapt").Inc()
		return joinExecProbe(kind, pred, l, r, st, b, a)
	}
	// Out-of-core escape: when the build side's modeled footprint
	// cannot fit the byte budget's remaining headroom, the in-memory
	// partitioned join would trip — spill to disk and recurse instead.
	if free, limited := b.BytesFree(); limited {
		if need := estBytes(r.Len(), rs.Len()); 2*need > free {
			reg.Counter("exec.partition.spill").Inc()
			opts := SpillOptions{}
			if a != nil {
				opts.Dir = a.SpillDir
			}
			return spillJoinProbe(kind, pred, l, r, st, b, reg, opts)
		}
	}
	li := make([]int, len(keys))
	ri := make([]int, len(keys))
	for i, k := range keys {
		li[i], ri[i] = k.li, k.ri
	}

	// The spill check above guarantees this reservation fits (or the
	// budget is unlimited and it no-ops).
	buildRes := estBytes(r.Len(), rs.Len())
	if err := b.ReserveBytes(buildRes); err != nil {
		return nil, err
	}
	defer b.ReleaseBytes(buildRes)

	P := nextPow2(workers)
	reg.Counter("exec.partition.joins").Inc()
	reg.Counter("exec.hash.partitions").Add(int64(P))

	// Phase 1: hash both sides and scatter tuple indices into
	// partitions, chunk-parallel. NULL-key tuples match nothing and
	// are set aside for padding.
	lh, lok, err := hashSide(l, li, workers)
	if err != nil {
		return nil, err
	}
	rh, rok, err := hashSide(r, ri, workers)
	if err != nil {
		return nil, err
	}
	lparts, lnull, err := scatter(lh, lok, P, workers)
	if err != nil {
		return nil, err
	}
	rparts, rnull, err := scatter(rh, rok, P, workers)
	if err != nil {
		return nil, err
	}

	// Phase 2: build per-partition hash tables concurrently. The
	// bucket payload is the position within the partition's index
	// list, so the probe phase can mark per-partition match bitmaps
	// without sharing state across partitions.
	builds := make([]map[uint64][]int32, P)
	if err := eachPartition(workers, P, b, func(_, p int) error {
		m := make(map[uint64][]int32, len(rparts[p]))
		for k, j := range rparts[p] {
			m[rh[j]] = append(m[rh[j]], int32(k))
		}
		builds[p] = m
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 3: probe concurrently. Each worker owns a tuple arena;
	// each partition owns its output slice and right-match bitmap.
	nl, nr := ls.Len(), rs.Len()
	outSchema := ls.Concat(rs)
	outs := make([][]relation.Tuple, P)
	rmatched := make([][]bool, P)
	stats := make([]joinProbe, workers)
	arenas := make([]*tupleArena, workers)
	leftOuter := kind == plan.LeftJoin || kind == plan.FullJoin
	if err := eachPartition(workers, P, b, func(w, p int) error {
		if arenas[w] == nil {
			arenas[w] = newTupleArena(nl + nr)
		}
		arena := arenas[w]
		ws := &stats[w]
		my := make([]bool, len(rparts[p]))
		var rows []relation.Tuple
		env := expr.TupleEnv{Schema: outSchema}
		scratch := make(relation.Tuple, nl+nr)
		build := builds[p]
		for _, i := range lparts[p] {
			lt := l.Tuple(int(i))
			matched := false
			for _, k := range build[lh[i]] {
				rt := r.Tuple(int(rparts[p][k]))
				if !lt.EqualOn(rt, li, ri) {
					ws.Collisions++
					continue
				}
				copy(scratch, lt)
				copy(scratch[nl:], rt)
				env.Tuple = scratch
				ws.ResidualEvals++
				if residual.Eval(env).Holds() {
					matched = true
					my[k] = true
					row := arena.next()
					copy(row, scratch)
					rows = append(rows, row)
				}
			}
			if !matched && leftOuter {
				row := arena.next()
				copy(row, lt)
				for x := nl; x < nl+nr; x++ {
					row[x] = value.Null
				}
				ws.NullPadded++
				rows = append(rows, row)
			}
		}
		outs[p] = rows
		rmatched[p] = my
		// Charge the partition's output as it completes; a trip stops
		// the remaining workers at their next partition claim.
		return b.ChargeOut(len(rows), nl+nr)
	}); err != nil {
		return nil, err
	}

	// Phase 4: deterministic merge — partition outputs in partition
	// order, then NULL-key left pads, then unmatched right pads.
	out := relation.New(outSchema)
	for p := 0; p < P; p++ {
		out.AppendAll(outs[p])
	}
	merged := joinProbe{Partitions: P}
	for w := range stats {
		merged.Collisions += stats[w].Collisions
		merged.ResidualEvals += stats[w].ResidualEvals
		merged.NullPadded += stats[w].NullPadded
	}
	pad := newTupleArena(nl + nr)
	padStart := out.Len()
	if leftOuter {
		for _, i := range lnull {
			row := pad.next()
			copy(row, l.Tuple(int(i)))
			for x := nl; x < nl+nr; x++ {
				row[x] = value.Null
			}
			merged.NullPadded++
			out.Append(row)
		}
	}
	if kind == plan.RightJoin || kind == plan.FullJoin {
		for p := 0; p < P; p++ {
			for k, j := range rparts[p] {
				if rmatched[p][k] {
					continue
				}
				row := pad.next()
				for x := 0; x < nl; x++ {
					row[x] = value.Null
				}
				copy(row[nl:], r.Tuple(int(j)))
				merged.NullPadded++
				out.Append(row)
			}
		}
		for _, j := range rnull {
			row := pad.next()
			for x := 0; x < nl; x++ {
				row[x] = value.Null
			}
			copy(row[nl:], r.Tuple(int(j)))
			merged.NullPadded++
			out.Append(row)
		}
	}

	if pads := out.Len() - padStart; pads > 0 {
		if err := b.ChargeOut(pads, nl+nr); err != nil {
			return nil, err
		}
	}

	if st != nil {
		st.BuildRows += countNonNull(rok)
		st.ResidualEvals += merged.ResidualEvals
		st.NullPadded += merged.NullPadded
		st.Collisions += merged.Collisions
		st.Partitions = P
	}
	if merged.Collisions > 0 {
		reg.Counter("exec.hash.collisions").Add(int64(merged.Collisions))
	}
	all := append(append([]*tupleArena(nil), pad), arenas...)
	live := all[:0]
	for _, a := range all {
		if a != nil {
			live = append(live, a)
		}
	}
	st.flushArenas(reg, live...)
	return out, nil
}

// hashSide computes the join-key hash of every tuple, chunk-parallel;
// ok[i] is false for NULL keys.
func hashSide(rel *relation.Relation, idx []int, workers int) ([]uint64, []bool, error) {
	n := rel.Len()
	hs := make([]uint64, n)
	oks := make([]bool, n)
	err := eachChunk(workers, n, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			hs[i], oks[i] = fastKey(rel.Tuple(i), idx)
		}
		return nil
	})
	return hs, oks, err
}

// scatter distributes tuple indices into P hash partitions,
// chunk-parallel with per-worker locals merged in worker order so
// every partition's index list stays ascending (the determinism the
// merge step relies on). NULL-key indices are returned separately.
func scatter(hs []uint64, oks []bool, P, workers int) (parts [][]int32, nullKeys []int32, err error) {
	mask := uint64(P - 1)
	locals := make([][][]int32, workers)
	localNull := make([][]int32, workers)
	if err := eachChunk(workers, len(hs), func(w, lo, hi int) error {
		lp := make([][]int32, P)
		var ln []int32
		for i := lo; i < hi; i++ {
			if !oks[i] {
				ln = append(ln, int32(i))
				continue
			}
			p := int(hs[i] & mask)
			lp[p] = append(lp[p], int32(i))
		}
		locals[w] = lp
		localNull[w] = ln
		return nil
	}); err != nil {
		return nil, nil, err
	}
	parts = make([][]int32, P)
	for p := 0; p < P; p++ {
		for w := 0; w < workers; w++ {
			if locals[w] != nil {
				parts[p] = append(parts[p], locals[w][p]...)
			}
		}
	}
	for w := 0; w < workers; w++ {
		nullKeys = append(nullKeys, localNull[w]...)
	}
	return parts, nullKeys, nil
}

// eachChunk runs f over [0,n) split into at most `workers` contiguous
// chunks, one goroutine each; chunk w covers ascending indices. Each
// chunk runs under Safely, so a panic in one worker surfaces as the
// call's error instead of crashing the pool; the lowest-indexed
// chunk's error wins, keeping failures deterministic.
func eachChunk(workers, n int, f func(w, lo, hi int) error) error {
	if n == 0 {
		return nil
	}
	chunk := (n + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = guard.Safely("join.chunk", "", nil, func() error {
				return f(w, lo, hi)
			})
		}(w, lo, hi)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// eachPartition runs f(w, p) for every partition p, with worker w
// owning partitions p ≡ w (mod workers). Before claiming a partition
// every worker re-checks the budget, so cancellation or a tripped
// limit drains the pool at the next partition boundary; the WaitGroup
// join means no worker goroutine outlives the call. Each item runs
// under Safely (a panic becomes that partition's error), and the
// lowest-indexed partition's error is the one reported, independent of
// goroutine scheduling.
func eachPartition(workers, P int, b *guard.Budget, f func(w, p int) error) error {
	errs := make([]error, P)
	var wg sync.WaitGroup
	for w := 0; w < workers && w < P; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := w; p < P; p += workers {
				if err := b.Err(); err != nil {
					errs[p] = err
					return
				}
				// The fault point sits inside Safely: an injected panic
				// on a pool goroutine must be contained here, not crash
				// the process past the caller's boundary defer.
				errs[p] = guard.Safely("join.partition", "", nil, func() error {
					if err := guard.Hit(guard.PointExecPartition); err != nil {
						return err
					}
					return f(w, p)
				})
				if errs[p] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

func countNonNull(oks []bool) int {
	n := 0
	for _, ok := range oks {
		if ok {
			n++
		}
	}
	return n
}

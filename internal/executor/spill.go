package executor

import (
	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/schema"
)

// This file implements the partitioned leg of the columnar hash join:
// when the build side's modelled footprint would trip the byte budget,
// the row indices of both inputs are split into partitions by join-key
// hash and each partition pair is joined on its own — in memory when
// its build table fits the remaining headroom, split again on the next
// 4 hash bits when it does not. Partitioning is by key hash
// (batch.Rel.KeyHashes, bit-identical to Tuple.HashOn, so an INT and
// the FLOAT equal to it hash alike), so all potential matches of a row
// land in the same partition at every level, each pair joins with the
// original join kind, and its outer padding stays correct. Rows with a
// NULL key match nothing under a null-intolerant predicate: they are
// set aside before the first split and padded once, at the end.
// Partitions are joined in ascending index with rows in input order,
// so partitioned execution is deterministic and multiset-equal to the
// unpartitioned join.
//
// Nothing is copied or re-shaped: a partition is a Rel.Select view of
// the join's inputs (already materialized and charged), each pair's
// selection vectors are mapped back to input rows, and the output is
// one batch.Gather2 over the inputs. Budget accounting is exactly-once
// in two currencies: output rows and bytes are charged cumulatively by
// the per-partition probes (each output row comes from one partition)
// and the NULL-key pads once at the end, while a partition's build
// table is reserved with ReserveBytes for as long as the pair joins.
// The budget therefore sees one partition's table at a time, not the
// whole build side.

const (
	// spillFanout is the partition count per level: 2^spillHashBits.
	spillFanout   = 16
	spillHashBits = 4
	// maxSpillDepth bounds recursion. Each level consumes
	// spillHashBits fresh hash bits, so 8 levels consume 32 of the 64
	// key-hash bits — enough to cut any realistically skewed input,
	// while guaranteeing termination when a single key dominates (a
	// partition of identical keys never shrinks; splitting it again
	// would re-create it forever). At the bound the partition is joined
	// in memory regardless, surfacing a typed budget trip if it truly
	// does not fit.
	maxSpillDepth = 8
	// spillMinRows is the combined partition size below which another
	// split cannot pay for itself: such partitions are joined in memory
	// (attempting the reservation) instead of split ever finer.
	spillMinRows = 128
)

// valueWidth mirrors guard's per-value width estimate for
// resident-footprint modelling.
const valueWidth = 32

// estBytes models the resident footprint of rows×width values.
func estBytes(rows, width int) int64 {
	return int64(rows) * int64(width) * valueWidth
}

// fits reports whether a build table of res modelled bytes leaves half
// the byte budget's headroom for the join's output; always true
// without a byte limit.
func (e *vecEngine) fits(res int64) bool {
	free, limited := e.b.BytesFree()
	return !limited || 2*res <= free
}

// partJoin carries one partitioned join: its inputs, their key hashes,
// and the output's selection vectors into the inputs (-1 = NULL pad).
type partJoin struct {
	e          *vecEngine
	kind       plan.JoinKind
	residual   expr.Pred
	schema     *schema.Schema
	l, r       *batch.Rel
	li, ri     []int
	lh, rh     []uint64
	st         *joinProbe
	lsel, rsel []int32
}

// partitionJoin joins l and r on the key columns li, ri (plus residual)
// partition by partition, metering exec.spill.* into e.reg. The build
// side of every partition is its right input; see hashJoin for the
// arguments.
func (e *vecEngine) partitionJoin(kind plan.JoinKind, residual expr.Pred, outSchema *schema.Schema, l, r *batch.Rel, li, ri []int, st *joinProbe) (*batch.Rel, error) {
	e.reg.Counter("exec.spill.joins").Inc()
	pj := &partJoin{e: e, kind: kind, residual: residual, schema: outSchema, l: l, r: r, li: li, ri: ri, st: st}
	var lok, rok []bool
	pj.lh, lok = l.KeyHashes(li, false)
	pj.rh, rok = r.KeyHashes(ri, false)
	lrows, lnull := keyed(lok)
	rrows, rnull := keyed(rok)
	if err := pj.split(lrows, rrows, 0); err != nil {
		return nil, err
	}

	// NULL-key padding, once, at the end: these rows are in no
	// partition.
	pads := 0
	if kind == plan.LeftJoin || kind == plan.FullJoin {
		for _, i := range lnull {
			pj.lsel, pj.rsel = append(pj.lsel, i), append(pj.rsel, -1)
		}
		pads += len(lnull)
	}
	if kind == plan.RightJoin || kind == plan.FullJoin {
		for _, j := range rnull {
			pj.lsel, pj.rsel = append(pj.lsel, -1), append(pj.rsel, j)
		}
		pads += len(rnull)
	}
	if st != nil {
		st.NullPadded += pads
	}
	if err := e.b.ChargeOut(pads, outSchema.Len()); err != nil {
		return nil, err
	}
	return batch.Gather2(outSchema, l, pj.lsel, r, pj.rsel), nil
}

// keyed lists the rows whose key has no NULL, and the rest.
func keyed(ok []bool) (rows, null []int32) {
	rows = make([]int32, 0, len(ok))
	for i, k := range ok {
		if k {
			rows = append(rows, int32(i))
		} else {
			null = append(null, int32(i))
		}
	}
	return rows, null
}

// split distributes one partition pair over the spillFanout
// partitions of level by their key hashes' bits at that level, and
// joins the children in partition order. A child that did not shrink
// (every row shares the parent's hash bits at this level — one
// dominant key) is forced in memory: more levels cannot split it.
func (pj *partJoin) split(lrows, rrows []int32, level int) error {
	lparts := pj.scatter(lrows, pj.lh, level)
	rparts := pj.scatter(rrows, pj.rh, level)
	for p := 0; p < spillFanout; p++ {
		if err := pj.e.b.Err(); err != nil {
			return err
		}
		force := len(lparts[p]) == len(lrows) && len(rparts[p]) == len(rrows)
		if err := pj.join(lparts[p], rparts[p], level, force); err != nil {
			return err
		}
	}
	return nil
}

// scatter routes rows to partitions by hash bits, counting the
// non-empty ones on exec.spill.partitions.
func (pj *partJoin) scatter(rows []int32, hs []uint64, level int) [spillFanout][]int32 {
	var parts [spillFanout][]int32
	shift := uint(spillHashBits * level)
	for _, i := range rows {
		p := (hs[i] >> shift) & (spillFanout - 1)
		parts[p] = append(parts[p], i)
	}
	n := 0
	for _, part := range parts {
		if len(part) > 0 {
			n++
		}
	}
	pj.e.reg.Counter("exec.spill.partitions").Add(int64(n))
	if pj.st != nil {
		pj.st.SpillParts += n
	}
	return parts
}

// join joins one partition pair at the given level: in memory when its
// build table fits (or when force, the depth bound, or the
// small-partition floor applies), split on the next level's hash bits
// otherwise.
func (pj *partJoin) join(lrows, rrows []int32, level int, force bool) error {
	if len(lrows) == 0 && len(rrows) == 0 {
		return nil
	}
	e := pj.e
	res := estBytes(len(rrows), pj.r.Schema.Len())
	if !e.fits(res) && !force && level+1 < maxSpillDepth && len(lrows)+len(rrows) > spillMinRows {
		e.reg.Counter("exec.spill.recursions").Inc()
		if pj.st != nil {
			pj.st.SpillRecursions++
		}
		return pj.split(lrows, rrows, level+1)
	}
	if err := e.b.ReserveBytes(res); err != nil {
		return err
	}
	defer e.b.ReleaseBytes(res)
	psel, bsel, err := e.hashJoin(pj.kind, pj.residual, pj.schema, pj.l.Select(lrows), pj.r.Select(rrows), pj.li, pj.ri, pj.st)
	if err != nil {
		return err
	}
	for k := range psel {
		pj.lsel = append(pj.lsel, inputRow(lrows, psel[k]))
		pj.rsel = append(pj.rsel, inputRow(rrows, bsel[k]))
	}
	return nil
}

// inputRow maps a partition-local row to its input row; -1 stays -1.
func inputRow(rows []int32, i int32) int32 {
	if i < 0 {
		return -1
	}
	return rows[i]
}

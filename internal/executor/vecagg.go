package executor

import (
	"cmp"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// This file holds the unary columnar kernels: selection, (distinct)
// projection and grouped aggregation.

// vecSelect filters batch-at-a-time. The predicate is split into
// conjuncts; each conjunct that is a comparison over resolvable
// columns compiles to a typed kernel (int64/float64/string loops over
// the column payloads, boxed value.Apply otherwise), and anything else
// — disjunctions, arithmetic, unresolved columns — evaluates row-wise
// through the same TupleEnv the tuple engine uses, so three-valued
// semantics cannot diverge. Selection vectors stay ascending, so
// vecSelect preserves input order exactly like algebra.Select.
func (e *vecEngine) vecSelect(pred expr.Pred, in *batch.Rel) (*batch.Rel, error) {
	conjs := expr.Conjuncts(pred)
	kernels := make([]func([]int32) []int32, 0, len(conjs))
	for _, c := range conjs {
		if _, ok := c.(expr.True); ok {
			continue
		}
		kernels = append(kernels, e.compileConjunct(c, in))
	}
	if len(kernels) == 0 {
		return in, nil
	}
	sel := make([]int32, 0, in.N)
	chunk := make([]int32, 0, e.batch)
	for lo := 0; lo < in.N; lo += e.batch {
		if err := guard.Hit(guard.PointExecBatch); err != nil {
			return nil, err
		}
		if err := e.b.Err(); err != nil {
			return nil, err
		}
		hi := min(lo+e.batch, in.N)
		chunk = chunk[:0]
		for i := lo; i < hi; i++ {
			chunk = append(chunk, int32(i))
		}
		cand := chunk
		for _, k := range kernels {
			if cand = k(cand); len(cand) == 0 {
				break
			}
		}
		sel = append(sel, cand...)
	}
	if len(sel) == in.N {
		return in, nil
	}
	return in.Select(sel), nil
}

// keepCmp applies a comparison operator to an int or string pair, whose
// Go order is value.Compare's.
func keepCmp[T int64 | string](op value.CmpOp, a, b T) bool {
	switch op {
	case value.EQ:
		return a == b
	case value.NE:
		return a != b
	case value.LT:
		return a < b
	case value.LE:
		return a <= b
	case value.GT:
		return a > b
	case value.GE:
		return a >= b
	}
	return false
}

// compileConjunct turns one conjunct into a selection-vector filter.
// The returned kernel compacts sel in place, keeping rows where the
// conjunct is True (three-valued: Unknown filters, same as the tuple
// engine's Holds()).
func (e *vecEngine) compileConjunct(p expr.Pred, in *batch.Rel) func([]int32) []int32 {
	if c, ok := p.(expr.Cmp); ok {
		if k := e.compileCmp(c, in); k != nil {
			return k
		}
	}
	// Generic conjunct: row-wise three-valued evaluation over a scratch
	// tuple. Counted so plans stuck on the slow path are visible.
	e.reg.Counter("exec.vector.select.generic").Inc()
	env := expr.TupleEnv{Schema: in.Schema}
	scratch := make(relation.Tuple, in.Schema.Len())
	return func(sel []int32) []int32 {
		out := sel[:0]
		for _, s := range sel {
			in.ReadTuple(int(s), scratch)
			env.Tuple = scratch
			if p.Eval(env).Holds() {
				out = append(out, s)
			}
		}
		return out
	}
}

// compileCmp builds a typed kernel for a comparison conjunct, or nil
// when its operands are not resolvable columns/constants.
func (e *vecEngine) compileCmp(c expr.Cmp, in *batch.Rel) func([]int32) []int32 {
	op := c.Op
	l, r := c.L, c.R
	// Normalize const-vs-column to column-vs-const.
	if _, ok := l.(expr.Const); ok {
		if _, ok := r.(expr.Col); ok {
			l, r, op = r, l, op.Flip()
		}
	}
	switch lc := l.(type) {
	case expr.Col:
		ci := in.Schema.IndexOf(lc.Attr)
		if ci < 0 {
			return nil
		}
		switch rc := r.(type) {
		case expr.Const:
			return e.colConstKernel(op, in.Col(ci), rc.Val)
		case expr.Col:
			cj := in.Schema.IndexOf(rc.Attr)
			if cj < 0 {
				return nil
			}
			return e.colColKernel(op, in.Col(ci), in.Col(cj))
		}
	}
	return nil
}

// colConstKernel compares one column against a literal. Monomorphic
// columns whose physical kind matches the literal run branch-light
// typed loops; everything else (PhysAny, INT column vs FLOAT literal,
// …) boxes through value.Apply, which carries the exact NULL and
// cross-kind comparison semantics.
func (e *vecEngine) colConstKernel(op value.CmpOp, v *batch.Vec, cv value.Value) func([]int32) []int32 {
	if cv.IsNull() {
		// θ NULL is Unknown for every row: nothing qualifies.
		return func(sel []int32) []int32 { return sel[:0] }
	}
	switch {
	case v.Phys == batch.PhysInt && cv.Kind() == value.KindInt:
		k := cv.Int()
		return func(sel []int32) []int32 {
			out := sel[:0]
			for _, s := range sel {
				if !v.IsNull(int(s)) && keepCmp(op, v.Ints[s], k) {
					out = append(out, s)
				}
			}
			return out
		}
	case v.Phys == batch.PhysFloat && cv.Kind() == value.KindFloat:
		k := cv.Float()
		return func(sel []int32) []int32 {
			out := sel[:0]
			for _, s := range sel {
				if !v.IsNull(int(s)) && op.Accepts(value.CompareFloat(v.Floats[s], k)) {
					out = append(out, s)
				}
			}
			return out
		}
	case v.Phys == batch.PhysStr && cv.Kind() == value.KindString:
		k := cv.Str()
		return func(sel []int32) []int32 {
			out := sel[:0]
			for _, s := range sel {
				if !v.IsNull(int(s)) && keepCmp(op, v.Strs[s], k) {
					out = append(out, s)
				}
			}
			return out
		}
	default:
		return func(sel []int32) []int32 {
			out := sel[:0]
			for _, s := range sel {
				if value.Apply(op, v.At(int(s)), cv).Holds() {
					out = append(out, s)
				}
			}
			return out
		}
	}
}

// colColKernel compares two columns of the same relation row-wise.
func (e *vecEngine) colColKernel(op value.CmpOp, a, b *batch.Vec) func([]int32) []int32 {
	if a.Phys == b.Phys {
		switch a.Phys {
		case batch.PhysInt:
			return func(sel []int32) []int32 {
				out := sel[:0]
				for _, s := range sel {
					if !a.IsNull(int(s)) && !b.IsNull(int(s)) && keepCmp(op, a.Ints[s], b.Ints[s]) {
						out = append(out, s)
					}
				}
				return out
			}
		case batch.PhysFloat:
			return func(sel []int32) []int32 {
				out := sel[:0]
				for _, s := range sel {
					if !a.IsNull(int(s)) && !b.IsNull(int(s)) && op.Accepts(value.CompareFloat(a.Floats[s], b.Floats[s])) {
						out = append(out, s)
					}
				}
				return out
			}
		case batch.PhysStr:
			return func(sel []int32) []int32 {
				out := sel[:0]
				for _, s := range sel {
					if !a.IsNull(int(s)) && !b.IsNull(int(s)) && keepCmp(op, a.Strs[s], b.Strs[s]) {
						out = append(out, s)
					}
				}
				return out
			}
		}
	}
	return func(sel []int32) []int32 {
		out := sel[:0]
		for _, s := range sel {
			if value.Apply(op, a.At(int(s)), b.At(int(s))).Holds() {
				out = append(out, s)
			}
		}
		return out
	}
}

// vecProject projects to sh.Out, the columns at sh.Cols (projectShape).
// The non-distinct case is zero-copy: the output relation shares the
// input's column vectors and pending views. DISTINCT dedupes on the
// projected columns' key hashes (NULL identical to NULL, like
// relation.Project's tuple set) keeping first occurrences in input
// order.
func (e *vecEngine) vecProject(sh *plan.Shape, distinct bool, in *batch.Rel) (*batch.Rel, error) {
	proj := in.Project(sh.Out, sh.Cols)
	if !distinct {
		return proj, nil
	}
	all := make([]int, len(sh.Cols))
	for i := range all {
		all[i] = i
	}
	hs, _ := proj.KeyHashes(all, true)
	ks := proj.Keys(all)
	seen := make(map[uint64][]int32)
	sel := make([]int32, 0, in.N)
	for i := 0; i < in.N; i++ {
		if err := e.checkBatch(i); err != nil {
			return nil, err
		}
		h := hs[i]
		dup := false
		for _, j := range seen[h] {
			if ks.Equal(i, ks, int(j)) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[h] = append(seen[h], int32(i))
		sel = append(sel, int32(i))
	}
	return proj.Select(sel), nil
}

// projectShape is projection m's shape over input schema in: the one m
// holds when it was derived from in, else derived here and offered to
// m.
func projectShape(m *plan.Project, in *schema.Schema) *plan.Shape {
	if sh := plan.CachedShape(m, in, nil); sh != nil {
		return sh
	}
	return plan.OfferShape(m, &plan.Shape{In: [2]*schema.Schema{in}, Out: schema.New(m.Attrs...), Cols: positions(in, m.Attrs)})
}

// groupShape is grouping m's shape over input schema in, as
// projectShape: its keys then its aggregates' outputs as the output
// schema, the keys' input positions as Cols.
func groupShape(m *plan.GroupBy, in *schema.Schema) *plan.Shape {
	if sh := plan.CachedShape(m, in, nil); sh != nil {
		return sh
	}
	out := append([]schema.Attribute(nil), m.Keys...)
	for _, a := range m.Aggs {
		out = append(out, a.Out)
	}
	return plan.OfferShape(m, &plan.Shape{In: [2]*schema.Schema{in}, Out: schema.New(out...), Cols: positions(in, m.Keys)})
}

// positions is the position of each of attrs in s; a missing attribute
// is a plan the validator should have refused.
func positions(s *schema.Schema, attrs []schema.Attribute) []int {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		if idx[i] = s.IndexOf(a); idx[i] < 0 {
			panic(fmt.Sprintf("executor: attribute %s not in %s", a, s))
		}
	}
	return idx
}

// checkBatch fires the per-batch guard protocol every e.batch rows of
// a row-indexed kernel loop.
func (e *vecEngine) checkBatch(i int) error {
	if i%e.batch != 0 {
		return nil
	}
	if err := guard.Hit(guard.PointExecBatch); err != nil {
		return err
	}
	return e.b.Err()
}

// vecGroupBy is the columnar generalized projection. Pass one
// assigns every row a dense group id (groupIDs: NULL identical to NULL,
// groups in first-seen order — exactly algebra.GroupProject's
// bucketing, whichever way the keys are looked up). Pass two accumulates each
// aggregate with a per-aggregate loop over the typed column payloads:
// COUNT(*), and COUNT/SUM/AVG/MIN/MAX over a monomorphic int or float
// column, never box a value. Distinct aggregates, non-column
// arguments and mixed-kind columns accumulate through the shared
// algebra.AggState, so results are bit-identical to the tuple engine
// (float sums fold in input order in both passes). The output is
// columnar from the start: each key column is one gather of the
// groups' first rows, each aggregate a column of its own. The output
// schema and the key columns' positions come from sh (groupShape).
func (e *vecEngine) vecGroupBy(sh *plan.Shape, aggs []algebra.Aggregate, in *batch.Rel) (*batch.Rel, error) {
	keyIdx, outSchema := sh.Cols, sh.Out

	// Pass 1: dense group ids, first-seen order.
	groupOf, firstRow, err := e.groupIDs(in, keyIdx)
	if err != nil {
		return nil, err
	}
	ngroups := len(firstRow)

	// SQL: aggregation over an empty input with no GROUP BY columns
	// produces a single row of "empty" aggregates.
	if ngroups == 0 {
		out := relation.New(outSchema)
		if len(keyIdx) == 0 && len(aggs) > 0 {
			row := make(relation.Tuple, 0, len(aggs))
			for _, a := range aggs {
				row = append(row, algebra.NewAggState(a.Func).Result(a.Func, a.NullIfEmpty))
			}
			out.Append(row)
		}
		return batch.FromRelation(out), nil
	}

	// Pass 2: one accumulation loop per aggregate.
	cols := make([]batch.Vec, 0, len(keyIdx)+len(aggs))
	for _, c := range keyIdx {
		cols = append(cols, in.Col(c).Gather(firstRow))
	}
	for _, a := range aggs {
		res, typed := vecAggTyped(a, in, groupOf, ngroups)
		if !typed {
			e.reg.Counter("exec.vector.agg.generic").Inc()
			res = vecAggGeneric(a, in, groupOf, ngroups)
		}
		cols = append(cols, res)
	}
	return batch.NewRel(outSchema, cols, ngroups), nil
}

// groupIDs assigns every row of in a group id over the key columns at
// keyIdx (NULL identical to NULL), ids numbered in first-seen order,
// and returns each group's first row. One int64 key whose values are
// dense (batch.DenseRange) indexes a slot array by key − min, plus one
// slot for NULL; any other key goes through the hashed table.
func (e *vecEngine) groupIDs(in *batch.Rel, keyIdx []int) (groupOf, firstRow []int32, err error) {
	if len(keyIdx) == 1 {
		v := in.Col(keyIdx[0])
		if lo, hi, ok := batch.DenseRange(v); ok {
			return e.groupIDsDense(v, lo, hi)
		}
	}
	return e.groupIDsHashed(in, keyIdx)
}

// groupIDsDense is groupIDs over one dense int64 column with values in
// [lo, hi].
func (e *vecEngine) groupIDsDense(v *batch.Vec, lo, hi int64) (groupOf, firstRow []int32, err error) {
	n := v.Len()
	groupOf = make([]int32, n)
	slots := make([]int32, int(hi-lo)+2) // the last one is NULL's
	for s := range slots {
		slots[s] = -1
	}
	null := len(slots) - 1
	for i, x := range v.Ints {
		if err := e.checkBatch(i); err != nil {
			return nil, nil, err
		}
		s := null
		if !v.IsNull(i) {
			s = int(x - lo)
		}
		g := slots[s]
		if g < 0 {
			g = int32(len(firstRow))
			firstRow = append(firstRow, int32(i))
			slots[s] = g
		}
		groupOf[i] = g
	}
	return groupOf, firstRow, nil
}

// groupIDsHashed is groupIDs through an open-addressed table over the
// key hashes (cached per group, so probes compare a uint64 before
// Keys.Equal verifies) — no per-row map traffic. The table doubles as
// groups fill it, so it is sized by the number of groups, not of input
// rows.
func (e *vecEngine) groupIDsHashed(in *batch.Rel, keyIdx []int) (groupOf, firstRow []int32, err error) {
	hs, _ := in.KeyHashes(keyIdx, true)
	ks := in.Keys(keyIdx)
	groupOf = make([]int32, in.N)
	var ghash []uint64
	slots := make([]int32, 64)
	mask := uint64(len(slots) - 1)
	for i := range slots {
		slots[i] = -1
	}
	for i := 0; i < in.N; i++ {
		if err := e.checkBatch(i); err != nil {
			return nil, nil, err
		}
		h := hs[i]
		s := h & mask
		var g int32
		for {
			g = slots[s]
			if g < 0 {
				g = int32(len(firstRow))
				firstRow = append(firstRow, int32(i))
				ghash = append(ghash, h)
				slots[s] = g
				break
			}
			if ghash[g] == h && ks.Equal(i, ks, int(firstRow[g])) {
				break
			}
			s = (s + 1) & mask
		}
		groupOf[i] = g
		if 2*len(firstRow) > len(slots) {
			slots = make([]int32, 2*len(slots))
			mask = uint64(len(slots) - 1)
			for s := range slots {
				slots[s] = -1
			}
			for g, h := range ghash {
				s := h & mask
				for slots[s] >= 0 {
					s = (s + 1) & mask
				}
				slots[s] = int32(g)
			}
		}
	}
	return groupOf, firstRow, nil
}

// vecAggTyped accumulates one aggregate with unboxed loops when the
// aggregate is COUNT(*) or a plain COUNT/SUM/AVG/MIN/MAX over a
// monomorphic int or float column. Reports typed=false otherwise.
func vecAggTyped(a algebra.Aggregate, in *batch.Rel, groupOf []int32, ngroups int) (batch.Vec, bool) {
	n := make([]int64, ngroups) // rows (COUNT(*)) or non-NULL arguments per group
	if a.Func == algebra.CountStar {
		for _, g := range groupOf {
			n[g]++
		}
		return countVec(n, a.NullIfEmpty), true
	}
	col, ok := a.Arg.(expr.Col)
	if !ok {
		return batch.Vec{}, false
	}
	ci := in.Schema.IndexOf(col.Attr)
	if ci < 0 {
		return batch.Vec{}, false
	}
	switch a.Func {
	case algebra.Count, algebra.Sum, algebra.Avg, algebra.Min, algebra.Max:
	default:
		return batch.Vec{}, false // distinct forms track a value set; use AggState
	}
	v := in.Col(ci)
	if v.Phys != batch.PhysInt && v.Phys != batch.PhysFloat {
		return batch.Vec{}, false
	}
	if a.Func == algebra.Count {
		for i, g := range groupOf {
			if !v.IsNull(i) {
				n[g]++
			}
		}
		return countVec(n, a.NullIfEmpty), true
	}
	var out batch.Vec
	switch {
	case v.Phys == batch.PhysInt && a.Func == algebra.Avg:
		// AggState averages ints through a float64 sum; so does this.
		out = batch.Vec{Phys: batch.PhysFloat, Floats: make([]float64, ngroups)}
		for i, x := range v.Ints {
			if !v.IsNull(i) {
				n[groupOf[i]]++
				out.Floats[groupOf[i]] += float64(x)
			}
		}
	case v.Phys == batch.PhysInt:
		out = batch.Vec{Phys: batch.PhysInt, Ints: make([]int64, ngroups)}
		accumulate(a.Func, v, v.Ints, groupOf, n, out.Ints, cmp.Compare[int64])
	default:
		out = batch.Vec{Phys: batch.PhysFloat, Floats: make([]float64, ngroups)}
		accumulate(a.Func, v, v.Floats, groupOf, n, out.Floats, value.CompareFloat)
	}
	for g, c := range n {
		if c == 0 {
			out.SetNull(g, ngroups)
		} else if a.Func == algebra.Avg {
			out.Floats[g] /= float64(c)
		}
	}
	return out, true
}

// accumulate folds the non-NULL rows of xs (v's payload) into their
// groups' accumulators, in input order: a running sum for SUM and AVG,
// the extreme so far under compare for MIN and MAX.
func accumulate[T int64 | float64](f algebra.AggFunc, v *batch.Vec, xs []T, groupOf []int32, n []int64, acc []T, compare func(a, b T) int) {
	for i, x := range xs {
		if v.IsNull(i) {
			continue
		}
		g := groupOf[i]
		switch {
		case f == algebra.Sum || f == algebra.Avg:
			acc[g] += x
		case f == algebra.Min && (n[g] == 0 || compare(x, acc[g]) < 0), f == algebra.Max && (n[g] == 0 || compare(x, acc[g]) > 0):
			acc[g] = x
		}
		n[g]++
	}
}

// countVec finalizes COUNT tallies with the NullIfEmpty rule.
func countVec(n []int64, nullIfEmpty bool) batch.Vec {
	out := batch.Vec{Phys: batch.PhysInt, Ints: n}
	for g, c := range n {
		if c == 0 && nullIfEmpty {
			out.SetNull(g, len(n))
		}
	}
	return out
}

// vecAggGeneric accumulates one aggregate through algebra.AggState —
// the exact tuple-engine accumulator — for distinct forms, computed
// arguments and mixed-kind columns.
func vecAggGeneric(a algebra.Aggregate, in *batch.Rel, groupOf []int32, ngroups int) batch.Vec {
	states := make([]*algebra.AggState, ngroups)
	for g := range states {
		states[g] = algebra.NewAggState(a.Func)
	}
	env := expr.TupleEnv{Schema: in.Schema}
	scratch := make(relation.Tuple, in.Schema.Len())
	for i := 0; i < in.N; i++ {
		var v value.Value
		if a.Arg != nil {
			in.ReadTuple(i, scratch)
			env.Tuple = scratch
			v = a.Arg.Eval(env)
		}
		states[groupOf[i]].Add(a.Func, v)
	}
	out := make([]value.Value, ngroups)
	for g := range out {
		out[g] = states[g].Result(a.Func, a.NullIfEmpty)
	}
	return batch.FromValues(out)
}

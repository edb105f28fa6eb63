package algebra

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// AggFunc enumerates the aggregate functions of the paper's
// generalized projections, including the duplicate-insensitive forms
// (max, min, count(distinct), sum(distinct), avg(distinct)) that make
// a GP a δ in the paper's notation.
type AggFunc uint8

// The aggregate functions.
const (
	CountStar AggFunc = iota // COUNT(*)
	Count                    // COUNT(expr): non-NULL count
	CountDistinct
	Sum
	SumDistinct
	Min
	Max
	Avg
	AvgDistinct
)

// String renders the SQL name of the function.
func (f AggFunc) String() string {
	switch f {
	case CountStar:
		return "count(*)"
	case Count:
		return "count"
	case CountDistinct:
		return "count(distinct)"
	case Sum:
		return "sum"
	case SumDistinct:
		return "sum(distinct)"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	case AvgDistinct:
		return "avg(distinct)"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// duplicateInsensitive reports whether the function ignores
// duplicates of its argument, which is what lets a GP be pulled
// above duplicate-generating joins without count adjustments.
func (f AggFunc) duplicateInsensitive() bool {
	switch f {
	case CountDistinct, SumDistinct, Min, Max, AvgDistinct:
		return true
	}
	return false
}

// Aggregate is one f(Y) term of a generalized projection π_{X,f(Y)}:
// function, argument expression (nil for COUNT(*)) and the attribute
// naming the generated column.
type Aggregate struct {
	Func AggFunc
	Arg  expr.Scalar
	Out  schema.Attribute
	// NullIfEmpty makes a count yield NULL instead of 0 when no
	// qualifying row exists in the group. It is set when a
	// generalized projection is pulled above the null-supplying side
	// of an outer join: groups formed solely from NULL-padded rows
	// must reproduce the NULLs the original outer join produced
	// rather than a spurious zero (the classic "count bug" of
	// [GANS87]). Sum/min/max/avg already yield NULL on empty groups.
	NullIfEmpty bool
}

// String renders e.g. "v1.c=count(r1.#rid)".
func (a Aggregate) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	switch a.Func {
	case CountStar:
		return fmt.Sprintf("%s=count(*)", a.Out)
	case CountDistinct, SumDistinct, AvgDistinct:
		base := strings.TrimSuffix(a.Func.String(), "(distinct)")
		return fmt.Sprintf("%s=%s(distinct %s)", a.Out, base, arg)
	default:
		return fmt.Sprintf("%s=%s(%s)", a.Out, a.Func, arg)
	}
}

// CountRel builds the count(r_i) aggregate the paper writes in
// Example 3.1 and View V_1: a count of the tuples contributed by base
// relation rel, implemented as COUNT over rel's virtual row
// identifier (NULL-padded tuples do not count).
func CountRel(rel string, out schema.Attribute) Aggregate {
	return Aggregate{Func: Count, Arg: expr.Col{Attr: schema.RID(rel)}, Out: out}
}

// valueSet is a hash set of values bucketed by Hash64 with Equal
// verification — the DISTINCT tracker of the duplicate-insensitive
// aggregates, free of the per-value Key() rendering the string-keyed
// map paid.
type valueSet struct {
	buckets map[uint64][]value.Value
}

// add inserts v and reports whether it was absent.
func (s *valueSet) add(v value.Value) bool {
	h := v.Hash64()
	for _, o := range s.buckets[h] {
		if value.Equal(v, o) {
			return false
		}
	}
	s.buckets[h] = append(s.buckets[h], v)
	return true
}

// AggState accumulates one aggregate within one group. It is
// exported so the vectorized executor's generic aggregation path
// shares this exact accumulator — distinct tracking, INT/FLOAT sum
// promotion and empty-group results cannot drift between engines.
type AggState struct {
	n        int64
	sumI     int64
	sumF     float64
	isFloat  bool
	min, max value.Value
	seen     *valueSet
}

// NewAggState returns an empty accumulator for the function.
func NewAggState(f AggFunc) *AggState {
	s := &AggState{min: value.Null, max: value.Null}
	if f.duplicateInsensitive() && f != Min && f != Max {
		s.seen = &valueSet{buckets: make(map[uint64][]value.Value)}
	}
	return s
}

// Add folds one row's argument value into the accumulator. NULL is
// ignored for every function except COUNT(*), where v is unused.
func (s *AggState) Add(f AggFunc, v value.Value) {
	if f == CountStar {
		s.n++
		return
	}
	if v.IsNull() {
		return
	}
	if s.seen != nil && !s.seen.add(v) {
		return
	}
	s.n++
	switch f {
	case Sum, SumDistinct, Avg, AvgDistinct:
		if v.Kind() == value.KindFloat {
			s.isFloat = true
			s.sumF += v.Float()
		} else {
			s.sumI += v.Int()
			s.sumF += v.Float()
		}
	case Min:
		if s.min.IsNull() {
			s.min = v
		} else if c, ok := value.Compare(v, s.min); ok && c < 0 {
			s.min = v
		}
	case Max:
		if s.max.IsNull() {
			s.max = v
		} else if c, ok := value.Compare(v, s.max); ok && c > 0 {
			s.max = v
		}
	}
}

// Result finalizes the accumulator into the group's output value.
func (s *AggState) Result(f AggFunc, nullIfEmpty bool) value.Value {
	switch f {
	case CountStar, Count, CountDistinct:
		if s.n == 0 && nullIfEmpty {
			return value.Null
		}
		return value.NewInt(s.n)
	case Sum, SumDistinct:
		if s.n == 0 {
			return value.Null
		}
		if s.isFloat {
			return value.NewFloat(s.sumF)
		}
		return value.NewInt(s.sumI)
	case Min:
		return s.min
	case Max:
		return s.max
	case Avg, AvgDistinct:
		if s.n == 0 {
			return value.Null
		}
		return value.NewFloat(s.sumF / float64(s.n))
	}
	return value.Null
}

// GroupProject implements the generalized projection π_{X,f(Y)}(r)
// ([GUPT95], Section 1.2): group r by the attributes X and compute
// each aggregate per group. The result schema is X followed by the
// generated columns. With no aggregates this is SELECT DISTINCT X.
// Following SQL, an empty input with a non-empty X yields no groups;
// grouping keys treat NULL as identical to NULL.
func GroupProject(groupBy []schema.Attribute, aggs []Aggregate, r *relation.Relation) *relation.Relation {
	outAttrs := append([]schema.Attribute(nil), groupBy...)
	for _, a := range aggs {
		outAttrs = append(outAttrs, a.Out)
	}
	out := relation.New(schema.New(outAttrs...))

	keyIdx := make([]int, len(groupBy))
	for i, a := range groupBy {
		keyIdx[i] = r.Schema().IndexOf(a)
		if keyIdx[i] < 0 {
			panic(fmt.Sprintf("algebra: group-by attribute %s not in %s", a, r.Schema()))
		}
	}

	type group struct {
		key    relation.Tuple
		states []*AggState
	}
	// Groups bucket by the key tuple's 64-bit hash with EqualTuple
	// verification; the scratch key is cloned only when it opens a new
	// group, so the per-row cost is hashing alone — no string
	// rendering, no per-row key allocation.
	groups := make(map[uint64][]*group)
	var order []*group
	scratch := make(relation.Tuple, len(keyIdx))

	r.Each(func(t relation.Tuple) {
		for i, j := range keyIdx {
			scratch[i] = t[j]
		}
		h := scratch.Hash64()
		var g *group
		for _, cand := range groups[h] {
			if cand.key.EqualTuple(scratch) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{key: scratch.Clone(), states: make([]*AggState, len(aggs))}
			for i, a := range aggs {
				g.states[i] = NewAggState(a.Func)
			}
			groups[h] = append(groups[h], g)
			order = append(order, g)
		}
		env := expr.TupleEnv{Schema: r.Schema(), Tuple: t}
		for i, a := range aggs {
			var v value.Value
			if a.Arg != nil {
				v = a.Arg.Eval(env)
			}
			g.states[i].Add(a.Func, v)
		}
	})

	// SQL: aggregation over an empty input with no GROUP BY columns
	// produces a single row of "empty" aggregates.
	if len(groups) == 0 && len(groupBy) == 0 && len(aggs) > 0 {
		row := make(relation.Tuple, 0, len(aggs))
		for _, a := range aggs {
			row = append(row, NewAggState(a.Func).Result(a.Func, a.NullIfEmpty))
		}
		out.Append(row)
		return out
	}

	for _, g := range order {
		row := make(relation.Tuple, 0, len(outAttrs))
		row = append(row, g.key...)
		for i, a := range aggs {
			row = append(row, g.states[i].Result(a.Func, a.NullIfEmpty))
		}
		out.Append(row)
	}
	return out
}

// Package stats implements the statistics and cost model the
// optimizer ranks plans with (Section 4 notes that the enumeration
// technique "has to be extended so that it considers the cost of the
// generalized selection operator"; its cost is modelled like MGOJ's,
// as the paper prescribes).
//
// The model is the textbook System-R style: per-table row counts,
// per-column distinct counts, uniformity and independence
// assumptions. Costs are abstract work units (tuples touched and
// predicates evaluated), which is the right fidelity for reproducing
// the paper's *relative* plan-cost claims.
package stats

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/stats/feedback"
	"repro/internal/value"
)

// ColumnStats summarises one column.
type ColumnStats struct {
	Distinct float64 // number of distinct non-NULL values
	NullFrac float64 // fraction of NULLs
	// TopValues maps value keys to their fraction of the rows (a
	// most-common-values list), used for column = value selectivity:
	// every value of a column with few distinct values, the heavy
	// hitters of any other (nil when it has none).
	TopValues map[string]float64
	// Rest is the fraction of the rows each value absent from a partial
	// TopValues holds on average; 0 when TopValues lists every value.
	Rest float64
}

// eqSelectivity estimates the fraction of rows whose value equals v:
// the listed fraction, the rest's share for a value a partial list
// omits, 0.001 for one a complete list omits (a rare value), and
// 1/Distinct for a column without a list.
func (cs ColumnStats) eqSelectivity(v value.Value) float64 {
	if cs.TopValues == nil {
		return 1 / math.Max(1, cs.Distinct)
	}
	if frac, ok := cs.TopValues[v.Key()]; ok {
		return frac
	}
	if cs.Rest > 0 {
		return cs.Rest
	}
	return 0.001
}

// TableStats summarises one base relation.
type TableStats struct {
	Rows    float64
	Columns map[string]ColumnStats // keyed by column name
}

// Catalog maps base relation names to statistics.
type Catalog map[string]TableStats

// CostModel weights the abstract operations.
type CostModel struct {
	Tuple      float64 // producing one output tuple
	Pred       float64 // one predicate evaluation
	Hash       float64 // one hash probe/insert (equi-joins, grouping)
	IndexProbe float64 // one index lookup into a base relation
}

// defaultCost is a reasonable weighting: predicate evaluation is
// cheap, hashing slightly more, materializing output dominates, and
// an index probe costs a few comparisons. Base relations are assumed
// to carry indexes on their join columns (Example 1.1's "specially if
// there is an index in relation 95DETAIL").
var defaultCost = CostModel{Tuple: 1.0, Pred: 0.2, Hash: 0.5, IndexProbe: 2.0}

// Estimator derives cardinalities and costs for logical plans.
type Estimator struct {
	Cost CostModel
	// tables maps each base relation to its statistics; the map is
	// fixed at construction and every entry is computed at most once.
	tables map[string]func() *TableStats
	// params are the values bound to $1, $2, … for a WithParams view
	// (nil: a parameter's value is unknown).
	params []value.Value
}

// NewEstimator builds an estimator over an already analyzed catalog
// with the default cost model.
func NewEstimator(cat Catalog) *Estimator {
	e := &Estimator{Cost: defaultCost, tables: make(map[string]func() *TableStats, len(cat))}
	for name, ts := range cat {
		e.tables[name] = func() *TableStats { return &ts }
	}
	return e
}

// ForDatabase builds an estimator over db with the default cost model
// that analyzes each table the first time an estimate reads it (its
// row count, a column's statistics or its scan order), once, from the
// table's columns. Construction reads no table, so tables no
// plan reads are never analyzed. A table's statistics are a snapshot
// of its rows at that first read: rows appended later are not seen.
func ForDatabase(db plan.Database) *Estimator {
	e := &Estimator{Cost: defaultCost, tables: make(map[string]func() *TableStats, len(db))}
	for name, rel := range db {
		e.tables[name] = sync.OnceValue(func() *TableStats {
			ts := analyzeTable(rel)
			return &ts
		})
	}
	return e
}

// table returns the statistics of the named base relation, analyzing
// it on first use.
func (e *Estimator) table(name string) (*TableStats, bool) {
	get, ok := e.tables[name]
	if !ok {
		return nil, false
	}
	return get(), true
}

// column returns stats for an attribute, with a permissive default
// for generated columns (aggregates) whose distribution is unknown.
func (e *Estimator) column(a schema.Attribute) ColumnStats {
	if ts, ok := e.table(a.Rel); ok {
		if cs, ok := ts.Columns[a.Col]; ok {
			return cs
		}
		return ColumnStats{Distinct: math.Max(1, ts.Rows/10)}
	}
	return ColumnStats{Distinct: 10}
}

// selectivity estimates the fraction of candidate tuples satisfying
// p, assuming independence across conjuncts.
func (e *Estimator) selectivity(p expr.Pred) float64 {
	sel := 1.0
	for _, c := range expr.Conjuncts(p) {
		sel *= e.atomSelectivity(c)
	}
	return clamp01(sel)
}

func (e *Estimator) atomSelectivity(p expr.Pred) float64 {
	cmp, ok := p.(expr.Cmp)
	if !ok {
		return 0.5
	}
	lCol, lIsCol := cmp.L.(expr.Col)
	rCol, rIsCol := cmp.R.(expr.Col)
	switch cmp.Op {
	case value.EQ:
		switch {
		case lIsCol && rIsCol:
			d1 := math.Max(1, e.column(lCol.Attr).Distinct)
			d2 := math.Max(1, e.column(rCol.Attr).Distinct)
			return 1 / math.Max(d1, d2)
		case lIsCol:
			return e.eqConstSelectivity(lCol, cmp.R)
		case rIsCol:
			return e.eqConstSelectivity(rCol, cmp.L)
		default:
			return 0.1
		}
	case value.NE:
		return 1 - e.atomSelectivity(expr.Cmp{Op: value.EQ, L: cmp.L, R: cmp.R})
	default: // range comparisons
		return 1.0 / 3
	}
}

// WithParams returns a view of e that estimates a `col = $n` conjunct
// with the value params[n-1] binds, as it would the literal. The view
// shares e's tables, so a table either analyzes is analyzed once for
// both.
func (e *Estimator) WithParams(params []value.Value) *Estimator {
	v := *e
	v.params = params
	return &v
}

// param returns the value bound to p, if the estimator has one.
func (e *Estimator) param(p expr.Param) (value.Value, bool) {
	if p.Idx < 1 || p.Idx > len(e.params) {
		return value.Value{}, false
	}
	return e.params[p.Idx-1], true
}

// eqConstSelectivity estimates column = constant. A literal, or a
// parameter the estimator has a bound value for, is looked up in the
// column's list; any other scalar gets 1/Distinct.
func (e *Estimator) eqConstSelectivity(col expr.Col, other expr.Scalar) float64 {
	cs := e.column(col.Attr)
	switch x := other.(type) {
	case expr.Const:
		return cs.eqSelectivity(x.Val)
	case expr.Param:
		if v, ok := e.param(x); ok {
			return cs.eqSelectivity(v)
		}
	}
	return 1 / math.Max(1, cs.Distinct)
}

// Rows estimates the output cardinality of n.
func (e *Estimator) Rows(n plan.Node) (float64, error) {
	rows, _, err := e.estimate(n, nil)
	return rows, err
}

// PlanCost estimates the total abstract cost of executing n,
// including its inputs: every operator's OpCost, summed bottom-up.
func (e *Estimator) PlanCost(n plan.Node) (float64, error) {
	_, cost, err := e.estimate(n, nil)
	return cost, err
}

// estimate is the one pass over a whole tree, bottom-up and uncached:
// a node's rows are OpRows over its inputs' rows — or, in a session
// with a feedback store, the correction recorded under the subtree's
// plan.Key — and its cost is its inputs' costs plus its OpCost.
func (e *Estimator) estimate(n plan.Node, s *Session) (rows, cost float64, err error) {
	ch := n.Children()
	if len(ch) > 2 {
		return 0, 0, fmt.Errorf("stats: cannot estimate %T with %d inputs", n, len(ch))
	}
	var in [2]float64
	for i, child := range ch {
		r, c, err := e.estimate(child, s)
		if err != nil {
			return 0, 0, err
		}
		in[i] = r
		cost += c
	}
	if rows, err = e.OpRows(n, in[:len(ch)]); err != nil {
		return 0, 0, err
	}
	if s != nil && s.fb != nil && len(ch) > 0 {
		if rows, err = s.corrected(plan.Key(n), rows); err != nil {
			return 0, 0, err
		}
	}
	return rows, cost + e.OpCost(n, rows, in[:len(ch)]), nil
}

// OpRows estimates the output cardinality of n's root operator alone,
// its inputs estimated at in (one entry per child).
func (e *Estimator) OpRows(n plan.Node, in []float64) (float64, error) {
	switch m := n.(type) {
	case *plan.Scan:
		ts, ok := e.table(m.Rel)
		if !ok {
			return 0, fmt.Errorf("stats: no statistics for %q", m.Rel)
		}
		return ts.Rows, nil
	case *plan.Select:
		return in[0] * e.selectivity(m.Pred), nil
	case *plan.Join:
		match := in[0] * in[1] * e.selectivity(m.Pred)
		switch m.Kind {
		case plan.InnerJoin:
			return match, nil
		case plan.LeftJoin:
			return math.Max(match, in[0]), nil
		case plan.RightJoin:
			return math.Max(match, in[1]), nil
		default: // FullJoin
			return math.Max(match, math.Max(in[0], in[1])), nil
		}
	case *plan.GenSel:
		sel := e.selectivity(m.Pred)
		out := in[0] * sel
		// Each preserved relation re-contributes its unmatched
		// distinct projections, at most the input cardinality.
		for range m.Preserved {
			out += in[0] * (1 - sel) * 0.5
		}
		return math.Min(out, in[0]*(1+float64(len(m.Preserved)))), nil
	case *plan.MGOJNode:
		l, r := in[0], in[1]
		match := l * r * e.selectivity(m.Pred)
		return match + float64(len(m.Preserved))*math.Max(l, r)*0.5, nil
	case *plan.GroupBy:
		return e.groupRows(m.Keys, in[0]), nil
	case *plan.Project:
		if m.Distinct {
			return math.Max(1, in[0]/2), nil
		}
		return in[0], nil
	case *plan.Sort:
		if m.Limit >= 0 {
			return math.Min(in[0], float64(m.Limit)), nil
		}
		return in[0], nil
	default:
		return 0, fmt.Errorf("stats: cannot estimate %T", n)
	}
}

// groupRows estimates the number of groups over keys of an input of
// in rows.
func (e *Estimator) groupRows(keys []schema.Attribute, in float64) float64 {
	groups := 1.0
	for _, k := range keys {
		if k.Virtual {
			// A row identifier makes groups nearly per-row.
			groups *= math.Max(1, in)
		} else {
			groups *= math.Max(1, e.column(k).Distinct)
		}
		if groups >= in {
			break
		}
	}
	return math.Min(groups, math.Max(1, in))
}

// OpCost estimates the abstract cost of n's root operator alone: it
// produces rows from inputs of in rows (one entry per child), the
// inputs' own costs excluded. Joins with at least one equality
// conjunct cost as hash joins — or as an index nested loop when one
// input is a base relation and the other small — others as nested
// loops. Generalized selection costs one pass over its input plus an
// anti-join pass per preserved relation — the same shape as MGOJ, per
// Section 4. n's operator must be one OpRows estimates.
func (e *Estimator) OpCost(n plan.Node, rows float64, in []float64) float64 {
	switch m := n.(type) {
	case *plan.Scan:
		return rows * e.Cost.Tuple
	case *plan.Select:
		return in[0]*e.Cost.Pred + rows*e.Cost.Tuple
	case *plan.Join, *plan.MGOJNode:
		var l, r plan.Node
		var p expr.Pred
		var preserved int
		if j, ok := n.(*plan.Join); ok {
			l, r, p = j.L, j.R, j.Pred
		} else {
			mg := n.(*plan.MGOJNode)
			l, r, p = mg.L, mg.R, mg.Pred
			preserved = len(mg.Preserved)
		}
		lr, rr := in[0], in[1]
		var op float64
		if hasEquiConjunct(p) {
			op = (lr + rr) * e.Cost.Hash
			// An index nested loop over a base relation beats the
			// hash join when the outer input is small — the
			// Example 1.1 index case.
			if _, rScan := r.(*plan.Scan); rScan {
				op = math.Min(op, lr*e.Cost.IndexProbe)
			}
			if _, lScan := l.(*plan.Scan); lScan {
				op = math.Min(op, rr*e.Cost.IndexProbe)
			}
			op += rows * e.Cost.Tuple
		} else {
			op = lr*rr*e.Cost.Pred + rows*e.Cost.Tuple
		}
		return op + float64(preserved)*(lr+rr)*e.Cost.Hash
	case *plan.GenSel:
		// Anti-join per preserved relation: hash the selected
		// projections, probe the input's projections.
		return in[0]*e.Cost.Pred + float64(len(m.Preserved))*2*in[0]*e.Cost.Hash + rows*e.Cost.Tuple
	case *plan.GroupBy:
		return in[0]*e.Cost.Hash + rows*e.Cost.Tuple
	case *plan.Project:
		op := in[0] * e.Cost.Tuple
		if m.Distinct {
			op += in[0] * e.Cost.Hash
		}
		return op
	case *plan.Sort:
		// n log n comparisons plus the (limited) output.
		return in[0]*math.Log2(math.Max(2, in[0]))*e.Cost.Pred + rows*e.Cost.Tuple
	default:
		return 0
	}
}

// Estimate is one memo group's cardinality: its rows, and the key a
// feedback correction for the group is recorded under — the plan.Key
// of the group's representative. Key is "" when no feedback store is
// attached, and for a base relation, whose count is exact.
type Estimate struct {
	Rows float64
	Key  string
}

// Session is the estimator an optimizer run prices with: the
// estimator plus the run's budget and feedback store. It caches
// nothing — the memo estimates each group once — so it is safe for
// concurrent use.
type Session struct {
	e      *Estimator
	budget *guard.Budget
	fb     *feedback.Store
	fbHits atomic.Int64
}

// NewSession opens an estimation session. A session caches nothing
// and so reports no counters; the registry argument is unused.
func (e *Estimator) NewSession(*obs.Registry) *Session { return &Session{e: e} }

// SetFeedback attaches a cardinality feedback store: a correction
// recorded under a group's (or, for Rows and PlanCost, a subtree's)
// plan.Key replaces the model's estimate. A nil store (the default)
// leaves every estimate the model's and renders no key.
func (s *Session) SetFeedback(fb *feedback.Store) { s.fb = fb }

// FeedbackHits reports how many estimates this session took from
// feedback corrections rather than the static model.
func (s *Session) FeedbackHits() int64 { return s.fbHits.Load() }

// SetBudget attaches a guard budget to the session: Rows and PlanCost
// check cancellation before descending. A nil budget (the default)
// adds one pointer comparison per call.
func (s *Session) SetBudget(b *guard.Budget) { s.budget = b }

// Rows is Estimator.Rows with the session's feedback corrections.
func (s *Session) Rows(n plan.Node) (float64, error) {
	if err := s.budget.Cancelled(); err != nil {
		return 0, err
	}
	rows, _, err := s.e.estimate(n, s)
	return rows, err
}

// GroupRows estimates a memo group from its representative n, whose
// inputs' groups are estimated at in: OpRows, or the correction the
// attached feedback store holds under n's plan.Key. The key is
// rendered only when a store is attached and n is not a base
// relation.
func (s *Session) GroupRows(n plan.Node, in []float64) (Estimate, error) {
	rows, err := s.e.OpRows(n, in)
	if err != nil || s.fb == nil || len(in) == 0 {
		return Estimate{Rows: rows}, err
	}
	key := plan.Key(n)
	rows, err = s.corrected(key, rows)
	return Estimate{Rows: rows, Key: key}, err
}

// corrected returns the feedback correction recorded under key, or
// rows when there is none.
func (s *Session) corrected(key string, rows float64) (float64, error) {
	fbRows, ok, err := s.fb.Lookup(key)
	if err != nil || !ok {
		return rows, err
	}
	s.fbHits.Add(1)
	return fbRows, nil
}

// Estimator returns the underlying estimator (catalog and cost
// model).
func (s *Session) Estimator() *Estimator { return s.e }

// hasEquiConjunct reports whether p contains a column = column
// conjunct usable by a hash join.
func hasEquiConjunct(p expr.Pred) bool {
	for _, c := range expr.Conjuncts(p) {
		if cmp, ok := c.(expr.Cmp); ok && cmp.Op == value.EQ {
			if _, lc := cmp.L.(expr.Col); lc {
				if _, rc := cmp.R.(expr.Col); rc {
					return true
				}
			}
		}
	}
	return false
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

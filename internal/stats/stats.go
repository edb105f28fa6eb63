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

// DefaultCost is a reasonable weighting: predicate evaluation is
// cheap, hashing slightly more, materializing output dominates, and
// an index probe costs a few comparisons. Base relations are assumed
// to carry indexes on their join columns (Example 1.1's "specially if
// there is an index in relation 95DETAIL").
var DefaultCost = CostModel{Tuple: 1.0, Pred: 0.2, Hash: 0.5, IndexProbe: 2.0}

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
	e := &Estimator{Cost: DefaultCost, tables: make(map[string]func() *TableStats, len(cat))}
	for name, ts := range cat {
		e.tables[name] = func() *TableStats { return &ts }
	}
	return e
}

// ForDatabase builds an estimator over db with the default cost model
// that analyzes each table the first time an estimate reads it (its
// row count, a column's statistics or its scan order), once, from the
// table's columnar image. Construction reads no table, so tables no
// plan reads are never analyzed. A table's statistics are a snapshot
// of its rows at that first read: rows appended later are not seen.
func ForDatabase(db plan.Database) *Estimator {
	e := &Estimator{Cost: DefaultCost, tables: make(map[string]func() *TableStats, len(db))}
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

// Selectivity estimates the fraction of candidate tuples satisfying
// p, assuming independence across conjuncts.
func (e *Estimator) Selectivity(p expr.Pred) float64 {
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
func (e *Estimator) Rows(n plan.Node) (float64, error) { return e.rows(n, nil) }

// rows is Rows with an optional memo session: when s is non-nil,
// estimates are looked up and recorded by subtree fingerprint, so a
// subtree shared by many plans of an equivalence class is estimated
// once.
func (e *Estimator) rows(n plan.Node, s *Session) (float64, error) {
	memoize := s != nil && len(n.Children()) > 0 // a Scan lookup is cheaper than a memo hit
	var key string
	if memoize {
		key = plan.Key(n)
		if v, ok := s.rows.Load(key); ok {
			s.rowsHits.Inc()
			return v.(float64), nil
		}
		s.rowsMiss.Inc()
		// Learned truth beats the model: a feedback correction for this
		// subtree (recorded from an instrumented execution) replaces the
		// static estimate. Cached in the memo like any other estimate so
		// the store is consulted once per distinct subtree per session.
		if s.fb != nil {
			rows, ok, err := s.fb.Lookup(key)
			if err != nil {
				return 0, err
			}
			if ok {
				s.fbHits.Add(1)
				s.rows.Store(key, rows)
				return rows, nil
			}
		}
	}
	v, err := e.rowsSwitch(n, s)
	if err != nil {
		return 0, err
	}
	if memoize {
		s.rows.Store(key, v)
	}
	return v, nil
}

func (e *Estimator) rowsSwitch(n plan.Node, s *Session) (float64, error) {
	switch m := n.(type) {
	case *plan.Scan:
		ts, ok := e.table(m.Rel)
		if !ok {
			return 0, fmt.Errorf("stats: no statistics for %q", m.Rel)
		}
		return ts.Rows, nil
	case *plan.Select:
		in, err := e.rows(m.Input, s)
		if err != nil {
			return 0, err
		}
		return in * e.Selectivity(m.Pred), nil
	case *plan.Join:
		return e.joinRows(m.Kind, m.Pred, m.L, m.R, s)
	case *plan.GenSel:
		in, err := e.rows(m.Input, s)
		if err != nil {
			return 0, err
		}
		sel := e.Selectivity(m.Pred)
		out := in * sel
		// Each preserved relation re-contributes its unmatched
		// distinct projections, at most the input cardinality.
		for range m.Preserved {
			out += in * (1 - sel) * 0.5
		}
		return math.Min(out, in*(1+float64(len(m.Preserved)))), nil
	case *plan.MGOJNode:
		l, err := e.rows(m.L, s)
		if err != nil {
			return 0, err
		}
		r, err := e.rows(m.R, s)
		if err != nil {
			return 0, err
		}
		match := l * r * e.Selectivity(m.Pred)
		return match + float64(len(m.Preserved))*math.Max(l, r)*0.5, nil
	case *plan.GroupBy:
		return e.groupRows(m.Keys, m.Input, s)
	case *plan.Project:
		in, err := e.rows(m.Input, s)
		if err != nil {
			return 0, err
		}
		if m.Distinct {
			return math.Max(1, in/2), nil
		}
		return in, nil
	case *plan.Sort:
		in, err := e.rows(m.Input, s)
		if err != nil {
			return 0, err
		}
		if m.Limit >= 0 {
			return math.Min(in, float64(m.Limit)), nil
		}
		return in, nil
	default:
		return 0, fmt.Errorf("stats: cannot estimate %T", n)
	}
}

// joinRows estimates the output of a join of the given kind.
func (e *Estimator) joinRows(kind plan.JoinKind, p expr.Pred, ln, rn plan.Node, s *Session) (float64, error) {
	l, err := e.rows(ln, s)
	if err != nil {
		return 0, err
	}
	r, err := e.rows(rn, s)
	if err != nil {
		return 0, err
	}
	match := l * r * e.Selectivity(p)
	switch kind {
	case plan.InnerJoin:
		return match, nil
	case plan.LeftJoin:
		return math.Max(match, l), nil
	case plan.RightJoin:
		return math.Max(match, r), nil
	default: // FullJoin
		return math.Max(match, math.Max(l, r)), nil
	}
}

// groupRows estimates the number of groups over keys.
func (e *Estimator) groupRows(keys []schema.Attribute, input plan.Node, s *Session) (float64, error) {
	in, err := e.rows(input, s)
	if err != nil {
		return 0, err
	}
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
	return math.Min(groups, math.Max(1, in)), nil
}

// PlanCost estimates the total abstract cost of executing n,
// including its inputs. Joins with at least one equality conjunct
// cost as hash joins; others as nested loops. Generalized selection
// costs one pass over its input plus an anti-join pass per preserved
// relation — the same shape as MGOJ, per Section 4.
func (e *Estimator) PlanCost(n plan.Node) (float64, error) { return e.planCost(n, nil) }

// planCost is PlanCost with an optional memo session. Costing is
// where memoization pays twice: the recursion consults the row
// estimator at every node (itself recursive), and the plans of an
// equivalence class share almost all subtrees, so both the per-node
// (rows, cost) pairs and the row estimates are computed once per
// distinct subtree instead of once per occurrence.
func (e *Estimator) planCost(n plan.Node, s *Session) (float64, error) {
	var rec func(n plan.Node) (rows, cost float64, err error)
	rec = func(n plan.Node) (float64, float64, error) {
		memoize := s != nil && len(n.Children()) > 0
		var key string
		if memoize {
			key = plan.Key(n)
			if v, ok := s.cost.Load(key); ok {
				s.costHits.Inc()
				ent := v.(memoEntry)
				return ent.rows, ent.cost, nil
			}
			s.costMiss.Inc()
		}
		rows, cost, err := e.costSwitch(n, s, rec)
		if err != nil {
			return 0, 0, err
		}
		if memoize {
			s.cost.Store(key, memoEntry{rows: rows, cost: cost})
		}
		return rows, cost, nil
	}
	_, cost, err := rec(n)
	return cost, err
}

// costSwitch computes one node's (rows, cost) given rec for the
// inputs; recursion goes through rec so the memo sees every level.
func (e *Estimator) costSwitch(n plan.Node, s *Session, rec func(plan.Node) (float64, float64, error)) (float64, float64, error) {
	{
		rows, err := e.rows(n, s)
		if err != nil {
			return 0, 0, err
		}
		switch m := n.(type) {
		case *plan.Scan:
			return rows, rows * e.Cost.Tuple, nil
		case *plan.Select:
			in, c, err := rec(m.Input)
			if err != nil {
				return 0, 0, err
			}
			return rows, c + in*e.Cost.Pred + rows*e.Cost.Tuple, nil
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
			lr, lc, err := rec(l)
			if err != nil {
				return 0, 0, err
			}
			rr, rc, err := rec(r)
			if err != nil {
				return 0, 0, err
			}
			var opCost float64
			if hasEquiConjunct(p) {
				opCost = (lr + rr) * e.Cost.Hash
				// An index nested loop over a base relation beats the
				// hash join when the outer input is small — the
				// Example 1.1 index case.
				if _, rScan := r.(*plan.Scan); rScan {
					opCost = math.Min(opCost, lr*e.Cost.IndexProbe)
				}
				if _, lScan := l.(*plan.Scan); lScan {
					opCost = math.Min(opCost, rr*e.Cost.IndexProbe)
				}
				opCost += rows * e.Cost.Tuple
			} else {
				opCost = lr*rr*e.Cost.Pred + rows*e.Cost.Tuple
			}
			opCost += float64(preserved) * (lr + rr) * e.Cost.Hash
			return rows, lc + rc + opCost, nil
		case *plan.GenSel:
			in, c, err := rec(m.Input)
			if err != nil {
				return 0, 0, err
			}
			op := in * e.Cost.Pred
			// Anti-join per preserved relation: hash the selected
			// projections, probe the input's projections.
			op += float64(len(m.Preserved)) * 2 * in * e.Cost.Hash
			return rows, c + op + rows*e.Cost.Tuple, nil
		case *plan.GroupBy:
			in, c, err := rec(m.Input)
			if err != nil {
				return 0, 0, err
			}
			return rows, c + in*e.Cost.Hash + rows*e.Cost.Tuple, nil
		case *plan.Project:
			in, c, err := rec(m.Input)
			if err != nil {
				return 0, 0, err
			}
			op := in * e.Cost.Tuple
			if m.Distinct {
				op += in * e.Cost.Hash
			}
			return rows, c + op, nil
		case *plan.Sort:
			in, c, err := rec(m.Input)
			if err != nil {
				return 0, 0, err
			}
			// n log n comparisons plus the (limited) output.
			op := in*math.Log2(math.Max(2, in))*e.Cost.Pred + rows*e.Cost.Tuple
			return rows, c + op, nil
		default:
			return 0, 0, fmt.Errorf("stats: cannot cost %T", n)
		}
	}
}

// memoEntry is one memoized (rows, cost) pair.
type memoEntry struct {
	rows, cost float64
}

// Session memoizes row and cost estimates by subtree fingerprint
// (plan.Key) for the duration of one optimizer run. The plans of an
// equivalence class differ only along a rewrite spine and share
// almost every subtree, so estimating 20k closure members touches
// each distinct subtree once instead of once per plan. Sessions are
// safe for concurrent use — the optimizer's parallel cost phase
// shares one session across workers; duplicated computation under a
// race is benign because estimates are pure functions of the subtree.
//
// A session must not outlive its catalog: keys are plan fingerprints,
// so estimates for a re-ANALYZEd database need a fresh session.
type Session struct {
	e      *Estimator
	rows   sync.Map // plan key -> float64
	cost   sync.Map // plan key -> memoEntry
	budget *guard.Budget
	fb     *feedback.Store
	fbHits atomic.Int64

	rowsHits, rowsMiss, costHits, costMiss *obs.Counter
}

// NewSession opens a memoized estimation session. Cache hit/miss
// totals are reported to reg as stats.memo.{rows,cost}_{hits,misses}
// (the process-wide default registry when reg is nil).
func (e *Estimator) NewSession(reg *obs.Registry) *Session {
	return &Session{
		e:        e,
		rowsHits: reg.Counter("stats.memo.rows_hits"),
		rowsMiss: reg.Counter("stats.memo.rows_misses"),
		costHits: reg.Counter("stats.memo.cost_hits"),
		costMiss: reg.Counter("stats.memo.cost_misses"),
	}
}

// SetFeedback attaches a cardinality feedback store: row estimation
// consults it by subtree fingerprint before the static model, so the
// session ranks plans with corrected cardinalities where executions
// have recorded the truth. A nil store (the default) adds one pointer
// comparison per memo miss.
func (s *Session) SetFeedback(fb *feedback.Store) { s.fb = fb }

// FeedbackHits reports how many distinct subtrees this session
// estimated from feedback corrections rather than the static model.
func (s *Session) FeedbackHits() int64 { return s.fbHits.Load() }

// SetBudget attaches a guard budget to the session: every exported
// estimation entry point checks cancellation before descending, so a
// long costing or extraction phase sharing the session across workers
// stays interruptible. A nil budget (the default) adds one pointer
// comparison per call.
func (s *Session) SetBudget(b *guard.Budget) { s.budget = b }

// Rows is Estimator.Rows through the session's memo.
func (s *Session) Rows(n plan.Node) (float64, error) {
	if err := s.budget.Cancelled(); err != nil {
		return 0, err
	}
	return s.e.rows(n, s)
}

// PlanCost is Estimator.PlanCost through the session's memo.
func (s *Session) PlanCost(n plan.Node) (float64, error) {
	if err := s.budget.Cancelled(); err != nil {
		return 0, err
	}
	return s.e.planCost(n, s)
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

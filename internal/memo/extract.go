package memo

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stats"
)

// Best is Extract's result.
type Best struct {
	Plan  plan.Node
	Cost  float64
	Group GroupID
	// Root indexes the roots slice passed to Extract, identifying
	// which seed's group won — when merged roots share the winning
	// group, the one whose seed the winner was derived from.
	Root int
}

// Extract computes the cheapest materialization of each root group
// bottom-up with winner tracking and branch-and-bound pruning, and
// returns the overall winner.
//
// A group is an equivalence class, so it has one cardinality: its
// representative's operator over its input groups' cardinalities, or
// the feedback correction recorded under the representative's
// plan.Key. An expression is priced locally, as its
// input groups' best costs plus its own operator's cost at its group's
// and its input groups' cardinalities — the System-R recurrence, so a
// group's cheapest member is the cheapest input to every parent and
// the winner is the minimum over the group's whole materialization
// set. Per group, expressions are visited in admission order; one
// whose input cost sum already reaches the incumbent is pruned without
// being priced (memo.pruned), as is one priced at or above it. Only a
// group's winner is materialized as a plan.Node.
//
// Shared groups are extracted once; extraction wall time is reported
// as memo.extract_ns. The run carries pprof labels engine=memo
// phase=cost, matching the saturation path's costing label.
func (m *Memo) Extract(roots []GroupID, s *stats.Session) (best Best, err error) {
	obs.WithPhase(m.opts.Budget.Context(), "memo", "cost", func() {
		best, err = m.extract(roots, s)
	})
	return best, err
}

func (m *Memo) extract(roots []GroupID, s *stats.Session) (Best, error) {
	start := time.Now()
	defer func() {
		if reg := m.obs(); reg != nil {
			reg.Counter("memo.extract_ns").Add(time.Since(start).Nanoseconds())
		}
	}()
	onPath := make([]bool, len(m.groups))
	best := Best{Cost: math.Inf(1), Root: -1}
	for i, gid := range roots {
		g := m.groups[m.find(gid)]
		if err := m.extractGroup(g, s, onPath); err != nil {
			return Best{}, err
		}
		if g.winner != nil && g.winnerCost < best.Cost {
			best = Best{Plan: g.winner, Cost: g.winnerCost, Group: g.id, Root: i}
		}
	}
	if best.Plan == nil {
		return Best{}, fmt.Errorf("memo: no extractable plan among %d root groups", len(roots))
	}
	seed := m.seedOf(m.exprs[m.groups[best.Group].winnerExpr])
	for i, gid := range roots {
		if m.find(gid) == best.Group && m.groups[gid].repr == seed {
			best.Root = i
			break
		}
	}
	return best, nil
}

// Estimate returns a group's cardinality, once Extract or Price has
// read it.
func (m *Memo) Estimate(gid GroupID) stats.Estimate { return m.groups[m.find(gid)].est }

// Estimates maps every node of gid's winner to the cardinality of the
// group it was extracted from.
func (m *Memo) Estimates(gid GroupID, into map[plan.Node]stats.Estimate) {
	g := m.groups[m.find(gid)]
	if g.winner == nil {
		return
	}
	into[g.winner] = g.est
	for _, cg := range m.exprs[g.winnerExpr].children {
		m.Estimates(cg, into)
	}
}

// estimate reads g's cardinality once: its representative over its
// input groups' cardinalities. The recursion descends: the
// representative's input groups were created before g, and a merge
// keeps the lower id, so they resolve to groups older than g — never
// to g itself, even when a merge made another of g's expressions
// reference g.
func (m *Memo) estimate(g *group, s *stats.Session) error {
	if g.estimated {
		return nil
	}
	e := m.exprs[g.repr]
	var in [2]float64
	for i, cg := range e.children {
		sub := m.groups[m.find(cg)]
		if err := m.estimate(sub, s); err != nil {
			return err
		}
		in[i] = sub.est.Rows
	}
	est, err := s.GroupRows(e.node, in[:len(e.children)])
	if err != nil {
		return err
	}
	g.est, g.estimated = est, true
	return nil
}

// opCost prices expression e's own operator at its group's and its
// input groups' cardinalities.
func (m *Memo) opCost(e *expr, s *stats.Session) float64 {
	var in [2]float64
	for i, cg := range e.children {
		in[i] = m.groups[cg].est.Rows
	}
	return s.Estimator().OpCost(e.node, m.groups[e.group].est.Rows, in[:len(e.children)])
}

func (m *Memo) extractGroup(g *group, s *stats.Session, onPath []bool) error {
	if g.extracted {
		return nil
	}
	// Group entry is extraction's deterministic guard point: groups
	// are visited in the same order for any configuration, so a
	// cancellation or injected fault aborts at the same group.
	if err := m.opts.Budget.Cancelled(); err != nil {
		return err
	}
	if err := guard.Hit(guard.PointMemoExtract); err != nil {
		return err
	}
	if err := m.estimate(g, s); err != nil {
		return err
	}
	onPath[g.id] = true
	defer func() { onPath[g.id] = false }()
	reg := m.obs()
	incumbent := math.Inf(1)
	winner := exprID(-1)
	for _, eid := range g.exprs {
		e := m.exprs[eid]
		if e.dead {
			continue
		}
		lb := 0.0
		usable := true
		for _, cgid := range e.children {
			// A self-referential spelling cannot be materialized on
			// this path; another expression of the group covers it.
			if onPath[cgid] {
				usable = false
				break
			}
			sub := m.groups[cgid]
			if err := m.extractGroup(sub, s, onPath); err != nil {
				return err
			}
			if sub.winner == nil {
				usable = false
				break
			}
			lb += sub.winnerCost
		}
		if !usable {
			continue
		}
		if lb >= incumbent {
			if reg != nil {
				reg.Counter("memo.pruned").Inc()
			}
			continue
		}
		cost := lb + m.opCost(e, s)
		if cost >= incumbent {
			if reg != nil {
				reg.Counter("memo.pruned").Inc()
			}
			continue
		}
		incumbent, winner = cost, eid
	}
	g.winnerCost, g.winnerExpr, g.extracted = incumbent, winner, true
	if winner >= 0 {
		e := m.exprs[winner]
		var in [2]plan.Node
		for i, cg := range e.children {
			in[i] = m.groups[cg].winner
		}
		g.winner = rebuild(e.node, in[0], in[1])
	}
	return nil
}

// Price returns the cost of the tree n as a materialization of group
// gid, priced as extraction prices it: n's root operator matched by an
// expression of the group, each input a materialization of that
// expression's input group, every operator at its group's
// cardinality. A tree that several expressions spell is priced along
// the cheapest. ok is false when n is no materialization of gid.
func (m *Memo) Price(gid GroupID, n plan.Node, s *stats.Session) (cost float64, ok bool, err error) {
	return m.price(m.find(gid), n, s, make(map[priceKey]float64))
}

type priceKey struct {
	g GroupID
	n plan.Node
}

func (m *Memo) price(gid GroupID, n plan.Node, s *stats.Session, seen map[priceKey]float64) (float64, bool, error) {
	key := priceKey{gid, n}
	if c, ok := seen[key]; ok {
		return c, !math.IsInf(c, 1), nil
	}
	seen[key] = math.Inf(1) // a cyclic spelling does not justify itself
	g := m.groups[gid]
	if err := m.estimate(g, s); err != nil {
		return 0, false, err
	}
	op, in := m.operator(n)
	best := math.Inf(1)
	for _, eid := range g.exprs {
		e := m.exprs[eid]
		if e.dead || e.op != op.op || e.pred != op.pred || e.aux != op.aux {
			continue
		}
		sum, held := 0.0, true
		for i, cg := range e.children {
			c, ok, err := m.price(cg, in[i], s, seen)
			if err != nil {
				return 0, false, err
			}
			if held = ok; !held {
				break
			}
			sum += c
		}
		if held {
			best = math.Min(best, sum+m.opCost(e, s))
		}
	}
	seen[key] = best
	return best, !math.IsInf(best, 1), nil
}

// Offer admits n, a tree equivalent to group gid built outside
// exploration, as one more expression of the group credited to rule,
// so that extraction weighs it at the group's cardinalities like any
// other member. Its input subtrees are ingested as Add ingests them.
// Offer must precede Extract.
func (m *Memo) Offer(gid GroupID, n plan.Node, rule string) {
	m.addResult(gid, n, &boundRule{Rule: core.Rule{Name: rule}}, -1)
}

// Derivation reconstructs the identity-rule chain justifying a
// group's winner, children first: for every group of the winning
// tree (visited once, post-order over the winner expressions), the
// rules that derived its winning expression from the group's seed,
// oldest first. The chain replays the provenance the saturation
// engine's trace records, assembled from the memo's per-expression
// (rule, parent expression) records instead of a whole-tree map.
func (m *Memo) Derivation(gid GroupID) []string {
	visited := make(map[GroupID]bool)
	var walk func(GroupID) []string
	walk = func(gid GroupID) []string {
		if visited[gid] {
			return nil
		}
		visited[gid] = true
		g := m.groups[gid]
		if !g.extracted || g.winnerExpr < 0 {
			return nil
		}
		e := m.exprs[g.winnerExpr]
		var out []string
		for _, cg := range e.children {
			out = append(out, walk(cg)...)
		}
		return append(out, m.provChain(e)...)
	}
	return walk(m.find(gid))
}

// seedOf walks an expression's provenance back to the seed
// expression it was derived from, or to the offered one.
func (m *Memo) seedOf(e *expr) exprID {
	for e.rule != "" && e.from >= 0 {
		e = m.exprs[e.from]
	}
	return e.id
}

// provChain walks an expression's provenance back to its group's seed
// and returns the producing rules oldest-first.
func (m *Memo) provChain(e *expr) []string {
	var rev []string
	for e.rule != "" {
		rev = append(rev, e.rule)
		if e.from < 0 {
			break
		}
		e = m.exprs[e.from]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

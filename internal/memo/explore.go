package memo

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
)

// task is one binding and the rules to apply to it: the canonical
// expression and the ScopeNode rules, a one-slot binding and the
// ScopeChild rules its operator kinds can match, or a pure join tree of
// the group and the ScopeGroup rules. Tasks are generated in a
// deterministic order against the pre-wave memo state, so the merge —
// which ingests results in task order — produces the same memo for
// any worker count.
type task struct {
	group   GroupID
	from    exprID
	rules   []*boundRule
	binding plan.Node
}

// altResult is one rule firing's output.
type altResult struct {
	node plan.Node
	rule *boundRule
}

// workers resolves Options.Workers to a goroutine count.
func (o Options) workers() int {
	switch {
	case o.Workers < 0:
		return runtime.GOMAXPROCS(0)
	case o.Workers == 0:
		return 1
	default:
		return o.Workers
	}
}

// Explore saturates the groups under the rule set: waves of bindings
// are generated incrementally (per-expression consumed counters make
// each binding appear exactly once across the whole run), rules are
// applied — serially or across Options.Workers goroutines — and
// results are merged back single-threaded in task order. The loop
// reaches a fixpoint when a wave generates no bindings, or stops at
// MaxExprs or a tripped expression budget (both cap the memo rather
// than erroring — extraction still covers everything admitted). A
// non-nil error means the run was aborted: cancellation, an injected
// fault, or a contained rule-application panic.
//
// The run carries pprof labels engine=memo phase=explore, which the
// rule-application worker goroutines inherit, so CPU profiles split
// exploration from extraction and execution.
func (m *Memo) Explore() (err error) {
	obs.WithPhase(m.opts.Budget.Context(), "memo", "explore", func() {
		err = m.explore()
	})
	return err
}

func (m *Memo) explore() error {
	reg := m.obs()
	b := m.opts.Budget
	if m.charged < 0 {
		m.charged = len(m.exprs)
	}
	// The task list and the result slots are reused from wave to wave.
	var tasks []task
	var results [][]altResult
	var errs []error
	for !m.capped {
		if err := b.Cancelled(); err != nil {
			return err
		}
		if err := guard.Hit(guard.PointMemoWave); err != nil {
			return err
		}
		tasks = m.collectTasks(tasks[:0])
		if len(tasks) == 0 {
			break
		}
		if reg != nil {
			reg.Counter("memo.waves").Inc()
		}
		results, errs = resize(results, len(tasks)), resize(errs, len(tasks))
		if err := m.apply(tasks, results, errs); err != nil {
			return err
		}
		for i, t := range tasks {
			g := m.groups[t.group]
			for _, alt := range results[i] {
				m.addResult(g, alt.node, alt.rule, t.from)
				// One result can admit several expressions (the
				// operators it newly built get groups of their own),
				// so the charge is the growth, not one per call.
				if d := len(m.exprs) - m.charged; d > 0 {
					m.charged = len(m.exprs)
					if b.ChargeExprs(int64(d)) != nil {
						m.markCapped(CappedBudget)
						return nil
					}
				}
				if len(m.exprs) >= m.opts.MaxExprs {
					m.markCapped(CappedMaxExprs)
					return nil
				}
			}
		}
	}
	return nil
}

// collectTasks advances every expression's binding cursors and
// appends the new wave's bindings to tasks: expressions created since
// the last wave contribute their canonical ScopeNode binding, every
// expression contributes one ScopeChild binding per (slot, newly
// admitted child expression) whose operator kinds some rule's patterns
// match, and every new pure join tree of a group is bound to the
// ScopeGroup rules.
func (m *Memo) collectTasks(tasks []task) []task {
	child := 0
	for _, e := range m.exprs {
		if !e.nodeDone {
			e.nodeDone = true
			if rules := m.rules[core.ScopeNode]; len(rules) > 0 {
				tasks = append(tasks, task{group: e.group, from: e.id, rules: rules, binding: e.node})
			}
		}
		if len(m.rules[core.ScopeChild]) == 0 {
			continue
		}
		for s, cgid := range e.children {
			cg := m.groups[cgid]
			start := e.consumed[s]
			// Slot 0's first binding is e.node itself (the child's
			// first expression IS the representative); the same tree
			// would reappear at every later slot's first binding, so
			// those start at 1.
			if s > 0 && start == 0 {
				start = 1
			}
			var in [2]plan.Node
			var kinds [2]core.OpKind
			for i, c := range e.children {
				// A group's first expression is its representative.
				repr := m.exprs[m.groups[c].exprs[0]]
				in[i], kinds[i] = repr.node, repr.kind
			}
			for j := start; j < len(cg.exprs); j++ {
				ce := m.exprs[cg.exprs[j]]
				kinds[s] = ce.kind
				rules := m.childRulesFor(e.kind, kinds)
				if len(rules) == 0 {
					continue
				}
				in[s] = ce.node
				tasks = append(tasks, task{group: e.group, from: e.id, rules: rules, binding: rebuild(e.node, in[0], in[1])})
				child++
			}
			e.consumed[s] = len(cg.exprs)
		}
	}
	if m.cChild != nil {
		m.cChild.Add(int64(child))
	}
	if rules := m.rules[core.ScopeGroup]; len(rules) > 0 {
		tasks = m.growPures(tasks, rules)
	}
	return tasks
}

// growPures extends every group's list of pure join-over-scan trees
// and appends a ScopeGroup binding for each new one. A Scan is its own
// pure tree; a Join expression contributes one tree per pair of its
// inputs' pure trees (combined incrementally through pureDone) — but
// only when the pair places the query's conjuncts on operators in a
// way no tree of the group does yet. Trees that differ in join order
// alone share a placement, and with it everything a ScopeGroup rule
// reads; what adds placements is selection push-down folding a
// deferred conjunct into another join's predicate, so a group has one
// or two where it has hundreds of join orders. One call carries the
// growth to a fixpoint.
func (m *Memo) growPures(tasks []task, rules []*boundRule) []task {
	for changed := true; changed; {
		changed = false
		for _, e := range m.exprs {
			g := m.groups[e.group]
			switch x := e.node.(type) {
			case *plan.Scan:
				if len(g.pures) == 0 {
					g.pures, changed = []pureTree{{tree: x}}, true
				}
			case *plan.Join:
				l, r := m.groups[e.kids[0]].pures, m.groups[e.kids[1]].pures
				nl, nr := e.pureDone[0], e.pureDone[1]
				if nl == len(l) && nr == len(r) {
					continue
				}
				e.pureDone = [2]int{len(l), len(r)}
				edge := m.edgeID(x)
				// Delta rectangle: already-combined left × new right,
				// then new left × all right.
				for i := range l {
					j := 0
					if i < nl {
						j = nr
					}
					for ; j < len(r); j++ {
						pl := m.place(edge, l[i].placement, r[j].placement)
						if slices.ContainsFunc(g.pures, func(p pureTree) bool { return p.placement == string(pl) }) {
							continue
						}
						t := rebuild(x, l[i].tree, r[j].tree)
						g.pures = append(g.pures, pureTree{tree: t, placement: string(pl)})
						if _, ok := m.byNode[t]; !ok {
							m.byNode[t] = g.id
						}
						tasks = append(tasks, task{group: g.id, from: e.id, rules: rules, binding: t})
						changed = true
					}
				}
			}
		}
	}
	return tasks
}

// place spells the placement of a pure join tree: one more operator,
// edge, over the placements a and b of its inputs. A placement is the
// multiset of the tree's edge ids as sorted big-endian byte pairs (a
// Scan's is empty); the result lives in a buffer the next call reuses.
func (m *Memo) place(edge uint16, a, b string) []byte {
	ids := append(m.scratch[:0], edge)
	for _, p := range [2]string{a, b} {
		for i := 0; i < len(p); i += 2 {
			ids = append(ids, uint16(p[i])<<8|uint16(p[i+1]))
		}
	}
	slices.Sort(ids)
	key := m.keybuf[:0]
	for _, id := range ids {
		key = append(key, byte(id>>8), byte(id))
	}
	m.scratch, m.keybuf = ids, key
	return key
}

// edgeID numbers a join operator by kind and predicate alone, a right
// outer join as the left outer join it mirrors.
func (m *Memo) edgeID(j *plan.Join) uint16 {
	k, _ := m.operator(j)
	if j.Kind == plan.RightJoin && k.op != 0 {
		k.op = opJoin + uint32(plan.LeftJoin)
	}
	id, ok := m.edges[k]
	if !ok {
		id = uint16(len(m.edges))
		m.edges[k] = id
	}
	return id
}

// markCapped flags the early stop once, recording why and bumping
// memo.capped.
func (m *Memo) markCapped(reason string) {
	if m.capped {
		return
	}
	m.capped = true
	m.cappedBy = reason
	if reg := m.obs(); reg != nil {
		reg.Counter("memo.capped").Inc()
	}
}

// resize returns s with length n, keeping its storage — and, for the
// result slots, the buffers earlier waves left in them — where it can.
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// apply runs the wave's rule applications into the per-task slots of
// results and errs, fanning out across workers when configured. Each
// task is independent and reads only pre-wave memo state, so the
// caller's in-order merge is deterministic. Each task contains its own
// panics (a boundary defer cannot see a worker goroutine's); the
// lowest-index failure wins, so the surfaced error is the same for any
// scheduling.
func (m *Memo) apply(tasks []task, results [][]altResult, errs []error) error {
	workers := m.opts.workers()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for i, t := range tasks {
			results[i], errs[i] = m.applyOne(t, results[i][:0])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					results[i], errs[i] = m.applyOne(tasks[i], results[i][:0])
				}
			}()
		}
		wg.Wait()
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// applyOne appends the results of t's rules on its binding to out.
func (m *Memo) applyOne(t task, out []altResult) (_ []altResult, err error) {
	// The binding's fingerprint labels a panic; it is rendered only
	// when one is being reported.
	defer guard.RecoverItem(&err, "explore", t.binding, m.obs())
	if err := guard.Hit(guard.PointRuleApply); err != nil {
		return nil, err
	}
	for _, r := range t.rules {
		for _, alt := range r.Apply(t.binding) {
			if r.applied != nil {
				r.applied.Inc()
			}
			out = append(out, altResult{node: alt, rule: r})
		}
	}
	return out, nil
}

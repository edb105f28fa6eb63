// Package memo implements a memo table of equivalence groups for the
// optimizer's enumeration (Section 4): instead of materializing every
// member of a query's equivalence class as a full plan tree (the
// core.Saturate approach), the memo stores each distinct subtree
// class once as a *group* and each distinct operator-over-groups
// shape once as an *expression*, so shared subtrees are derived,
// stored and costed once regardless of how many enclosing plans use
// them.
//
// An expression is one operator whose children are group references.
// Its identity is a comparable *shape* — operator, predicate as a set
// of the query's conjunct atoms, preserved-relation list, child group
// ids — so admitting, deduplicating and looking one up never renders a
// tree. It is also kept concretely, as a real plan.Node whose child
// subtrees are the *representatives* of the child groups, which keeps
// every expression a genuine member tree that rules apply to directly.
// A rule result's children are nodes the memo already knows —
// representatives or admitted expression nodes — so they resolve to
// their groups by pointer; only the operators a rule newly built are
// shaped. Costing reads no tree: a group has one cardinality,
// estimated from its representative, and extraction prices each
// expression's operator from its group's and its input groups'
// cardinalities (see Extract).
//
// Exploration saturates the groups under a core.Rule set using the
// rules' declared RuleScope to build group-local *bindings*: a
// ScopeNode rule sees each expression once, a ScopeChild rule sees
// each (expression, child slot, child-group expression) combination
// whose operator kinds its declared patterns match — a combination
// no rule's patterns match is never built — and a ScopeGroup rule
// (predicate break-up) sees one pure join-over-scan tree per group
// that has one. Because every binding is
// itself a member tree, every rule result is equivalent to the group
// by construction; results are ingested back as new expressions (of
// the same group) with per-group dedup.
//
// A shape lives in exactly one group. When a result's shape already
// lives in another group, the two groups hold a common member and are
// one equivalence class (bag equivalence is transitive), so they
// merge — the Cascades group merge. The lower id wins and absorbs the
// loser's expressions and pure trees; every id of the loser resolves
// to the winner from then on. The expressions over the loser are
// re-keyed onto the winner, and one whose new shape is already held
// is a duplicate: it is dropped, and when another group holds the
// shape that group merges too. Without the merge both groups explored
// the same closure in full.
package memo

import (
	"fmt"
	"slices"

	"repro/internal/core"
	xpr "repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stats"
)

// GroupID names one equivalence group.
type GroupID int

// exprID names one expression globally (across groups), in admission
// order. The exploration loop walks expressions by ascending id.
type exprID int

// shape is an expression's identity. Its fields leave no padding, so
// the maps keyed by it hash 32 bytes of plain memory.
type shape struct {
	// pred is the operator's predicate as the multiset of its conjunct
	// atoms, one bit per atom; the memo numbers atoms as it meets them
	// (rules move, merge and split conjuncts but never invent one, so
	// a query has a handful).
	pred uint64
	// op is opSelect, opGenSel, opMGOJ, opJoin plus the join kind, or
	// 0 for any other operator.
	op uint32
	// aux interns the preserved-relation list of a GS or MGOJ. For an
	// operator without a predicate (grouping, projection, a scan), and
	// for one whose atoms outnumber a word's bits, op and pred are zero
	// and aux interns its rendering over placeholder inputs (which,
	// unlike the bitset, tells conjunct orders apart: more shapes for a
	// 65-atom query, never a wrong identification).
	aux  int32
	l, r GroupID // -1 for an absent input
}

const (
	opSelect = iota + 1
	opGenSel
	opMGOJ
	opJoin
)

// expr is one operator-over-groups shape.
type expr struct {
	shape
	id    exprID
	group GroupID
	// node is the expression materialized over the child groups'
	// representative trees — a real member tree of the group — and
	// kind is its root operator's kind.
	node plan.Node
	kind core.OpKind
	// children are the groups the node's child subtrees belong to
	// (a slice of kids).
	children []GroupID
	kids     [2]GroupID
	// rule and from record provenance: the identity that produced
	// this expression and the expression its binding was rooted at.
	// Seed expressions (ingested query subtrees) have rule "" and
	// from -1.
	rule string
	from exprID

	// Exploration bookkeeping (owned by the single-threaded merge):
	// nodeDone marks the one ScopeNode binding as generated,
	// consumed is per child slot the index of the child group's next
	// expression to bind, and pureDone how many of its pure trees have
	// been combined. A slot re-pointed by a merge restarts both.
	nodeDone bool
	consumed [2]int
	pureDone [2]int
	// dead marks an expression a merge re-keyed onto a shape another
	// expression holds, of its own group or of one it then merges
	// with: nothing binds, prices or re-keys it again.
	dead bool
}

// group is one equivalence class.
type group struct {
	id GroupID
	// to is the group this one merged into, or id while it is live.
	to GroupID
	// repr is the representative, the group's first expression; exprs
	// lists its expressions in admission order, only ever appended to
	// (a merge appends the loser's).
	repr  exprID
	exprs []exprID
	// parents are the expressions over the group, which a merge that
	// the group loses re-keys.
	parents []exprID

	// pures are the pure join-over-scan materializations ScopeGroup
	// rules are bound to, one per placement of the conjuncts on
	// operators (see growPures).
	pures []pureTree

	// est is the group's cardinality, read once by Extract or Price
	// (estimated set).
	est       stats.Estimate
	estimated bool

	// winner is set by Extract: the cheapest materialization of the
	// group, or nil when every expression was pruned or cyclic.
	winner     plan.Node
	winnerCost float64
	winnerExpr exprID
	extracted  bool
}

type pureTree struct {
	tree      plan.Node
	placement string
}

// Options configure a memo.
type Options struct {
	// Rules is the identity rule set; every rule must declare a
	// RuleScope other than ScopeUnknown, and a ScopeChild rule its
	// Patterns (New rejects one that does not).
	Rules []core.Rule
	// MaxExprs caps the admitted expressions (0 means 20000) — the
	// memo analog of SaturateOptions.MaxPlans. Expressions are all the
	// memo materializes, so they are all that counts.
	MaxExprs int
	// Obs, when non-nil, receives memo.groups (the live groups when
	// exploration ends), memo.exprs, memo.dedup_hits, memo.merges,
	// memo.waves, memo.child_bindings (ScopeChild bindings built),
	// memo.capped and the per-rule
	// optimizer.rule_applied.<rule> / optimizer.rule_admitted.<rule>
	// counters. Extraction adds memo.pruned and memo.extract_ns.
	Obs *obs.Registry
	// Budget, when non-nil, governs exploration and extraction:
	// cancellation is checked at wave boundaries and per extracted
	// group (surfacing guard.ErrCancelled), and expressions admitted
	// past the seeds are charged against the expression budget —
	// tripping it caps the memo (CappedReason reports "budget:exprs")
	// exactly like MaxExprs, so extraction still runs over everything
	// admitted.
	Budget *guard.Budget
}

// boundRule is a rule with its counters resolved once.
type boundRule struct {
	core.Rule
	applied, admitted *obs.Counter
}

// Memo is the group table.
type Memo struct {
	opts Options
	// rules are indexed by scope. child files the ScopeChild rules by
	// the (root, left, right) kinds of a binding, each triple the first
	// time a binding has it: the rules whose patterns match it are
	// childRules[lo:hi] of its span.
	rules      [core.ScopeGroup + 1][]*boundRule
	child      [core.NumKinds][core.NumKinds][core.NumKinds]span
	childRules []*boundRule

	// groups is indexed by GroupID, merged groups included; live
	// counts the unmerged ones.
	groups []*group
	live   int
	exprs  []*expr
	// byNode resolves a node the memo has seen — a representative, an
	// admitted expression node, a pure join tree — to its group, and
	// owner each shape to the group holding it, both through find.
	byNode map[plan.Node]GroupID
	owner  map[shape]GroupID
	// pending are the group pairs re-keying proved equal and merge has
	// yet to unite.
	pending [][2]GroupID
	// atoms numbers comparison atoms by value (see addAtoms) and others
	// any other conjunct by rendering; repeats maps an atom to the
	// number standing for its next repetition within one predicate. One
	// numbering.
	atoms   []atom
	others  map[string]int
	repeats map[int]int
	aux     map[string]int32

	// edges numbers the join operators of pure trees; scratch and
	// keybuf are the buffers placements are spelled in (see place).
	edges   map[shape]uint16
	scratch []uint16
	keybuf  []byte

	capped   bool
	cappedBy string
	// charged is the expression count already charged to the budget,
	// -1 before exploration starts: seeds are free (extraction must
	// always have a materializable plan), so only growth past them is
	// charged.
	charged int

	cExprs, cDedup, cChild, cMerges *obs.Counter
}

// atom is a numbered comparison atom.
type atom struct {
	cmp xpr.Cmp
	id  int
}

// span is a range of Memo.childRules, once filed.
type span struct {
	lo, hi int32
	filed  bool
}

// New builds an empty memo. It fails when a rule lacks a declared
// scope, or a ScopeChild rule its declared patterns, since such a rule
// cannot be bound group-locally.
func New(opts Options) (*Memo, error) {
	if opts.Rules == nil {
		opts.Rules = core.DefaultRules()
	}
	if opts.MaxExprs <= 0 {
		opts.MaxExprs = 20000
	}
	m := &Memo{
		opts:    opts,
		byNode:  make(map[plan.Node]GroupID),
		owner:   make(map[shape]GroupID),
		others:  make(map[string]int),
		repeats: make(map[int]int),
		aux:     make(map[string]int32),
		edges:   make(map[shape]uint16),
		charged: -1,
	}
	reg := opts.Obs
	if reg != nil {
		m.cExprs, m.cDedup = reg.Counter("memo.exprs"), reg.Counter("memo.dedup_hits")
		m.cChild, m.cMerges = reg.Counter("memo.child_bindings"), reg.Counter("memo.merges")
	}
	bound := make([]boundRule, len(opts.Rules))
	for i, r := range opts.Rules {
		br := &bound[i]
		br.Rule = r
		if reg != nil {
			br.applied = reg.Counter("optimizer.rule_applied." + r.Name)
			br.admitted = reg.Counter("optimizer.rule_admitted." + r.Name)
		}
		if r.Scope == core.ScopeUnknown || int(r.Scope) >= len(m.rules) {
			return nil, fmt.Errorf("memo: rule %q has no group-local scope", r.Name)
		}
		if r.Scope == core.ScopeChild && len(r.Patterns) == 0 {
			return nil, fmt.Errorf("memo: ScopeChild rule %q declares no child patterns", r.Name)
		}
		m.rules[r.Scope] = append(m.rules[r.Scope], br)
	}
	return m, nil
}

// childRulesFor returns the ScopeChild rules a binding of a root of
// kind root over inputs of kinds in can match, filing them on the
// triple's first use: a query meets a few dozen of the NumKinds³
// triples, and filing all of them in New cost every memo ~40 µs, more
// than a small query's whole exploration saved.
func (m *Memo) childRulesFor(root core.OpKind, in [2]core.OpKind) []*boundRule {
	s := &m.child[root][in[0]][in[1]]
	if !s.filed {
		s.lo, s.filed = int32(len(m.childRules)), true
		for _, br := range m.rules[core.ScopeChild] {
			if br.Matches(root, in[0], in[1]) {
				m.childRules = append(m.childRules, br)
			}
		}
		s.hi = int32(len(m.childRules))
	}
	return m.childRules[s.lo:s.hi:s.hi]
}

// Exprs returns the total number of admitted expressions, those a
// merge dropped as duplicates included.
func (m *Memo) Exprs() int { return len(m.exprs) }

// find resolves a group id, possibly of a merged group, to the live
// group it belongs to, halving the path as it goes.
func (m *Memo) find(gid GroupID) GroupID {
	for {
		g := m.groups[gid]
		if g.to == gid {
			return gid
		}
		next := m.groups[g.to].to
		g.to = next
		gid = next
	}
}

// Cap reasons reported by CappedReason.
const (
	// cappedMaxExprs: exploration stopped at Options.MaxExprs.
	cappedMaxExprs = "max-exprs"
	// cappedBudget: the guard expression budget tripped.
	cappedBudget = "budget:exprs"
)

// CappedReason reports why exploration stopped early ("" when it ran
// to fixpoint).
func (m *Memo) CappedReason() string { return m.cappedBy }

// RuleFirings counts, per rule, the expressions it admitted.
func (m *Memo) RuleFirings() map[string]int {
	out := make(map[string]int)
	for _, e := range m.exprs {
		if e.rule != "" {
			out[e.rule]++
		}
	}
	return out
}

// Add ingests a (sub)tree and returns its group, creating groups for
// it and every novel descendant subtree. A node seen before — and a
// tree whose expression shape is already known — lands in its existing
// group. Add never merges groups.
func (m *Memo) Add(n plan.Node) GroupID {
	if gid, ok := m.byNode[n]; ok {
		return m.find(gid)
	}
	s := m.shapeOf(n)
	if gid, ok := m.owner[s]; ok {
		return m.find(gid)
	}
	id := GroupID(len(m.groups))
	g := &group{id: id, to: id, winnerExpr: -1}
	m.groups = append(m.groups, g)
	m.live++
	g.repr = m.admit(g, n, s, nil, -1).id
	return g.id
}

// shapeOf computes n's identity, ingesting its inputs.
func (m *Memo) shapeOf(n plan.Node) shape {
	s, in := m.operator(n)
	if in[0] != nil {
		s.l = m.Add(in[0])
	}
	if in[1] != nil {
		s.r = m.Add(in[1])
	}
	return s
}

// operator returns the part of n's shape that is n's own — everything
// but the input groups — and n's inputs.
func (m *Memo) operator(n plan.Node) (s shape, in [2]plan.Node) {
	s.l, s.r = -1, -1
	var ok bool
	switch x := n.(type) {
	case *plan.Join:
		s.op, in = opJoin+uint32(x.Kind), [2]plan.Node{x.L, x.R}
		s.pred, ok = m.addAtoms(0, x.Pred)
	case *plan.Select:
		s.op, in[0] = opSelect, x.Input
		s.pred, ok = m.addAtoms(0, x.Pred)
	case *plan.GenSel:
		s.op, s.aux, in[0] = opGenSel, m.internSpecs(x.Preserved), x.Input
		s.pred, ok = m.addAtoms(0, x.Pred)
	case *plan.MGOJNode:
		s.op, s.aux, in = opMGOJ, m.internSpecs(x.Preserved), [2]plan.Node{x.L, x.R}
		s.pred, ok = m.addAtoms(0, x.Pred)
	default:
		if ch := n.Children(); copy(in[:], ch) < len(ch) {
			panic(fmt.Sprintf("memo: operator %T has more than two inputs", n))
		}
	}
	if !ok {
		ninputs := 0
		for ninputs < 2 && in[ninputs] != nil {
			ninputs++
		}
		s.op, s.pred = 0, 0
		s.aux = m.intern(n.WithChildren(holes[:ninputs]).String())
	}
	return s, in
}

// holes stand in for an operator's inputs when only the operator
// itself is rendered.
var holes = []plan.Node{plan.NewScan("\x00l"), plan.NewScan("\x00r")}

func (m *Memo) intern(s string) int32 {
	id, ok := m.aux[s]
	if !ok {
		id = int32(len(m.aux)) + 1
		m.aux[s] = id
	}
	return id
}

// internSpecs interns a preserved-relation list, spelled
// unambiguously.
func (m *Memo) internSpecs(specs []plan.PreservedSpec) int32 {
	if len(specs) == 1 && len(specs[0]) == 1 {
		return m.intern(specs[0][0])
	}
	var b []byte
	for _, spec := range specs {
		for _, rel := range spec {
			b = append(append(b, rel...), 0)
		}
		b = append(b, 1)
	}
	return m.intern(string(b))
}

// addAtoms adds p's conjunct atoms to set, numbering unseen ones; ok
// is false when one falls outside the word. A comparison is looked up
// by an equality scan over the ones numbered so far: a word holds at
// most 64 of them, and comparing a few is cheaper than hashing one
// through its interface fields. The scan's == is the one a map key
// would use, so the numbering is the same.
func (m *Memo) addAtoms(set uint64, p xpr.Pred) (_ uint64, ok bool) {
	var id int
	var seen bool
	switch q := p.(type) {
	case nil, xpr.True:
		return set, true
	case xpr.Conj:
		for _, sub := range q.Preds {
			if set, ok = m.addAtoms(set, sub); !ok {
				return 0, false
			}
		}
		return set, true
	case xpr.Cmp:
		for _, a := range m.atoms {
			if a.cmp == q {
				id, seen = a.id, true
				break
			}
		}
		if !seen {
			id = m.natoms()
			m.atoms = append(m.atoms, atom{q, id})
		}
	default:
		k := p.String()
		if id, seen = m.others[k]; !seen {
			id = m.natoms()
			m.others[k] = id
		}
	}
	// A conjunct repeated within one predicate counts each time — the
	// cost model does — so its k-th repeat is an atom of its own.
	for id < 64 && set&(1<<uint(id)) != 0 {
		next, seen := m.repeats[id]
		if !seen {
			next = m.natoms()
			m.repeats[id] = next
		}
		id = next
	}
	return set | 1<<uint(id), id < 64
}

func (m *Memo) natoms() int { return len(m.atoms) + len(m.others) + len(m.repeats) }

// rebuild returns n over the inputs l and r (nil for an absent one),
// and n itself when those are its inputs already. The operators
// exploration builds by the thousand are copied without the input
// slices of Children/WithChildren.
func rebuild(n, l, r plan.Node) plan.Node {
	switch x := n.(type) {
	case *plan.Join:
		if x.L == l && x.R == r {
			return x
		}
		return plan.NewJoin(x.Kind, x.Pred, l, r)
	case *plan.Select:
		if x.Input == l {
			return x
		}
		return plan.NewSelect(x.Pred, l)
	}
	ch := n.Children()
	in := []plan.Node{l, r}[:len(ch)]
	if slices.Equal(ch, in) {
		return n
	}
	return n.WithChildren(in)
}

// admit appends an expression of shape s to g, materialized from n
// over the representatives of its input groups. Callers have checked
// that no group holds the shape.
func (m *Memo) admit(g *group, n plan.Node, s shape, rule *boundRule, from exprID) *expr {
	e := &expr{shape: s, id: exprID(len(m.exprs)), group: g.id, kids: [2]GroupID{s.l, s.r}, from: from}
	var in [2]plan.Node
	for i, gid := range e.kids {
		if gid >= 0 {
			cg := m.groups[gid]
			in[i] = m.exprs[cg.repr].node
			e.children = e.kids[:i+1]
			if i == 0 || gid != e.kids[0] {
				cg.parents = append(cg.parents, e.id)
			}
		}
	}
	// Slot 0's first binding is e.node itself (a child group's first
	// expression IS its representative); the same tree would be every
	// later slot's first binding, so those start at 1.
	if len(e.children) == 2 {
		e.consumed[1] = 1
	}
	e.node = rebuild(n, in[0], in[1])
	e.kind = core.KindOf(e.node)
	m.exprs = append(m.exprs, e)
	g.exprs = append(g.exprs, e.id)
	m.owner[s] = g.id
	if _, ok := m.byNode[e.node]; !ok {
		m.byNode[e.node] = g.id
	}
	if m.cExprs != nil {
		m.cExprs.Inc()
	}
	if rule != nil {
		e.rule = rule.Name
		if rule.admitted != nil {
			rule.admitted.Inc()
		}
	}
	return e
}

// addResult ingests one rule result tree as an expression of group
// gid (the result is equivalent to the group because the rule fired on
// one of its member trees). A shape another group holds merges the
// two. Reports whether the expression was new.
func (m *Memo) addResult(gid GroupID, n plan.Node, rule *boundRule, from exprID) bool {
	s := m.shapeOf(n)
	gid = m.find(gid)
	if owner, held := m.owner[s]; held {
		if m.cDedup != nil {
			m.cDedup.Inc()
		}
		m.merge(gid, owner)
		return false
	}
	m.admit(m.groups[gid], n, s, rule, from)
	return true
}

// merge unites the groups a and b — a no-op when they are one — and
// then every further pair the re-keying proves equal.
func (m *Memo) merge(a, b GroupID) {
	m.pending = append(m.pending[:0], [2]GroupID{a, b})
	for i := 0; i < len(m.pending); i++ {
		w, l := m.find(m.pending[i][0]), m.find(m.pending[i][1])
		if w == l {
			continue
		}
		if l < w {
			w, l = l, w
		}
		m.union(m.groups[w], m.groups[l])
	}
}

// union merges the group l into w, the lower id, which keeps its
// representative and appends l's live expressions and the pure trees
// of placements it lacks. The expressions over l are re-keyed onto w;
// w's list is only appended to, so the cursors of expressions over w
// stay valid.
func (m *Memo) union(w, l *group) {
	l.to = w.id
	m.live--
	if m.cMerges != nil {
		m.cMerges.Inc()
	}
	for _, eid := range l.exprs {
		if e := m.exprs[eid]; !e.dead {
			e.group = w.id
			w.exprs = append(w.exprs, eid)
		}
	}
	for _, p := range l.pures {
		if !slices.ContainsFunc(w.pures, func(q pureTree) bool { return q.placement == p.placement }) {
			w.pures = append(w.pures, p)
		}
	}
	parents := l.parents
	l.exprs, l.pures, l.parents = nil, nil, nil
	for _, pid := range parents {
		if p := m.exprs[pid]; !p.dead {
			m.rekey(p)
			if !p.dead {
				w.parents = append(w.parents, pid)
			}
		}
	}
}

// rekey points e's child slots at the live groups. A re-pointed slot
// restarts its binding cursors; a new shape its group already holds
// makes e a duplicate, dropped, and one another group holds queues
// that group's merge with e's.
func (m *Memo) rekey(e *expr) {
	old := e.shape
	for i, c := range e.children {
		if r := m.find(c); r != c {
			e.kids[i], e.consumed[i], e.pureDone[i] = r, 0, 0
		}
	}
	e.l, e.r = e.kids[0], e.kids[1]
	if e.shape == old {
		return
	}
	delete(m.owner, old)
	g := m.find(e.group)
	if owner, held := m.owner[e.shape]; held {
		e.dead = true
		m.pending = append(m.pending, [2]GroupID{g, owner})
		return
	}
	m.owner[e.shape] = g
}

func (m *Memo) obs() *obs.Registry { return m.opts.Obs }

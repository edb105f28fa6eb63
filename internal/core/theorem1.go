package core

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/hypergraph"
	"repro/internal/plan"
	"repro/internal/simplify"
)

// CompensationSpecs computes, per Theorem 1, the preserved-relation
// list of the generalized selection that compensates for breaking a
// conjunct off hyperedge e of hypergraph h:
//
//   - full outer join edge: [pres_1(e), pres_2(e)] — both sides stay
//     preserved (identities (2), (4));
//   - one-sided outer join edge: pres_{e}(h_i) for every h_i in
//     conf(e), plus pres(e) (identities (1), (3), (7));
//   - inner join edge: pres_{e}(h_i) for every h_i in conf(e); an
//     empty conflict set means a plain selection suffices
//     (identities (5), (6), (8)).
//
// Note on identity (6): the paper prints the preserved list
// [r1, r2r3], but the combined r2r3 spec re-preserves inner-join
// tuples that the original query discards; the conflict-set
// derivation used here yields [r1], which the randomized equivalence
// tests confirm. See DESIGN.md.
func CompensationSpecs(h *hypergraph.Hypergraph, e *hypergraph.Hyperedge) []plan.PreservedSpec {
	var specs []plan.PreservedSpec
	switch e.Kind {
	case hypergraph.BiDirected:
		specs = append(specs,
			plan.NewPreserved(h.Pres(e)...),
			plan.NewPreserved(h.Pres2(e)...))
	case hypergraph.Directed:
		for _, hi := range h.Conf(e) {
			specs = append(specs, plan.NewPreserved(h.PresAway(hi, e)...))
		}
		specs = append(specs, plan.NewPreserved(h.Pres(e)...))
	default: // Undirected
		for _, hi := range h.Conf(e) {
			specs = append(specs, plan.NewPreserved(h.PresAway(hi, e)...))
		}
	}
	return dedupeSpecs(specs)
}

func dedupeSpecs(specs []plan.PreservedSpec) []plan.PreservedSpec {
	seen := make(map[string]bool, len(specs))
	out := specs[:0]
	for _, s := range specs {
		k := s.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, s)
	}
	return out
}

// DeferConjuncts breaks the conjuncts of `target` (a join node inside
// the pure join tree rooted at q) selected by deferIdx off its
// predicate and re-applies them at the root of q with the Theorem 1
// generalized selection. The remaining predicate must still reference
// both operands of the target (otherwise the operator would
// degenerate), and at least one conjunct must remain.
//
// The returned plan is equivalent to q; when the deferred predicate's
// compensation needs no preservation (inner join edge with an empty
// conflict set) a plain selection is produced instead of a
// generalized selection.
func DeferConjuncts(q plan.Node, target *plan.Join, deferIdx []int) (plan.Node, error) {
	// Theorem 1 holds for *simple* queries (the paper's standing
	// assumption, end of Section 1.1): an outer join whose padded
	// rows a null-intolerant ancestor predicate rejects is redundant,
	// and compensating around it would resurrect rows the original
	// query discards. Require the input to be its own simplification.
	if !simplify.IsSimple(q) {
		return nil, fmt.Errorf("core: query is not simple (outer joins are removable); run simplify.Simplify first")
	}
	h, err := hypergraph.FromPlan(q)
	if err != nil {
		return nil, err
	}
	var edge *hypergraph.Hyperedge
	for _, e := range h.Edges {
		if e.Origin == target {
			edge = e
			break
		}
	}
	if edge == nil {
		return nil, fmt.Errorf("core: target join %s not found in plan %s", target, q)
	}
	// Soundness precondition (the paper's dependent-predicate rule,
	// end of Section 3): breaking a conjunct off edge h is valid only
	// if h separates the hypergraph — no other hyperedge may span
	// h's preserved-side and null-supplying-side regions. When one
	// does (as Q6's top predicate p12∧p14 spans the middle edge), the
	// spanning predicate is dependent and must be broken first;
	// deferring the inner conjunct directly would preserve
	// combinations that exist only because the conjunct was dropped.
	if !separates(h, edge) {
		return nil, fmt.Errorf("core: edge %s does not separate the query (a relation is reachable from both sides); break the spanning (dependent) predicate first", edge)
	}
	conj := expr.Conjuncts(target.Pred)
	if len(deferIdx) == 0 || len(deferIdx) >= len(conj) {
		return nil, fmt.Errorf("core: must defer a non-empty proper subset of the %d conjuncts", len(conj))
	}
	deferSet := make(map[int]bool, len(deferIdx))
	for _, i := range deferIdx {
		if i < 0 || i >= len(conj) {
			return nil, fmt.Errorf("core: conjunct index %d out of range [0,%d)", i, len(conj))
		}
		deferSet[i] = true
	}
	var deferred, remaining []expr.Pred
	for i, c := range conj {
		if deferSet[i] {
			deferred = append(deferred, c)
		} else {
			remaining = append(remaining, c)
		}
	}
	remPred := expr.And(remaining...)
	// The remaining predicate must still reference both operands.
	if !refsBoth(remPred, target.L, target.R) {
		return nil, fmt.Errorf("core: remaining predicate %s no longer references both operands", remPred)
	}
	e := SplitEntry{Target: target, Deferred: expr.And(deferred...), Remaining: remPred, Specs: CompensationSpecs(h, edge)}
	return e.Apply(q), nil
}

// separates reports whether removing e disconnects its two sides: no
// relation is reachable from both hypernodes once e is gone.
func separates(h *hypergraph.Hypergraph, e *hypergraph.Hyperedge) bool {
	nside := h.Region(e.To, e)
	for r := range h.Region(e.From, e) {
		if nside[r] {
			return false
		}
	}
	return true
}

// SplitEntry is one deferral Theorem 1 admits on a pure join tree:
// Target keeps Remaining as its predicate and Deferred is re-applied
// above the tree by a generalized selection preserving Specs — a plain
// selection when Specs is empty.
type SplitEntry struct {
	Target              *plan.Join
	Conjunct            int // index of Deferred among Target's conjuncts
	Deferred, Remaining expr.Pred
	Specs               []plan.PreservedSpec
}

// Apply rebuilds q — the tree Target sits in — with the entry applied.
func (e SplitEntry) Apply(q plan.Node) plan.Node {
	reduced := plan.NewJoin(e.Target.Kind, e.Remaining, e.Target.L, e.Target.R)
	newQ := plan.Rewrite(q, func(n plan.Node) plan.Node {
		if n == e.Target {
			return reduced
		}
		return nil
	})
	if len(e.Specs) == 0 {
		return plan.NewSelect(e.Deferred, newQ)
	}
	return plan.NewGenSel(e.Deferred, e.Specs, newQ)
}

// SplitTable lists every single-conjunct deferral of the pure join
// tree q, operators in pre-order: the simplicity check, the hypergraph
// and, per hyperedge, the separation test and the compensation specs
// are computed once for the tree, not once per conjunct. It is empty
// when q is not a join-over-scan tree, has no multi-conjunct
// predicate, or is not simple. Everything in an entry but Target is a
// property of the hypergraph, so the table of one join tree stands for
// every tree that places the same conjuncts on the same operators —
// not for its whole equivalence group, which can hold trees with
// different hypergraphs (see ScopeGroup).
func SplitTable(q plan.Node) []SplitEntry {
	if !pureJoinTree(q) {
		return nil
	}
	opts := SplitOptionsOf(q)
	if len(opts) == 0 || !simplify.IsSimple(q) {
		return nil
	}
	h, err := hypergraph.FromPlan(q)
	if err != nil {
		return nil
	}
	var out []SplitEntry
	var base *SplitEntry // the current operator's entry; nil when its edge does not separate
	for _, opt := range opts {
		if base == nil || base.Target != opt.Target {
			base = nil
			for _, e := range h.Edges {
				if e.Origin == opt.Target && separates(h, e) {
					base = &SplitEntry{Target: opt.Target, Specs: CompensationSpecs(h, e)}
				}
			}
		}
		if base != nil {
			out = append(out, base.with(opt.Conjunct))
		}
	}
	return out
}

// with returns the entry of the same operator deferring conjunct i.
func (e SplitEntry) with(i int) SplitEntry {
	conj := expr.Conjuncts(e.Target.Pred)
	e.Conjunct, e.Deferred = i, conj[i]
	e.Remaining = expr.And(append(append([]expr.Pred(nil), conj[:i]...), conj[i+1:]...)...)
	return e
}

// pureJoinTree reports whether n consists solely of joins over scans.
func pureJoinTree(n plan.Node) bool {
	switch m := n.(type) {
	case *plan.Scan:
		return true
	case *plan.Join:
		return pureJoinTree(m.L) && pureJoinTree(m.R)
	}
	return false
}

// SplitOptions lists every valid single-conjunct deferral of a pure
// join tree: for each join node whose predicate has at least two
// conjuncts, each conjunct whose removal keeps the operator
// two-sided. The options drive both the saturation engine and the
// recursive Q5/Q6 splitting procedure.
type SplitOption struct {
	Target   *plan.Join
	Conjunct int
}

// SplitOptionsOf enumerates the split options of the join tree q,
// operators in pre-order.
func SplitOptionsOf(q plan.Node) []SplitOption {
	j, ok := q.(*plan.Join)
	if !ok {
		return nil
	}
	var opts []SplitOption
	if _, multi := j.Pred.(expr.Conj); multi {
		conj := expr.Conjuncts(j.Pred)
		for i := range conj {
			rest := append(append([]expr.Pred(nil), conj[:i]...), conj[i+1:]...)
			if refsBoth(expr.And(rest...), j.L, j.R) {
				opts = append(opts, SplitOption{Target: j, Conjunct: i})
			}
		}
	}
	return append(append(opts, SplitOptionsOf(j.L)...), SplitOptionsOf(j.R)...)
}

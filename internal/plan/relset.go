package plan

import (
	"sync/atomic"

	"repro/internal/expr"
)

// Predicate scoping — "does p reference only relations under these
// operands", "does it reference any" — is the inner loop of every
// reordering identity. Answering it by walking the operands for scan
// names and the predicate for attributes costs a map and several
// slices per question; the enumerator asks it thousands of times per
// query about the same few dozen subtrees. So the base relations of a
// query are numbered once (IndexRelations), every node caches the set
// under it as a bitset over that numbering — computed bottom-up at
// most once per node, like the fingerprint — and a scoping question is
// a walk over the predicate's columns with one bit test each.

// RelIndex numbers the base relations of one query: bit i of a relSet
// stands for names[i], the i-th distinct relation scanned. It is
// immutable once built and shared by every node of the query's plans.
// A name is found by comparing it with each in turn: a query scans a
// dozen relations at most, and that beats hashing the string.
type RelIndex struct {
	names []string
}

// index returns the number of relation rel.
func (ix *RelIndex) index(rel string) (int, bool) {
	for i, name := range ix.names {
		if name == rel {
			return i, true
		}
	}
	return 0, false
}

// relSet is a set of base relations as a bitset over a RelIndex. The
// first 64 relations of a query live in one word — the only word a
// typical query needs — and hi holds the rest, so a query over more
// relations than a word has bits costs allocations, never a wrong
// answer.
type relSet struct {
	lo uint64
	hi []uint64
}

func singleRel(i int) relSet {
	if i < 64 {
		return relSet{lo: 1 << uint(i)}
	}
	hi := make([]uint64, (i-64)/64+1)
	hi[(i-64)/64] = 1 << uint((i-64)%64)
	return relSet{hi: hi}
}

// has reports whether relation i is in the set.
func (s relSet) has(i int) bool {
	if i < 64 {
		return s.lo&(1<<uint(i)) != 0
	}
	w := (i - 64) / 64
	return w < len(s.hi) && s.hi[w]&(1<<uint((i-64)%64)) != 0
}

// union returns s ∪ t, sharing no storage it could later write to.
func (s relSet) union(t relSet) relSet {
	out := relSet{lo: s.lo | t.lo}
	if len(s.hi) == 0 && len(t.hi) == 0 {
		return out
	}
	if len(s.hi) < len(t.hi) {
		s, t = t, s
	}
	out.hi = append([]uint64(nil), s.hi...)
	for i, w := range t.hi {
		out.hi[i] |= w
	}
	return out
}

// relsVal is a node's cached relation set with the index its bits are
// numbered by.
type relsVal struct {
	ix  *RelIndex
	set relSet
}

func (c *fpCache) relsSlot() *atomic.Pointer[relsVal] { return &c.rels }

// relsCacher is implemented (through the embedded fpCache) by every
// node of this package; external Node implementations are scoped by
// walking.
type relsCacher interface {
	relsSlot() *atomic.Pointer[relsVal]
}

// IndexRelations numbers the base relations scanned under root and
// marks every Scan with its bit, which is what lets the nodes above
// cache their sets. It returns the index in force: a fresh one for a
// tree seen for the first time, the existing one when the tree (or one
// sharing all its scans) was indexed before, and nil when the scans
// carry different indexes — such a tree is still scoped correctly,
// by walking. Optimizer entry points call it once per query.
func IndexRelations(root Node) *RelIndex {
	var scans []*Scan
	Walk(root, func(n Node) {
		if s, ok := n.(*Scan); ok {
			scans = append(scans, s)
		}
	})
	var have *RelIndex
	marked := 0
	for _, s := range scans {
		if v := s.rels.Load(); v != nil {
			if have != nil && v.ix != have {
				return nil
			}
			have = v.ix
			marked++
		}
	}
	if marked == len(scans) {
		return have
	}
	if marked > 0 {
		return nil
	}
	ix := &RelIndex{}
	for _, s := range scans {
		if _, ok := ix.index(s.Name()); !ok {
			ix.names = append(ix.names, s.Name())
		}
	}
	for _, s := range scans {
		i, _ := ix.index(s.Name())
		v := &relsVal{ix: ix, set: singleRel(i)}
		if !s.rels.CompareAndSwap(nil, v) && s.rels.Load().ix != ix {
			return nil // a concurrent indexer won some scans; walk instead
		}
	}
	return ix
}

// relsOf returns the cached relation set of n, computing and caching
// it from the children's on first use; nil when n is not (consistently)
// indexed.
func relsOf(n Node) *relsVal {
	c, ok := n.(relsCacher)
	if !ok {
		return nil
	}
	slot := c.relsSlot()
	if v := slot.Load(); v != nil {
		return v
	}
	var v *relsVal
	switch m := n.(type) {
	case *Scan:
		return nil
	case *Join:
		v = unionRels(relsOf(m.L), relsOf(m.R))
	case *MGOJNode:
		v = unionRels(relsOf(m.L), relsOf(m.R))
	case *Select:
		v = relsOf(m.Input)
	case *GenSel:
		v = relsOf(m.Input)
	default:
		ch := n.Children()
		if len(ch) == 0 {
			return nil
		}
		v = relsOf(ch[0])
		for _, c := range ch[1:] {
			v = unionRels(v, relsOf(c))
		}
	}
	if v != nil {
		slot.Store(v)
	}
	return v
}

func unionRels(a, b *relsVal) *relsVal {
	if a == nil || b == nil || a.ix != b.ix {
		return nil
	}
	return &relsVal{ix: a.ix, set: a.set.union(b.set)}
}

// scope is the union of the operands a predicate is scoped against.
// The indexed form is a bitset; names is the walking fallback.
type scope struct {
	ix    *RelIndex
	set   relSet
	names map[string]bool
}

func scopeOf(nodes []Node) scope {
	first := relsOf(nodes[0])
	if first != nil {
		sc := scope{ix: first.ix, set: first.set}
		for _, n := range nodes[1:] {
			v := relsOf(n)
			if v == nil || v.ix != sc.ix {
				sc.ix = nil
				break
			}
			if len(v.set.hi) == 0 && len(sc.set.hi) == 0 {
				sc.set.lo |= v.set.lo
			} else {
				sc.set = sc.set.union(v.set)
			}
		}
		if sc.ix != nil {
			return sc
		}
	}
	names := make(map[string]bool)
	for _, n := range nodes {
		for r := range BaseRelSet(n) {
			names[r] = true
		}
	}
	return scope{names: names}
}

func (sc scope) has(rel string) bool {
	if sc.ix == nil {
		return sc.names[rel]
	}
	i, ok := sc.ix.index(rel)
	return ok && sc.set.has(i)
}

// RefsOnly reports whether every attribute p references belongs to a
// base relation under one of nodes (at least one node is required).
// Attributes qualified by something that is not a scanned relation —
// an aggregate's output name — are under no node.
func RefsOnly(p expr.Pred, nodes ...Node) bool {
	return !predRefs(p, scopeOf(nodes), false)
}

// RefsSome reports whether p references at least one attribute of a
// base relation under one of nodes.
func RefsSome(p expr.Pred, nodes ...Node) bool {
	return predRefs(p, scopeOf(nodes), true)
}

// predRefs reports whether some column of p is inside sc (want=true)
// or outside it (want=false), without materializing p's attributes.
func predRefs(p expr.Pred, sc scope, want bool) bool {
	switch q := p.(type) {
	case nil, expr.True:
		return false
	case expr.Cmp:
		return scalarRefs(q.L, sc, want) || scalarRefs(q.R, sc, want)
	case expr.Conj:
		for _, sub := range q.Preds {
			if predRefs(sub, sc, want) {
				return true
			}
		}
		return false
	default:
		for _, a := range p.Attrs(nil) {
			if sc.has(a.Rel) == want {
				return true
			}
		}
		return false
	}
}

func scalarRefs(s expr.Scalar, sc scope, want bool) bool {
	switch x := s.(type) {
	case expr.Col:
		return sc.has(x.Attr.Rel) == want
	case expr.Const, expr.Param:
		return false
	case expr.Arith:
		return scalarRefs(x.L, sc, want) || scalarRefs(x.R, sc, want)
	default:
		for _, a := range s.Attrs(nil) {
			if sc.has(a.Rel) == want {
				return true
			}
		}
		return false
	}
}

package plan

import (
	"fmt"
	"sort"
	"strings"
)

// Walk visits n and all descendants pre-order.
func Walk(n Node, visit func(Node)) {
	visit(n)
	for _, c := range n.Children() {
		Walk(c, visit)
	}
}

// BaseRels returns the sorted base relation names scanned in the
// subtree rooted at n.
func BaseRels(n Node) []string {
	set := make(map[string]bool)
	Walk(n, func(m Node) {
		if s, ok := m.(*Scan); ok {
			set[s.Name()] = true
		}
	})
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// BaseRelSet returns the set of base relation names under n.
func BaseRelSet(n Node) map[string]bool {
	set := make(map[string]bool)
	Walk(n, func(m Node) {
		if s, ok := m.(*Scan); ok {
			set[s.Name()] = true
		}
	})
	return set
}

// CountNodes returns the number of operators in the tree.
func CountNodes(n Node) int {
	count := 0
	Walk(n, func(Node) { count++ })
	return count
}

// Rewrite applies f bottom-up: children are rewritten first, then f
// is applied to the node with its new children. f returning nil keeps
// the node.
func Rewrite(n Node, f func(Node) Node) Node {
	ch := n.Children()
	if len(ch) > 0 {
		newCh := make([]Node, len(ch))
		changed := false
		for i, c := range ch {
			newCh[i] = Rewrite(c, f)
			if newCh[i] != c {
				changed = true
			}
		}
		if changed {
			n = n.WithChildren(newCh)
		}
	}
	if out := f(n); out != nil {
		return out
	}
	return n
}

// Equivalent evaluates both plans against db and reports whether they
// produce the same set of tuples over the same attributes. It is the
// ground-truth equivalence check used throughout the tests.
func Equivalent(a, b Node, db Database) (bool, error) {
	ra, err := a.Eval(db)
	if err != nil {
		return false, fmt.Errorf("plan: evaluating %s: %w", a, err)
	}
	rb, err := b.Eval(db)
	if err != nil {
		return false, fmt.Errorf("plan: evaluating %s: %w", b, err)
	}
	return ra.EqualAsSets(rb), nil
}

// Indent renders the plan as an indented tree, one operator per line,
// for EXPLAIN-style output.
func Indent(n Node) string {
	var b strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		pad := strings.Repeat("  ", depth)
		switch m := n.(type) {
		case *Scan:
			fmt.Fprintf(&b, "%sScan %s\n", pad, m.Rel)
		case *Join:
			fmt.Fprintf(&b, "%s%s on %s\n", pad, m.Kind, m.Pred)
		case *Select:
			fmt.Fprintf(&b, "%sSelect %s\n", pad, m.Pred)
		case *GenSel:
			parts := make([]string, len(m.Preserved))
			for i, s := range m.Preserved {
				parts[i] = s.String()
			}
			fmt.Fprintf(&b, "%sGenSel %s preserving [%s]\n", pad, m.Pred, strings.Join(parts, ", "))
		case *MGOJNode:
			parts := make([]string, len(m.Preserved))
			for i, s := range m.Preserved {
				parts[i] = s.String()
			}
			fmt.Fprintf(&b, "%sMGOJ %s preserving [%s]\n", pad, m.Pred, strings.Join(parts, ", "))
		case *GroupBy:
			keys := make([]string, len(m.Keys))
			for i, k := range m.Keys {
				keys[i] = k.String()
			}
			aggs := make([]string, len(m.Aggs))
			for i, a := range m.Aggs {
				aggs[i] = a.String()
			}
			fmt.Fprintf(&b, "%sGroupBy [%s] aggs [%s]\n", pad, strings.Join(keys, ", "), strings.Join(aggs, ", "))
		case *Project:
			fmt.Fprintf(&b, "%sProject %v distinct=%v\n", pad, m.Attrs, m.Distinct)
		case *Sort:
			keys := make([]string, len(m.Keys))
			for i, k := range m.Keys {
				keys[i] = k.String()
			}
			origin := ""
			if m.Origin != "" {
				origin = " (" + m.Origin + ")"
			}
			if m.Limit >= 0 {
				fmt.Fprintf(&b, "%sSort [%s] limit %d%s\n", pad, strings.Join(keys, ", "), m.Limit, origin)
			} else {
				fmt.Fprintf(&b, "%sSort [%s]%s\n", pad, strings.Join(keys, ", "), origin)
			}
		default:
			fmt.Fprintf(&b, "%s%s\n", pad, n)
		}
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

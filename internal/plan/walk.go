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

// Label renders n's operator line as EXPLAIN prints it, without
// indentation or newline. It is the one per-operator description every
// plan view is built from: Indent, IndentAnnotated, DOT and Tree.
func Label(n Node) string {
	switch m := n.(type) {
	case *Scan:
		return "Scan " + m.Rel
	case *Join:
		return fmt.Sprintf("%s on %s", m.Kind, m.Pred)
	case *Select:
		return fmt.Sprintf("Select %s", m.Pred)
	case *GenSel:
		return fmt.Sprintf("GenSel %s preserving [%s]", m.Pred, list(m.Preserved))
	case *MGOJNode:
		return fmt.Sprintf("MGOJ %s preserving [%s]", m.Pred, list(m.Preserved))
	case *GroupBy:
		return fmt.Sprintf("GroupBy [%s] aggs [%s]", list(m.Keys), list(m.Aggs))
	case *Project:
		return fmt.Sprintf("Project %v distinct=%v", m.Attrs, m.Distinct)
	case *Sort:
		s := "Sort [" + list(m.Keys) + "]"
		if m.Limit >= 0 {
			s += fmt.Sprintf(" limit %d", m.Limit)
		}
		if m.Origin != "" {
			s += " (" + m.Origin + ")"
		}
		return s
	default:
		return n.String()
	}
}

// list joins the items' strings with ", ".
func list[T fmt.Stringer](items []T) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = it.String()
	}
	return strings.Join(parts, ", ")
}

// Indent renders the plan as an indented tree, one operator per line,
// for EXPLAIN-style output.
func Indent(n Node) string { return IndentAnnotated(n, nil) }

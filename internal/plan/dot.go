package plan

import (
	"fmt"
	"strings"
)

// DOT renders the plan as a Graphviz digraph for visualization
// (`go run ./cmd/reorder -dot ... | dot -Tsvg`). Operator kinds get
// distinct shapes: scans are boxes, joins ellipses, generalized
// selections and MGOJ hexagons (the paper's new machinery stands
// out), grouping trapezia.
func DOT(n Node) string {
	var b strings.Builder
	b.WriteString("digraph plan {\n  node [fontname=\"Helvetica\"];\n  rankdir=BT;\n")
	id := 0
	var rec func(n Node) int
	rec = func(n Node) int {
		my := id
		id++
		label, shape := describe(n)
		fmt.Fprintf(&b, "  n%d [label=%q, shape=%s];\n", my, label, shape)
		for _, c := range n.Children() {
			ci := rec(c)
			fmt.Fprintf(&b, "  n%d -> n%d;\n", ci, my)
		}
		return my
	}
	rec(n)
	b.WriteString("}\n")
	return b.String()
}

func describe(n Node) (label, shape string) {
	switch m := n.(type) {
	case *Scan:
		return m.String(), "box"
	case *Join:
		return fmt.Sprintf("%s\n%s", m.Kind, m.Pred), "ellipse"
	case *Select:
		return fmt.Sprintf("σ %s", m.Pred), "diamond"
	case *GenSel:
		parts := make([]string, len(m.Preserved))
		for i, s := range m.Preserved {
			parts[i] = s.String()
		}
		return fmt.Sprintf("σ* %s\npreserve [%s]", m.Pred, strings.Join(parts, ", ")), "hexagon"
	case *MGOJNode:
		parts := make([]string, len(m.Preserved))
		for i, s := range m.Preserved {
			parts[i] = s.String()
		}
		return fmt.Sprintf("MGOJ %s\npreserve [%s]", m.Pred, strings.Join(parts, ", ")), "hexagon"
	case *GroupBy:
		keys := make([]string, len(m.Keys))
		for i, k := range m.Keys {
			keys[i] = k.String()
		}
		aggs := make([]string, len(m.Aggs))
		for i, a := range m.Aggs {
			aggs[i] = a.String()
		}
		return fmt.Sprintf("π %s\n%s", strings.Join(keys, ","), strings.Join(aggs, ",")), "trapezium"
	case *Project:
		return "proj", "triangle"
	case *Sort:
		if m.Origin != "" {
			return "sort (" + m.Origin + ")", "invtriangle"
		}
		return "sort", "invtriangle"
	default:
		return n.String(), "plaintext"
	}
}

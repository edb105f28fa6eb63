package plan

import (
	"fmt"
	"strings"
)

// DOT renders the plan as a Graphviz digraph for visualization
// (`go run ./cmd/reorder -dot ... | dot -Tsvg`), each node labelled
// with its Label. Operator kinds get distinct shapes: scans are boxes,
// joins ellipses, generalized selections and MGOJ hexagons (the
// paper's new machinery stands out), grouping trapezia.
func DOT(n Node) string {
	var b strings.Builder
	b.WriteString("digraph plan {\n  node [fontname=\"Helvetica\"];\n  rankdir=BT;\n")
	id := 0
	var rec func(n Node) int
	rec = func(n Node) int {
		my := id
		id++
		fmt.Fprintf(&b, "  n%d [label=%q, shape=%s];\n", my, Label(n), shape(n))
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

func shape(n Node) string {
	switch n.(type) {
	case *Scan:
		return "box"
	case *Join:
		return "ellipse"
	case *Select:
		return "diamond"
	case *GenSel, *MGOJNode:
		return "hexagon"
	case *GroupBy:
		return "trapezium"
	case *Project:
		return "triangle"
	case *Sort:
		return "invtriangle"
	default:
		return "plaintext"
	}
}

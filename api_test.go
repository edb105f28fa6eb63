package reorder

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"
)

// TestRootAPI pins the exported functions of reorder.go. Optimize and
// Execute take every setting through Options and Limits, so a new
// variant of either is a change to this list, made on purpose.
func TestRootAPI(t *testing.T) {
	want := []string{
		"AssociationTreeCounts",
		"DecodePlan",
		"EncodePlan",
		"Enumerate",
		"Equivalent",
		"Execute",
		"Explain",
		"ExplainPlan",
		"Hypergraph",
		"JoinOrders",
		"LoadCSVDir",
		"Optimize",
		"Parse",
		"PlanDOT",
		"Simplify",
	}
	f, err := parser.ParseFile(token.NewFileSet(), "reorder.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
			got = append(got, fn.Name.Name)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("reorder.go exports %v,\nwant %v", got, want)
	}
}

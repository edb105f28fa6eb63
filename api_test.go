package reorder

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestRootAPI pins the exported package-level functions of every
// non-test file of the root package. Optimize and Execute take every
// setting through Options and Limits, so a new variant of either — or
// any new entry point — is a change to this list, made on purpose.
func TestRootAPI(t *testing.T) {
	want := []string{
		"AssociationTreeCounts",
		"Enumerate",
		"Equivalent",
		"Execute",
		"Explain",
		"ExplainAnalyze",
		"ExplainPlan",
		"Hypergraph",
		"JoinOrders",
		"LoadCSVDir",
		"NewObserver",
		"NewService",
		"Optimize",
		"Parse",
		"PlanDOT",
		"Simplify",
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				got = append(got, fn.Name.Name)
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("root package exports %v,\nwant %v", got, want)
	}
}

// TestOptionSurface pins the exported fields of the option structs
// callers set, in declaration order, so that a new knob — or one left
// behind by the code it configured — is a change to this list, made
// on purpose.
func TestOptionSurface(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(AnalyzeOptions{}), []string{"Limits", "Observer"}},
		{reflect.TypeOf(ServiceConfig{}), []string{
			"DB", "CacheBytes", "MaxConcurrent", "MaxQueue", "DefaultTimeout", "DefaultLimits",
			"Tenants", "Workers", "FlightCap", "Feedback", "ReplanQError", "ReplanAfter",
		}},
	} {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			if f := c.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s fields %v,\nwant %v", c.typ.Name(), got, c.want)
		}
	}
}

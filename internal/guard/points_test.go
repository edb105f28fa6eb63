package guard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestPointsHaveHitSites keeps the fault-point registry and the code in
// step: every point Points lists is hit somewhere, and every
// guard.Hit(guard.PointX) in the module's non-test Go files — the bench
// module under bench/ included — names a registered point. A point
// whose site was deleted would otherwise stay in the registry, and an
// injection matrix arming it would test nothing.
func TestPointsHaveHitSites(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	consts := pointConsts(t, "fault.go")
	registered := map[Point]bool{}
	for _, p := range Points() {
		registered[p] = true
	}

	hit := map[Point]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if fn, ok := guardSel(call.Fun); !ok || fn != "Hit" {
				return true
			}
			pos := fset.Position(call.Pos())
			arg, ok := guardSel(call.Args[0])
			if !ok {
				t.Errorf("%s: guard.Hit's argument is not a guard.PointX constant", pos)
				return true
			}
			p, ok := consts[arg]
			if !ok || !registered[p] {
				t.Errorf("%s: guard.Hit(guard.%s) names no registered point", pos, arg)
				return true
			}
			hit[p] = true
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for p := range registered {
		if !hit[p] {
			missing = append(missing, string(p))
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("registered points with no guard.Hit site: %s", strings.Join(missing, ", "))
	}
}

// guardSel returns name when e is guard.name.
func guardSel(e ast.Expr) (name string, ok bool) {
	s, isSel := e.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	x, isIdent := s.X.(*ast.Ident)
	return s.Sel.Name, isIdent && x.Name == "guard"
}

// pointConsts maps each Point constant declared in file to its value.
func pointConsts(t *testing.T, file string) map[string]Point {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := map[string]Point{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != "Point" {
				continue
			}
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s: constant %s is not a string literal", file, name.Name)
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				consts[name.Name] = Point(v)
			}
		}
	}
	if len(consts) == 0 {
		t.Fatalf("%s declares no Point constants", file)
	}
	return consts
}

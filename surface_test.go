package reorder

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// surfaceDocs are the documents whose backticked references must
// resolve. CHANGES.md and ROADMAP.md are history and plans, so they
// name code that is gone or not yet written; bench/README.md belongs
// to the benchmark module.
var surfaceDocs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
}

// surfaceAllow lists the exported names under internal/ that no
// non-test code outside their package references but that stay
// exported, each with the reason. An entry ending in ".*" covers a
// whole package. An entry the check no longer flags is itself a
// failure, so the list cannot go stale.
var surfaceAllow = map[string]string{
	// Test support.
	"datagen.*":              "workload generators that tests, examples and the experiments build their inputs from",
	"guard.Inject":           "fault injector the fault-matrix tests arm",
	"guard.InjectError":      "fault injector the fault-matrix tests arm",
	"guard.InjectPanic":      "fault injector the fault-matrix tests arm",
	"guard.Clear":            "disarms the fault injectors between tests",
	"guard.ErrInjected":      "sentinel an injected fault wraps; the fault tests match it",
	"guard.Points":           "the registered fault points the fault matrix iterates",
	"experiments.Q5":         "paper query shared as a fixture by the memo and optimizer tests",
	"experiments.Q6":         "paper query shared as a fixture by the optimizer tests",
	"experiments.ChainQuery": "query fixture of the optimizer tests and the saturation benchmarks",
	"experiments.StarQuery":  "query fixture of the optimizer tests",
	"experiments.E7Plans":    "supplier plans the root experiment benchmarks execute",
	"experiments.E12Plans":   "push-up plans the root experiment benchmarks execute",

	// Reference implementations that tests compare against.
	"core.SplitTable":              "the memo's split-table test checks it against the per-option reference",
	"core.SplitOptionsOf":          "the per-option reference that test walks",
	"core.SplitEntry.Apply":        "builds one split-table entry's rewrite; that test checks it against the per-option reference",
	"plan.Validate":                "schema check the plan and optimizer tests run on every rewrite",
	"obs.ParseExposition":          "parser the exposition tests read /metrics text back with",
	"assoctree.*":                  "Definition 3.2 enumerator the plan-space tests compare the memo with",
	"relation.Relation.OuterUnion": "outer union ⊎ the full-outer-join decomposition tests compare against",
	"relation.Relation.Tuple":      "boxes one row of a columnar table on demand, the positional reader tests check rows with",

	// Typed errors and enum members callers match.
	"guard.ErrBudget":  "typed budget error; callers read its Kind, Limit and Used through errors.As",
	"guard.PanicError": "typed contained panic; callers read its Phase and PlanKey through errors.As",
	"batch.PhysAny":    "member of the exported Phys enum; tests build and check any-kind columns with it",
	"value.Unknown":    "third value of the exported Tristate; tests check three-valued results against it",
}

// TestSurface fails on an exported name under internal/ that only
// tests (or nothing) use, resolved with go/types, and on a backticked
// reference in the docs that names no file, identifier, make target,
// metric or DESIGN.md section of this module.
func TestSurface(t *testing.T) {
	tr := loadTree(t, ".")
	for _, f := range checkExports(tr, surfaceAllow) {
		t.Error(f)
	}
	for _, f := range checkDocs(tr, surfaceDocs) {
		t.Error(f)
	}
}

// TestBenchModuleVets runs go vet in bench/, a module of its own that
// ./... does not reach. It names internal packages of this one (some
// kept only for it, see executor.Adapt), so a change that breaks it
// would otherwise pass go build ./... and go test ./....
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the bench module")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		goTool = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/: %v\n%s", err, out)
	}
}

// TestSurfaceCheckFindsDrift runs both checks on a small in-memory
// module, so that neither can pass by flagging nothing.
func TestSurfaceCheckFindsDrift(t *testing.T) {
	tr := srcTree{
		"go.mod":   "module m\n\ngo 1.22\n",
		"Makefile": "test:\n\tgo test ./...\n",
		"internal/a/a.go": `package a

// Used is called from main.
func Used() {}

// TestOnly is called only by a test.
func TestOnly() {}

// T is named from main.
type T struct{}

// M is called only inside package a.
func (T) M() {}

func init() { T{}.M() }

// V is named from main.
type V struct{}

// Name is never called on a V: main calls the Name of a type of its
// own.
func (V) Name() string { return "" }

// Run is called through main's runner interface.
func (V) Run() {}

// String implements fmt.Stringer.
func (V) String() string { return "v" }
`,
		"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestA(t *testing.T) { TestOnly() }\n",
		"main.go": `package main

import "m/internal/a"

var _ a.T

type named struct{}

func (named) Name() string { return "" }

type runner interface{ Run() }

func main() {
	a.Used()
	var r runner = a.V{}
	r.Run()
	println(named{}.Name(), "svc.requests")
}
`,
		"DESIGN.md": "# D\n\n## 1. One\n\nSee §1, §7 and paper §3.\n",
		"README.md": "`internal/a/a.go:5` `internal/a/a.go:99` `internal/b` `a.Used` `a.Gone` `T.M` " +
			"`make test` `make nope` `svc.requests` `svc.nope` `r1.x` DESIGN.md §1, DESIGN.md §2\n",
	}
	exports := checkExports(tr, map[string]string{"a.Gone": "stale entry"})
	wantExports := []string{"a.Gone: allow-listed", "a.T.M: exported", "a.TestOnly: exported", "a.V.Name: exported"}
	if len(exports) != len(wantExports) {
		t.Errorf("export findings %q, want %d", exports, len(wantExports))
	}
	for i, w := range wantExports {
		if i < len(exports) && !strings.HasPrefix(exports[i], w) {
			t.Errorf("export finding %d = %q, want prefix %q", i, exports[i], w)
		}
	}
	docs := strings.Join(checkDocs(tr, []string{"README.md", "DESIGN.md"}), "\n")
	for _, w := range []string{"`internal/a/a.go:99`: line out of range", "`internal/b`: no such file", "`a.Gone`: names no",
		"`make nope`: no such make target", "`svc.nope`: names no metric", "README.md:1: §2", "DESIGN.md:5: §7"} {
		if !strings.Contains(docs, w) {
			t.Errorf("doc findings lack %q:\n%s", w, docs)
		}
	}
	if n := strings.Count(docs, "\n") + 1; n != 7 {
		t.Errorf("%d doc findings, want 7:\n%s", n, docs)
	}
}

// A srcTree is a module's files, slash-separated paths relative to the
// module root mapped to their contents.
type srcTree map[string]string

func loadTree(t *testing.T, root string) srcTree {
	t.Helper()
	tr := srcTree{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == ".git" || (strings.HasPrefix(name, ".") && name != ".claude")) {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		content := ""
		if info.Size() < 4<<20 {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			content = string(b)
		}
		tr[filepath.ToSlash(rel)] = content
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// goFile is one parsed Go file of a srcTree.
type goFile struct {
	dir  string // package directory, "." for the module root
	test bool
	ast  *ast.File
}

// parseGo parses every Go file of tr that the go tool would build into
// fset, skipping testdata directories; files that fail to parse are
// skipped too, since the build reports them.
func parseGo(fset *token.FileSet, tr srcTree) []goFile {
	var files []goFile
	for _, p := range sortedKeys(tr) {
		if !strings.HasSuffix(p, ".go") || slices.Contains(strings.Split(p, "/"), "testdata") {
			continue
		}
		f, err := parser.ParseFile(fset, p, tr[p], parser.ParseComments)
		if err != nil {
			continue
		}
		files = append(files, goFile{dir: path.Dir(p), test: strings.HasSuffix(p, "_test.go"), ast: f})
	}
	return files
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// modulePath is the module line of a go.mod file.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// importPath is the import path of the package in directory dir of tr:
// the module path of the nearest go.mod at or above dir, then the rest
// of dir.
func importPath(tr srcTree, dir string) string {
	for root := dir; ; root = path.Dir(root) {
		gomod := "go.mod"
		if root != "." {
			gomod = root + "/go.mod"
		}
		if src, ok := tr[gomod]; ok {
			switch {
			case dir == root:
				return modulePath(src)
			case root == ".":
				return modulePath(src) + "/" + dir
			default:
				return modulePath(src) + dir[len(root):]
			}
		}
		if root == "." {
			return dir
		}
	}
}

// stdInterfaces declares the standard-library interfaces whose methods
// the standard library itself calls: a method implementing one is
// reached without any code of the module naming it.
const stdInterfaces = `package std

import (
	"container/heap"
	"encoding"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
)

type (
	stringer        = fmt.Stringer
	goStringer      = fmt.GoStringer
	formatter       = fmt.Formatter
	errorer         = error
	unwrapper       = interface{ Unwrap() error }
	iser            = interface{ Is(error) bool }
	aser            = interface{ As(any) bool }
	jsonMarshaler   = json.Marshaler
	jsonUnmarshaler = json.Unmarshaler
	textMarshaler   = encoding.TextMarshaler
	textUnmarshaler = encoding.TextUnmarshaler
	sorter          = sort.Interface
	heaper          = heap.Interface
	handler         = http.Handler
	reader          = io.Reader
	writer          = io.Writer
	closer          = io.Closer
)
`

// srcImporter type-checks the packages of a srcTree from their parsed
// non-test files, on first import, into one shared types.Info; it
// imports every other path (the standard library) from the compiler's
// export data.
type srcImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path → non-test files
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
}

func (im *srcImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := im.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := im.files[p]
	if !ok {
		return im.std.Import(p)
	}
	// Type errors are the build's to report: the check goes on past
	// them and the package is indexed as far as it resolves.
	conf := types.Config{Importer: im, Error: func(error) {}}
	pkg, _ := conf.Check(p, im.fset, files, im.info)
	im.pkgs[p] = pkg
	return pkg, nil
}

// resolved is what type-checking the non-test code of a srcTree tells
// the export check.
type resolved struct {
	defs map[*ast.Ident]types.Object
	// used holds every object that a non-test file names outside the
	// package declaring it; a method or field of a generic type is
	// held as its generic origin.
	used map[types.Object]bool
	// called maps a method name to the interfaces a call reaches it
	// through: those that non-test code calls the method on, and every
	// standard-library interface of stdInterfaces that has it.
	called map[string][]*types.Interface
}

// resolve type-checks every non-test package of files (all of tr's
// modules, bench/ included) and records which objects are used from
// outside their package and which interface methods are called.
func resolve(fset *token.FileSet, tr srcTree, files []goFile) resolved {
	im := &srcImporter{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		std:   importer.Default(),
	}
	paths := map[*ast.File]string{}
	for _, f := range files {
		if !f.test {
			p := importPath(tr, f.dir)
			paths[f.ast] = p
			im.files[p] = append(im.files[p], f.ast)
		}
	}
	const stdPath = "surface/std-interfaces"
	if std, err := parser.ParseFile(fset, "std-interfaces.go", stdInterfaces, 0); err == nil {
		im.files[stdPath] = []*ast.File{std}
	}
	for _, p := range sortedKeys(im.files) {
		im.Import(p)
	}

	r := resolved{defs: im.info.Defs, used: map[types.Object]bool{}, called: map[string][]*types.Interface{}}
	if std := im.pkgs[stdPath]; std != nil {
		for _, name := range std.Scope().Names() {
			iface, ok := std.Scope().Lookup(name).Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				r.call(iface.Method(i).Name(), iface)
			}
		}
	}
	for f, p := range paths {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := im.info.Uses[id]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
				if iface, ok := recvInterface(o); ok {
					r.call(o.Name(), iface)
				}
			case *types.Var:
				obj = o.Origin()
			}
			if obj.Pkg().Path() != p {
				r.used[obj] = true
			}
			return true
		})
	}
	return r
}

// call records that a call of method name reaches it through iface.
func (r resolved) call(name string, iface *types.Interface) {
	if !slices.Contains(r.called[name], iface) {
		r.called[name] = append(r.called[name], iface)
	}
}

// recvInterface returns the interface m is a method of, if it is one.
func recvInterface(m *types.Func) (*types.Interface, bool) {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil, false
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	return iface, ok
}

// reached reports whether method m is used from outside its package:
// named there, or called through an interface its receiver type
// implements.
func (r resolved) reached(m *types.Func) bool {
	if r.used[m] {
		return true
	}
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return slices.ContainsFunc(r.called[m.Name()], func(iface *types.Interface) bool {
		return types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)
	})
}

// checkExports returns one finding per exported top-level name or
// exported method of an exported type, declared in a non-test file
// under internal/, that no non-test code outside its package uses.
// References resolve with go/types over every module of tr, bench/
// included: a method is used where code outside its package selects
// that very method, or calls it through an interface its receiver type
// implements — one of the module's, or a standard-library interface
// the standard library calls (stdInterfaces). A type that the
// signature, exported fields or underlying type of a used export
// mentions counts as used. allow exempts names (see surfaceAllow); an
// allow entry that exempts nothing is a finding.
func checkExports(tr srcTree, allow map[string]string) []string {
	fset := token.NewFileSet()
	files := parseGo(fset, tr)
	r := resolve(fset, tr, files)
	used := func(id *ast.Ident) bool {
		obj := r.defs[id]
		if m, ok := obj.(*types.Func); ok && m.Type().(*types.Signature).Recv() != nil {
			return r.reached(m)
		}
		return obj != nil && r.used[obj]
	}

	type key struct{ dir, name string }
	// An exported declaration under internal/; mentions are the type
	// names of its package that its signature, exported fields or
	// underlying type name.
	type export struct {
		dir, name string
		typ       bool
		used      bool
		mentions  []string
	}
	var exports []*export
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		pkg := path.Base(f.dir)
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					exports = append(exports, &export{dir: f.dir, name: pkg + "." + d.Name.Name, used: used(d.Name), mentions: typeNames(d.Type)})
					continue
				}
				if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(recv) {
					exports = append(exports, &export{dir: f.dir, name: pkg + "." + recv + "." + d.Name.Name, used: used(d.Name), mentions: typeNames(d.Type)})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							exports = append(exports, &export{dir: f.dir, name: pkg + "." + s.Name.Name, typ: true, used: used(s.Name), mentions: typeNames(s.Type)})
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								exports = append(exports, &export{dir: f.dir, name: pkg + "." + id.Name, used: used(id), mentions: typeNames(s.Type)})
							}
						}
					}
				}
			}
		}
	}
	allowedBy := func(name string) string {
		if _, ok := allow[name]; ok {
			return name
		}
		pkg, _, _ := strings.Cut(name, ".")
		if _, ok := allow[pkg+".*"]; ok {
			return pkg + ".*"
		}
		return ""
	}
	// A type that a used or allow-listed export mentions is used too:
	// callers outside hold values of it without naming it.
	typeUsed := map[key]bool{}
	for changed := true; changed; {
		changed = false
		for _, e := range exports {
			if e.typ && !e.used && typeUsed[key{e.dir, e.name[strings.IndexByte(e.name, '.')+1:]}] {
				e.used, changed = true, true
			}
			if !e.used && allowedBy(e.name) == "" {
				continue
			}
			for _, m := range e.mentions {
				if k := (key{e.dir, m}); !typeUsed[k] {
					typeUsed[k], changed = true, true
				}
			}
		}
	}
	var findings []string
	exempting := map[string]bool{}
	for _, e := range exports {
		if e.used {
			continue
		}
		if entry := allowedBy(e.name); entry != "" {
			exempting[entry] = true
			continue
		}
		findings = append(findings, e.name+": exported, but no non-test code outside its package references it")
	}
	for _, entry := range sortedKeys(allow) {
		if !exempting[entry] {
			findings = append(findings, entry+": allow-listed, but the check does not flag it; delete the entry")
		}
	}
	slices.Sort(findings)
	return findings
}

// typeNames returns the exported identifiers in a type expression,
// skipping unexported struct fields and package-qualified names.
func typeNames(e ast.Expr) []string {
	if e == nil {
		return nil
	}
	var names []string
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			return false
		case *ast.Field:
			if len(n.Names) > 0 && !slices.ContainsFunc(n.Names, (*ast.Ident).IsExported) {
				if _, inStruct := e.(*ast.StructType); inStruct {
					return false
				}
			}
		case *ast.Ident:
			if n.IsExported() {
				names = append(names, n.Name)
			}
		}
		return true
	})
	return names
}

func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// A symbols index records what a doc reference can name: package
// names, top-level declarations, the members (methods and fields) of
// each type name, standard-library import names, and the string
// literals of the non-test code, where metric and fault-point names
// live.
type symbols struct {
	decls      map[string]map[string]bool // package name → top-level names
	members    map[string]map[string]bool // type name → method and field names
	pkgMembers map[string]map[string]bool // package name → method and field names of its types
	std        map[string]bool            // import names of standard-library packages
	imports    map[string]bool            // every import path
	literals   map[string]bool
	prefixes   []string        // literals ending in "." or "_": dynamic metric-name prefixes
	namespaces map[string]bool // first segments of dotted literals
}

func indexSymbols(tr srcTree) symbols {
	module := modulePath(tr["go.mod"])
	s := symbols{
		decls: map[string]map[string]bool{}, members: map[string]map[string]bool{}, pkgMembers: map[string]map[string]bool{},
		std: map[string]bool{}, imports: map[string]bool{}, literals: map[string]bool{}, namespaces: map[string]bool{},
	}
	add := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][v] = true
	}
	for _, f := range parseGo(token.NewFileSet(), tr) {
		pkg := strings.TrimSuffix(f.ast.Name.Name, "_test")
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			s.imports[p] = true
			if p != module && !strings.HasPrefix(p, module+"/") && !strings.Contains(strings.Split(p, "/")[0], ".") {
				s.std[path.Base(p)] = true
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(s.decls, pkg, d.Name.Name)
				} else {
					add(s.members, receiverName(d.Recv.List[0].Type), d.Name.Name)
					add(s.pkgMembers, pkg, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						add(s.decls, pkg, sp.Name.Name)
						var fields *ast.FieldList
						switch ty := sp.Type.(type) {
						case *ast.StructType:
							fields = ty.Fields
						case *ast.InterfaceType:
							fields = ty.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							for _, id := range fl.Names {
								add(s.members, sp.Name.Name, id.Name)
								add(s.pkgMembers, pkg, id.Name)
							}
							if len(fl.Names) == 0 {
								add(s.members, sp.Name.Name, receiverName(fl.Type))
								if sel, ok := fl.Type.(*ast.SelectorExpr); ok {
									add(s.members, sp.Name.Name, sel.Sel.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							add(s.decls, pkg, id.Name)
						}
					}
				}
			}
		}
		if f.test {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil && v != "" {
					s.literals[v] = true
					if ns, _, ok := strings.Cut(v, "."); ok {
						s.namespaces[ns] = true
					}
					if strings.HasSuffix(v, ".") || strings.HasSuffix(v, "_") {
						s.prefixes = append(s.prefixes, v)
					}
				}
			}
			return true
		})
	}
	return s
}

// metric reports whether name is a string literal of the code (a
// metric or fault-point name), starts with a literal dynamic prefix,
// or — ending in "*" — is the prefix of a literal.
func (s symbols) metric(name string) bool {
	if p, ok := strings.CutSuffix(name, "*"); ok {
		for lit := range s.literals {
			if strings.HasPrefix(lit, p) {
				return true
			}
		}
		return false
	}
	if s.literals[name] {
		return true
	}
	return slices.ContainsFunc(s.prefixes, func(p string) bool { return strings.HasPrefix(name, p) })
}

// ident reports whether a dotted identifier reference resolves:
// pkg.Name, Type.Member, pkg.Member (a method or field of one of the
// package's types) or pkg.Type.Member.
func (s symbols) ident(parts []string) bool {
	switch len(parts) {
	case 2:
		if s.std[parts[0]] && s.decls[parts[0]] == nil {
			return true
		}
		return s.decls[parts[0]][parts[1]] || s.members[parts[0]][parts[1]] || s.pkgMembers[parts[0]][parts[1]]
	case 3:
		return s.decls[parts[0]][parts[1]] && s.members[parts[1]][parts[2]]
	}
	return false
}

var (
	codeSpan     = regexp.MustCompile("`([^`]+)`")
	designCite   = regexp.MustCompile("DESIGN(?:\\.md)?`?,? \\(?§(\\d+[a-z]?)")
	selfCite     = regexp.MustCompile(`(\S*) §(\d+[a-z]?)(\.\d)?`)
	sectionHead  = regexp.MustCompile(`(?m)^##+ (\d+[a-z]?)\. `)
	makeTarget   = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	makeToken    = regexp.MustCompile(`^make ([a-z][a-z0-9-]*)$`)
	identToken   = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*){1,2}$`)
	metricToken  = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_<>]+)+\.?\*?$`)
	promToken    = regexp.MustCompile(`^[a-z][a-z0-9_]*_(total|bucket)$`)
	pathToken    = regexp.MustCompile(`^[A-Za-z0-9_.-]+(/[A-Za-z0-9_.-]*)*(:\d+(-\d+)?)?$`)
	braceGroup   = regexp.MustCompile(`\{([a-z0-9_,]+)\}`)
	callToken    = regexp.MustCompile(`^([A-Za-z_][\w.]*)\([^()]*\)$`)
	fileSuffixes = []string{".go", ".md", ".json", ".txt", ".golden", ".mod", ".csv"}
)

// checkDocs returns one finding per reference in docs that does not
// resolve against tr: a backticked path (with any :line in range),
// make target, pkg.Ident / Type.Method, name in a metric or
// fault-point namespace (the first segment of a dotted string literal
// of the code; SQL columns such as r1.x are not in one),
// and every DESIGN.md §N citation in the docs and in Go comments. In
// DESIGN.md itself a bare §N cites its own sections unless "paper"
// precedes it or it names a subsection (§1.2), which are the paper's.
func checkDocs(tr srcTree, docs []string) []string {
	sym := indexSymbols(tr)
	sections := map[string]bool{}
	for _, m := range sectionHead.FindAllStringSubmatch(tr["DESIGN.md"], -1) {
		sections[m[1]] = true
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(tr["Makefile"], -1) {
		targets[m[1]] = true
	}

	var findings []string
	report := func(file string, offset int, text, why string) {
		line := 1 + strings.Count(tr[file][:offset], "\n")
		findings = append(findings, file+":"+strconv.Itoa(line)+": "+text+": "+why)
	}
	cites := func(file string) {
		for _, m := range designCite.FindAllStringSubmatchIndex(tr[file], -1) {
			if n := tr[file][m[2]:m[3]]; !sections[n] {
				report(file, m[0], "§"+n, "DESIGN.md has no such section")
			}
		}
	}
	for _, p := range sortedKeys(tr) {
		if strings.HasSuffix(p, ".go") {
			cites(p)
		}
	}
	for _, doc := range docs {
		text, ok := tr[doc]
		if !ok {
			findings = append(findings, doc+": missing")
			continue
		}
		cites(doc)
		if doc == "DESIGN.md" {
			for _, m := range selfCite.FindAllStringSubmatchIndex(text, -1) {
				prev, n := strings.ToLower(text[m[2]:m[3]]), text[m[4]:m[5]]
				if m[6] >= 0 || strings.HasSuffix(prev, "paper") || strings.HasPrefix(prev, "design") || strings.Contains(prev, ".md") {
					continue
				}
				if !sections[n] {
					report(doc, m[0], "§"+n, "DESIGN.md has no such section")
				}
			}
		}
		for _, m := range codeSpan.FindAllStringSubmatchIndex(blankFences(text), -1) {
			tok := strings.Join(strings.Fields(text[m[2]:m[3]]), " ")
			if why := resolveToken(tr, sym, targets, doc, tok); why != "" {
				report(doc, m[0], "`"+tok+"`", why)
			}
		}
	}
	slices.Sort(findings)
	return findings
}

// blankFences replaces fenced code blocks with spaces, keeping offsets,
// so their backticks start no code span.
func blankFences(text string) string {
	b := []byte(text)
	in := false
	start := 0
	for i := 0; i < len(b); {
		end := strings.IndexByte(text[i:], '\n')
		if end < 0 {
			end = len(b)
		} else {
			end += i
		}
		if strings.HasPrefix(strings.TrimSpace(text[i:end]), "```") {
			if in {
				for j := start; j < end; j++ {
					if b[j] != '\n' {
						b[j] = ' '
					}
				}
			} else {
				start = i
			}
			in = !in
		}
		i = end + 1
	}
	return string(b)
}

// resolveToken classifies one backticked token and returns why it does
// not resolve, or "" when it resolves or is of no checked form (code,
// flags, SQL, JSON and the like).
func resolveToken(tr srcTree, sym symbols, targets map[string]bool, doc, tok string) string {
	if m := makeToken.FindStringSubmatch(tok); m != nil {
		if !targets[m[1]] {
			return "no such make target"
		}
		return ""
	}
	if m := callToken.FindStringSubmatch(tok); m != nil {
		tok = m[1]
	}
	if strings.ContainsAny(tok, " \"'=()[]$@#") {
		return ""
	}
	for _, t := range expandBraces(tok) {
		switch {
		case isPath(t) && !sym.imports[t]:
			if why := resolvePath(tr, doc, t); why != "" {
				return why
			}
		case identToken.MatchString(t) && strings.ContainsAny(t, "ABCDEFGHIJKLMNOPQRSTUVWXYZ"):
			if !sym.ident(strings.Split(t, ".")) {
				return "names no package member or type member"
			}
		case metricToken.MatchString(t) && sym.namespaces[t[:strings.IndexByte(t, '.')]]:
			parts := strings.Split(t, ".")
			if !sym.metric(t) && !(len(parts) == 2 && sym.decls[parts[0]][parts[1]]) {
				return "names no metric, fault point or package member"
			}
		case promToken.MatchString(t):
			base := t[:strings.LastIndexByte(t, '_')]
			if !sym.prometheus(base) {
				return "names no exported metric"
			}
		}
	}
	return ""
}

// prometheus reports whether name is a metric literal written in the
// exposition's form, dots as underscores.
func (s symbols) prometheus(name string) bool {
	for lit := range s.literals {
		if strings.ReplaceAll(lit, ".", "_") == name {
			return true
		}
	}
	return slices.ContainsFunc(s.prefixes, func(p string) bool {
		return strings.HasPrefix(name, strings.ReplaceAll(p, ".", "_"))
	})
}

func expandBraces(tok string) []string {
	m := braceGroup.FindStringSubmatchIndex(tok)
	if m == nil {
		return []string{tok}
	}
	var out []string
	for _, alt := range strings.Split(tok[m[2]:m[3]], ",") {
		out = append(out, expandBraces(tok[:m[0]]+alt+tok[m[1]:])...)
	}
	return out
}

func isPath(tok string) bool {
	if !pathToken.MatchString(tok) || strings.HasPrefix(tok, ".") && !strings.HasPrefix(tok, "./") && !strings.HasPrefix(tok, ".claude") {
		return false
	}
	p, _, _ := strings.Cut(tok, ":")
	return strings.Contains(p, "/") || slices.ContainsFunc(fileSuffixes, func(s string) bool { return strings.HasSuffix(p, s) })
}

// resolvePath finds a path token as a file or directory relative to the
// module root or the doc, or as the tail of a module path, and checks a
// :line suffix against the file's length.
func resolvePath(tr srcTree, doc, tok string) string {
	p, lines, _ := strings.Cut(tok, ":")
	p = strings.TrimSuffix(strings.TrimPrefix(p, "./"), "/")
	if p == "" || p == "." || p == "..." {
		return ""
	}
	var found []string
	for _, cand := range []string{p, path.Join(path.Dir(doc), p)} {
		for f := range tr {
			if f == cand || strings.HasPrefix(f, cand+"/") {
				found = append(found, f)
			}
		}
		if len(found) > 0 {
			break
		}
	}
	if len(found) == 0 {
		for f := range tr {
			if strings.HasSuffix(f, "/"+p) || strings.Contains(f, "/"+p+"/") {
				found = append(found, f)
			}
		}
	}
	if len(found) == 0 {
		return "no such file or directory"
	}
	if lines == "" {
		return ""
	}
	last, _ := strconv.Atoi(lines[strings.LastIndexByte(lines, '-')+1:])
	for _, f := range found {
		if last <= strings.Count(tr[f], "\n")+1 {
			return ""
		}
	}
	return "line out of range"
}

package zombie

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadcodeAllowlist names internal declarations that no program calls but
// that tests in other packages compare live code against. Each stays a
// root; the value names the test that needs it.
var deadcodeAllowlist = map[string]string{
	"linalg.NewSparse":     "featurepipe's wiki identity test builds its reference vectors with it",
	"linalg.SparseFromMap": "featurepipe's wiki identity test builds its reference vectors with it",
	"linalg.ArgMax":        "learner's bayes_prepared_test.go takes the reference argmax with it",
	"obs.Registry.Names":   "server's /metrics two-exposition coverage test lists every family with it",
}

// reflectedMethods are method names the standard library may call by
// reflection or through an interface declared inside a function body,
// which the source importer does not type-check.
var reflectedMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"LogValue": true,
}

// TestEveryDeclarationIsReached type-checks the non-test files of this
// module and of benchmark/ and fails on any package-level func, type, var
// or const, or method, under internal/ that no program reaches. Roots are
// main and init, the root package's exported API and the exported methods
// of every type it hands out, methods that satisfy an interface of the
// checked program (standard library included), methods the standard
// library calls by reflection, and deadcodeAllowlist.
func TestEveryDeclarationIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var pkgs []*listedPackage
	for _, dir := range []string{".", "benchmark"} {
		pkgs = append(pkgs, goList(t, dir)...)
	}
	prog := newDeadcodeProgram(pkgs)
	for _, p := range pkgs {
		if _, err := prog.load(p.ImportPath); err != nil {
			t.Fatal(err)
		}
	}
	reached := map[types.Object]bool{}
	prog.reach(reached, prog.roots())

	// An allowlisted declaration must exist and be reached by no program;
	// what it refers to is then reached through it.
	var allowed []types.Object
	for _, d := range prog.decls {
		if _, ok := deadcodeAllowlist[d.name()]; ok && d.internal() {
			if reached[d.obj] {
				t.Errorf("%s is reached by a program; drop it from deadcodeAllowlist", d.name())
			}
			allowed = append(allowed, d.obj)
		}
	}
	if len(allowed) != len(deadcodeAllowlist) {
		t.Errorf("deadcodeAllowlist names %d declarations, %d of them declared", len(deadcodeAllowlist), len(allowed))
	}
	prog.reach(reached, allowed)

	var dead []string
	for _, d := range prog.decls {
		if d.internal() && !reached[d.obj] {
			dead = append(dead, fmt.Sprintf("%s (%s)", d.name(), prog.fset.Position(d.obj.Pos())))
		}
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Errorf("%d internal declarations are reached by no program; delete them, "+
			"or move a test-only probe into its package's _test.go files:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

func goList(t *testing.T, dir string) []*listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// A deadcodeDecl is one package-level declaration or method of a checked
// package, with the objects its declaration refers to.
type deadcodeDecl struct {
	pkg  string
	recv string // receiver type name for a method, else ""
	obj  types.Object
	uses []types.Object
}

func (d *deadcodeDecl) internal() bool { return strings.HasPrefix(d.pkg, "zombie/internal/") }

func (d *deadcodeDecl) name() string {
	short := strings.TrimPrefix(d.pkg, "zombie/internal/")
	if d.recv != "" {
		return short + "." + d.recv + "." + d.obj.Name()
	}
	return short + "." + d.obj.Name()
}

type deadcodeProgram struct {
	fset    *token.FileSet
	listed  map[string]*listedPackage
	checked map[string]*types.Package
	std     types.ImporterFrom
	decls   []*deadcodeDecl
	byObj   map[types.Object]*deadcodeDecl
	anonIfs []*types.Interface
}

func newDeadcodeProgram(pkgs []*listedPackage) *deadcodeProgram {
	fset := token.NewFileSet()
	// The source importer runs cgo on packages with cgo files; the pure-Go
	// variants declare the same API.
	build.Default.CgoEnabled = false
	p := &deadcodeProgram{
		fset:    fset,
		listed:  map[string]*listedPackage{},
		checked: map[string]*types.Package{},
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		byObj:   map[types.Object]*deadcodeDecl{},
	}
	for _, lp := range pkgs {
		p.listed[lp.ImportPath] = lp
	}
	return p
}

func (p *deadcodeProgram) Import(path string) (*types.Package, error) {
	return p.ImportFrom(path, "", 0)
}

func (p *deadcodeProgram) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := p.listed[path]; ok {
		return p.load(path)
	}
	return p.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks one listed package, its listed imports
// first, and records its declarations.
func (p *deadcodeProgram) load(path string) (*types.Package, error) {
	if pkg, ok := p.checked[path]; ok {
		return pkg, nil
	}
	lp := p.listed[path]
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(path, p.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p.checked[path] = pkg
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
			p.anonIfs = append(p.anonIfs, it)
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			p.record(path, info, decl)
		}
	}
	return pkg, nil
}

func (p *deadcodeProgram) record(path string, info *types.Info, decl ast.Decl) {
	add := func(id *ast.Ident, recv string, node ast.Node) {
		obj := info.Defs[id]
		if obj == nil {
			return
		}
		d := &deadcodeDecl{pkg: path, recv: recv, obj: obj}
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if u := info.Uses[id]; u != nil {
					d.uses = append(d.uses, origin(u))
				}
			}
			return true
		})
		p.decls = append(p.decls, d)
		p.byObj[obj] = d
	}
	switch decl := decl.(type) {
	case *ast.FuncDecl:
		recv := ""
		if decl.Recv != nil {
			recv = receiverName(decl.Recv.List[0].Type)
		}
		add(decl.Name, recv, decl)
	case *ast.GenDecl:
		for _, spec := range decl.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				add(spec.Name, "", spec)
			case *ast.ValueSpec:
				for _, name := range spec.Names {
					add(name, "", spec)
				}
			}
		}
	}
}

func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// origin maps an instantiated generic func or method to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// roots returns main and init, blank package-level vars, the root
// package's exported declarations and the exported methods of every named
// type they hand out (as an alias, a var's type or a func's result), and
// the methods the standard library or an interface of the checked program
// may call.
func (p *deadcodeProgram) roots() []types.Object {
	var roots []types.Object
	seen := map[types.Type]bool{}
	var expose func(types.Type)
	expose = func(t types.Type) {
		t = types.Unalias(t)
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					roots = append(roots, m)
				}
			}
		case *types.Pointer:
			expose(t.Elem())
		case *types.Slice:
			expose(t.Elem())
		case *types.Map:
			expose(t.Key())
			expose(t.Elem())
		case *types.Signature:
			expose(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				expose(t.At(i).Type())
			}
		}
	}
	for _, d := range p.decls {
		switch {
		case d.recv == "" && (d.obj.Name() == "main" || d.obj.Name() == "init"):
			roots = append(roots, d.obj)
		case d.obj.Name() == "_":
			roots = append(roots, d.obj) // runs at package initialization
		case d.pkg == "zombie" && d.recv == "" && d.obj.Exported():
			roots = append(roots, d.obj)
			expose(d.obj.Type())
		}
	}
	// A method reaches a caller through an interface or reflection on any
	// type whose method set holds it, promoted through embedding or not.
	ifaces := p.interfaces()
	for _, d := range p.decls {
		tn, ok := d.obj.(*types.TypeName)
		if !ok || types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		mset := types.NewMethodSet(ptr)
		for i := 0; i < mset.Len(); i++ {
			m := mset.At(i).Obj()
			if reflectedMethods[m.Name()] {
				roots = append(roots, m)
				continue
			}
			for _, it := range ifaces[m.Name()] {
				if types.Implements(ptr, it) {
					roots = append(roots, m)
					break
				}
			}
		}
	}
	return roots
}

// interfaces indexes every interface type with methods declared by a
// checked package or a package it imports, transitively, and those
// written inline in the checked packages, by each method name.
func (p *deadcodeProgram) interfaces() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, it := range p.anonIfs {
		add(it)
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					add(it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range p.checked {
		walk(pkg)
	}
	return byName
}

// reach adds to reached every declaration reached from roots through the
// objects each reached declaration refers to.
func (p *deadcodeProgram) reach(reached map[types.Object]bool, roots []types.Object) {
	stack := append([]types.Object(nil), roots...)
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		if d := p.byObj[obj]; d != nil {
			stack = append(stack, d.uses...)
		}
	}
}

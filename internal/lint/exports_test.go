package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// TestExportsHaveCallers keeps the module free of dead code: every function
// or method the module declares, exported or not, must have a caller in the
// module's non-test code or implement an interface method. A function that
// only its tests call belongs in a _test.go file. main and init need no
// caller. A nested module (a directory below the root with its own go.mod,
// such as perfbench/) is loaded as a caller only: its calls count, its own
// functions are not checked.
//
// This is a test and not a dynnlint analyzer because a function's callers
// may sit in any package: the rule needs the whole module's uses at once,
// while an analyzer sees one package at a time.
func TestExportsHaveCallers(t *testing.T) {
	for _, msg := range uncalledFuncs(t, moduleRoot) {
		t.Error(msg)
	}
}

// TestUncalledExportsFixture checks the guard on a planted module: it flags
// the exported and the unexported function nothing calls, and none that a
// caller reaches by a direct call, a generic instantiation, fmt's %v verb
// (String), errors.Is (Unwrap) or a call from the nested module tool/. The
// nested module's own uncalled function is not flagged.
func TestUncalledExportsFixture(t *testing.T) {
	got := uncalledFuncs(t, filepath.Join("testdata", "src", "exports"))
	want := []string{
		"lib.go:21: fixture/internal/lib.Planted has no caller outside tests",
		"lib.go:24: fixture/internal/lib.planted has no caller outside tests",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings = %q, want %q", got, want)
	}
}

// uncalledFuncs loads every non-test package of the module rooted at root,
// as dynnlint ./... does, and returns "file:line: name" for each function or
// method outside nested modules, other than main and init, that no
// types.Info.Uses entry references and that implements no interface method.
func uncalledFuncs(t *testing.T, root string) []string {
	t.Helper()
	sc, err := scanModule(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader()
	if err := checkParallel(l, sc); err != nil {
		t.Fatal(err)
	}

	used := map[types.Object]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	imported := map[*types.Package]bool{}
	var pkgs []*Package
	for _, path := range sc.order {
		pkg, _ := l.lookup(path)
		pkgs = append(pkgs, pkg)
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					ifaces = append(ifaces, pkg.Info.TypeOf(it).(*types.Interface))
				}
				return true
			})
		}
		for _, imp := range pkg.Types.Imports() {
			if _, own := sc.dirs[imp.Path()]; !own {
				imported[imp] = true
			}
		}
	}
	for imp := range imported {
		ifaces = append(ifaces, importedInterfaces(t, l.fset, imp)...)
	}

	implements := func(fn *types.Func) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if m := it.Method(i); m.Name() == fn.Name() && types.Identical(m.Type(), fn.Type()) {
					return true
				}
			}
		}
		return false
	}
	var out []string
	for _, pkg := range pkgs {
		if inNestedModule(root, pkg.Dir) {
			continue
		}
		for _, obj := range pkg.Info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || used[fn] {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv == nil {
				if fn.Name() == "main" || fn.Name() == "init" {
					continue
				}
			} else if types.IsInterface(recv.Type()) || implements(fn) {
				continue
			}
			pos := pkg.Fset.Position(fn.Pos())
			out = append(out, fmt.Sprintf("%s:%d: %s has no caller outside tests", filepath.Base(pos.Filename), pos.Line, fn.FullName()))
		}
	}
	sort.Strings(out)
	return out
}

// inNestedModule reports whether dir, a directory of the module rooted at
// root, lies in a nested module: some directory from dir up to but not
// including root holds a go.mod.
func inNestedModule(root, dir string) bool {
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return false
	}
	for ; rel != "."; rel = filepath.Dir(rel) {
		if _, err := os.Stat(filepath.Join(root, rel, "go.mod")); err == nil {
			return true
		}
	}
	return false
}

// importedInterfaces returns the interfaces a package outside the module
// declares or asserts: its named interface types, and the interface literals
// in its function bodies (errors.Is asserts interface{ Unwrap() error }),
// which the source importer does not type-check. A literal is checked in the
// package scope; one that names a local type or another package is skipped.
func importedInterfaces(t *testing.T, fset *token.FileSet, pkg *types.Package) []*types.Interface {
	t.Helper()
	var out []*types.Interface
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	bp, err := build.Import(pkg.Path(), "", 0)
	if err != nil {
		t.Fatalf("locate %s: %v", pkg.Path(), err)
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok {
				return true
			}
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
			if types.CheckExpr(fset, pkg, token.NoPos, it, info) == nil {
				out = append(out, info.Types[it].Type.(*types.Interface))
			}
			return false
		})
	}
	return out
}

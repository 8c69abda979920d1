package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// rootIdent strips parens, indexing, field selection, and dereference from an
// lvalue and returns the base identifier, or nil when the base is not a plain
// identifier (e.g. a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.ParenExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

const (
	corePath   = "dynnoffload/internal/core"
	gpusimPath = "dynnoffload/internal/gpusim"
	obsvPath   = "dynnoffload/internal/obsv"
	pilotPath  = "dynnoffload/internal/pilot"
)

// namedOf unwraps pointers to the named type underneath, if any.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// unparen removes any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// objectOf resolves an identifier to its object via Uses then Defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// calleeFunc returns the *types.Func a call resolves to, or nil for builtins,
// conversions, and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isPkgFunc reports whether the call is to a package-level function
// pkgPath.name (no receiver).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return false
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorExpr reports whether e has an interface type satisfying error.
func isErrorExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Interface); !ok {
		return false
	}
	return types.Implements(t, errorIface)
}

// isNil reports whether e is the predeclared nil (possibly via a named
// constant — types records nilness on the expression).
func isNil(info *types.Info, e ast.Expr) bool {
	return info.Types[e].IsNil()
}

// isZeroConst reports whether e is a numeric constant expression equal to 0
// (the conventional bit-exact "unset" sentinel for float fields).
func isZeroConst(info *types.Info, e ast.Expr) bool {
	tv := info.Types[e]
	if tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

// isFloat reports whether t is (or is an alias/defined form of) a float type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// pkgPathHasPrefix reports whether path is pkg or a subpackage of pkg.
func pkgPathHasPrefix(path, pkg string) bool {
	return path == pkg || strings.HasPrefix(path, pkg+"/")
}

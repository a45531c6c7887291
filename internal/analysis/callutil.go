package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Shared call-graph and dataflow helpers for the protocol-invariant
// analyzers. Everything here is deliberately syntactic-plus-types: the
// analyzers run per package with no cross-package facts, so callee
// resolution is static (no interface devirtualization) and "dataflow" means
// structural position, not SSA. The analyzers document the resulting
// approximations in their package comments.

// CalleeFunc resolves a call expression to its static callee, if any.
// Interface-method calls resolve to the interface's *types.Func.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// RecvTypeName returns the bare receiver type name of a method ("Registry"
// for func (r *Registry) Counter), or "" for plain functions.
func RecvTypeName(fn *types.Func) string {
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return ""
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	switch t := recv.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return ""
	}
	return ""
}

// PkgMatch reports whether pkgPath is pattern or ends with "/"+pattern, so
// configs can name repository packages ("transport", "internal/persist")
// and still match the analysistest fixture paths ("transport"). A pattern
// ending in "/..." matches its prefix package and every package below it.
func PkgMatch(pkgPath, pattern string) bool {
	if root, tree := strings.CutSuffix(pattern, "/..."); tree {
		return pkgPath == root || strings.HasPrefix(pkgPath, root+"/")
	}
	return pkgPath == pattern || strings.HasSuffix(pkgPath, "/"+pattern)
}

// PkgMatchAny reports whether pkgPath matches any of the patterns.
func PkgMatchAny(pkgPath string, patterns []string) bool {
	for _, p := range patterns {
		if PkgMatch(pkgPath, p) {
			return true
		}
	}
	return false
}

// FuncFromPkg reports whether fn is the named function or method declared
// in a package matching pkgPattern (PkgMatch semantics).
func FuncFromPkg(fn *types.Func, pkgPattern, name string) bool {
	return fn != nil && fn.Name() == name && fn.Pkg() != nil && PkgMatch(fn.Pkg().Path(), pkgPattern)
}

// NonPositiveConst reports whether expr is a compile-time numeric constant
// with value <= 0 (the shape of a disabled or zero deadline).
func NonPositiveConst(info *types.Info, expr ast.Expr) bool {
	tv, known := info.Types[expr]
	if !known || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) <= 0
	}
	return false
}

// ContainsCallTo reports whether the subtree rooted at n contains a call
// whose static callee is the named function from the given package.
func ContainsCallTo(info *types.Info, n ast.Node, pkgPattern, name string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		call, isCall := m.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if fn := CalleeFunc(info, call); FuncFromPkg(fn, pkgPattern, name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// IsTestFileName reports whether the base of filename marks a Go test file.
func IsTestFileName(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}

// WalkStack traverses root in source order, invoking fn with each node and
// the stack of its ancestors (outermost first, excluding n itself). fn
// returning false prunes the subtree.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if !descend {
			// ast.Inspect still calls us with nil for this node only if we
			// return true, so balance the stack manually when pruning.
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// EnclosingFuncName returns the name of the innermost enclosing function
// declaration on the stack ("" inside a function literal or at top level).
func EnclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch d := stack[i].(type) {
		case *ast.FuncLit:
			return ""
		case *ast.FuncDecl:
			return d.Name.Name
		}
	}
	return ""
}

// EnclosingLoop returns the innermost for/range statement on the stack
// (nil if the node is not inside a loop within its function: the search
// stops at function-literal boundaries, since a loop outside a closure
// does not re-execute statements inside it on its own).
func EnclosingLoop(stack []ast.Node) ast.Stmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.ForStmt:
			return s
		case *ast.RangeStmt:
			return s
		case *ast.FuncLit, *ast.FuncDecl:
			return nil
		}
	}
	return nil
}

// AssignedErrObj returns the object bound to the final (error-position)
// result of call, by finding the nearest enclosing assignment on the stack
// whose RHS is exactly call. Returns nil for discarded results.
func AssignedErrObj(info *types.Info, call *ast.CallExpr, stack []ast.Node) types.Object {
	for i := len(stack) - 1; i >= 0; i-- {
		asg, isAsg := stack[i].(*ast.AssignStmt)
		if !isAsg {
			if _, isIf := stack[i].(*ast.IfStmt); isIf {
				continue // if ...; err := f() { — keep looking outward
			}
			switch stack[i].(type) {
			case *ast.BlockStmt, *ast.ExprStmt, *ast.ParenExpr:
				continue
			}
			return nil
		}
		if len(asg.Rhs) != 1 || asg.Rhs[0] != ast.Expr(call) {
			return nil
		}
		last := asg.Lhs[len(asg.Lhs)-1]
		id, isIdent := last.(*ast.Ident)
		if !isIdent || id.Name == "_" {
			return nil
		}
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	return nil
}

// MentionsObj reports whether the expression subtree references obj.
func MentionsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	if n == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, isIdent := m.(*ast.Ident); isIdent && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// PosBetween reports lo < p < hi.
func PosBetween(p, lo, hi token.Pos) bool { return p > lo && p < hi }

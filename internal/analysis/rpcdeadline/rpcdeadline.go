// Package rpcdeadline enforces the bounded-deadline discipline on the RPC
// client layer: availability under partial failure (the paper's
// continuous-availability argument) requires that no request can block a
// scheduler goroutine forever, so every client call must flow through the
// transport wrappers that arm a deadline.
//
// Four rules:
//
//  1. Outside the transport packages, importing net/rpc at all is a
//     violation — raw clients have no deadline machinery, and the
//     transport layer exists precisely to wrap them.
//  2. Inside the transport packages, the raw (*rpc.Client).Call / Go
//     methods and the transport's own raw send (RawSends: the call
//     multiplexer's roundTrip) may appear only in the blessed
//     single-attempt primitive (callOnce); every other function must
//     compose it.
//  3. Writing a compile-time constant <= 0 into a ClientOptions deadline
//     field (CallTimeout, PingTimeout, DialTimeout) is a violation: zero
//     is a redundant spelling of "default" at best, and negative disables
//     the deadline entirely — a production call path must never encode
//     either in source. (Tests that genuinely need an unbounded call keep
//     the negative escape hatch behind a dmv:ignore with a reason.)
//  4. Passing a constant <= 0 deadline argument directly to callOnce /
//     callIdem is the same violation one layer lower.
//
// The analysis is per-package and syntactic-plus-types: it proves every
// call SITE is deadline-armed, not every dynamic path (a variable deadline
// computed as zero at runtime is out of scope).
package rpcdeadline

import (
	"go/ast"
	"go/types"
	"slices"
	"strconv"

	"dmv/internal/analysis"
)

// Config scopes the analyzer to a repository's transport layer.
type Config struct {
	// TransportPkgs are the packages (PkgMatch semantics) that implement
	// the deadline-armed client; only they may touch net/rpc.
	TransportPkgs []string
	// AllowRawIn names the functions inside TransportPkgs allowed to call
	// (*rpc.Client).Call / Go or a RawSends method directly.
	AllowRawIn []string
	// RawSends are the transport's own raw send methods, as "Type.Method"
	// of a type declared in TransportPkgs; rule 2 guards them like
	// (*rpc.Client).Call.
	RawSends []string
	// OptionsType is the client-options struct whose deadline fields rule 3
	// guards.
	OptionsType string
	// TimeoutFields are the duration fields of OptionsType that must not be
	// set to a constant <= 0.
	TimeoutFields []string
	// DeadlineArg maps transport primitive names to the index of their
	// deadline parameter.
	DeadlineArg map[string]int
}

// DefaultConfig matches this repository's internal/transport layout.
var DefaultConfig = Config{
	TransportPkgs: []string{"transport"},
	AllowRawIn:    []string{"callOnce"},
	RawSends:      []string{"clientConn.roundTrip"},
	OptionsType:   "ClientOptions",
	TimeoutFields: []string{"CallTimeout", "PingTimeout", "DialTimeout"},
	DeadlineArg:   map[string]int{"callOnce": 3, "callIdem": 3},
}

// Analyzer flags RPC call sites that can run without a deadline.
var Analyzer = &analysis.Analyzer{
	Name: "rpcdeadline",
	Doc:  "flag RPC client paths that bypass the transport deadline machinery (raw net/rpc use, zero or negative timeouts)",
	Run:  func(pass *analysis.Pass) error { return run(pass, DefaultConfig) },
}

func run(pass *analysis.Pass, cfg Config) error {
	inTransport := analysis.PkgMatchAny(pass.Pkg.Path(), cfg.TransportPkgs)
	allowRaw := make(map[string]bool, len(cfg.AllowRawIn))
	for _, n := range cfg.AllowRawIn {
		allowRaw[n] = true
	}
	timeoutField := make(map[string]bool, len(cfg.TimeoutFields))
	for _, n := range cfg.TimeoutFields {
		timeoutField[n] = true
	}

	for _, f := range pass.Files {
		if !inTransport {
			// Rule 1: one diagnostic per net/rpc import.
			for _, imp := range f.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == "net/rpc" {
					pass.Reportf(imp.Pos(), "package %s imports net/rpc directly; raw clients have no deadline — route calls through the transport layer", pass.Pkg.Path())
				}
			}
		}
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, cfg, node, stack, inTransport, allowRaw)
			case *ast.CompositeLit:
				checkOptionsLit(pass, cfg, node, timeoutField)
			case *ast.AssignStmt:
				checkOptionsAssign(pass, cfg, node, timeoutField)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, cfg Config, call *ast.CallExpr, stack []ast.Node, inTransport bool, allowRaw map[string]bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	// Rule 2: raw Call/Go on *rpc.Client only inside the blessed primitive.
	if inTransport && fn.Pkg() != nil && fn.Pkg().Path() == "net/rpc" &&
		analysis.RecvTypeName(fn) == "Client" && (fn.Name() == "Call" || fn.Name() == "Go") {
		if enc := analysis.EnclosingFuncName(stack); !allowRaw[enc] {
			pass.Reportf(call.Pos(), "raw (*rpc.Client).%s outside %s; only the blessed single-attempt primitive may bypass the deadline wrapper", fn.Name(), quoteList(cfg.AllowRawIn))
		}
	}
	if inTransport && analysis.PkgMatchAny(pkgPathOf(fn), cfg.TransportPkgs) &&
		slices.Contains(cfg.RawSends, analysis.RecvTypeName(fn)+"."+fn.Name()) {
		if enc := analysis.EnclosingFuncName(stack); !allowRaw[enc] {
			pass.Reportf(call.Pos(), "raw (*%s).%s outside %s; only the blessed single-attempt primitive may bypass the deadline wrapper", analysis.RecvTypeName(fn), fn.Name(), quoteList(cfg.AllowRawIn))
		}
	}
	// Rule 4: constant <= 0 deadline argument to a transport primitive.
	if idx, isPrim := cfg.DeadlineArg[fn.Name()]; isPrim &&
		analysis.PkgMatchAny(pkgPathOf(fn), cfg.TransportPkgs) && idx < len(call.Args) {
		if analysis.NonPositiveConst(pass.TypesInfo, call.Args[idx]) {
			pass.Reportf(call.Args[idx].Pos(), "%s called with non-positive constant deadline; an unbounded RPC can wedge its caller forever", fn.Name())
		}
	}
}

// checkOptionsLit flags ClientOptions{..., CallTimeout: 0, ...}.
func checkOptionsLit(pass *analysis.Pass, cfg Config, lit *ast.CompositeLit, timeoutField map[string]bool) {
	if !isOptionsType(pass.TypesInfo.TypeOf(lit), cfg) {
		return
	}
	for _, el := range lit.Elts {
		kv, isKV := el.(*ast.KeyValueExpr)
		if !isKV {
			continue
		}
		key, isIdent := kv.Key.(*ast.Ident)
		if !isIdent || !timeoutField[key.Name] {
			continue
		}
		if analysis.NonPositiveConst(pass.TypesInfo, kv.Value) {
			pass.Reportf(kv.Pos(), "%s.%s set to non-positive constant; deadlines must stay armed (omit the field for the default)", cfg.OptionsType, key.Name)
		}
	}
}

// checkOptionsAssign flags opts.CallTimeout = 0 style writes.
func checkOptionsAssign(pass *analysis.Pass, cfg Config, asg *ast.AssignStmt, timeoutField map[string]bool) {
	for i, lhs := range asg.Lhs {
		if i >= len(asg.Rhs) {
			break
		}
		sel, isSel := lhs.(*ast.SelectorExpr)
		if !isSel || !timeoutField[sel.Sel.Name] {
			continue
		}
		if !isOptionsType(pass.TypesInfo.TypeOf(sel.X), cfg) {
			continue
		}
		if analysis.NonPositiveConst(pass.TypesInfo, asg.Rhs[i]) {
			pass.Reportf(asg.Pos(), "%s.%s assigned non-positive constant; deadlines must stay armed", cfg.OptionsType, sel.Sel.Name)
		}
	}
}

func isOptionsType(t types.Type, cfg Config) bool {
	if t == nil {
		return false
	}
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Name() != cfg.OptionsType || named.Obj().Pkg() == nil {
		return false
	}
	return analysis.PkgMatchAny(named.Obj().Pkg().Path(), cfg.TransportPkgs)
}

func pkgPathOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

func quoteList(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// Package metricname replaces the old grep lint on metric names with a
// real analyzer: the observability registry is the cluster's public
// telemetry surface, and dashboards/scrapers key on exact metric names, so
// every name must be a constant declared in the obs names file — a single
// reviewable catalogue — rather than a string literal scattered at a
// registration site where a typo silently forks a time series.
//
// Three rules:
//
//  1. Every Registry registration (Counter, Gauge, Histogram, GaugeFunc)
//     must pass a constant declared in the obs package, either directly or
//     through obs.Labeled(<const>, ...). Literals get a "declare it in
//     names.go" diagnostic; arbitrary expressions are flagged too.
//  2. Any string literal starting with the metric prefix ("dmv_") outside
//     the names file is a scattered name, registration site or not.
//  3. A name declared in the names file must be read somewhere: a name
//     that is only registered and updated feeds a series nothing consumes.
//     Every reference outside the names file counts as a read except the
//     name argument (directly or through obs.Labeled) of a registration
//     whose result is not read straight away with .Load() or .Snapshot().
//     References in _test.go files count (the analyzer's TestScope is the
//     whole module); references inside the obs package itself, its tests
//     included, do not, since the registry's own code and tests handle names
//     as samples. Generic listings such as /metrics, which print whatever
//     exists, name nothing and so read nothing. Unread names are
//     flagged at the declaration via the Finish hook, which is meaningful
//     only when the whole module is analyzed (./...).
//
// Rules 1 and 2 apply to non-test files only.
package metricname

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"dmv/internal/analysis"
)

// Config scopes the analyzer.
type Config struct {
	// ObsPkg is the observability package (PkgMatch semantics) declaring
	// Registry, Labeled, and the name constants.
	ObsPkg string
	// NamesFile is the basename of the file that must hold every name
	// constant.
	NamesFile string
	// Prefix is the metric-name prefix that marks a string as a metric
	// name.
	Prefix string
	// RegistryType and RegisterFuncs identify registration call sites.
	RegistryType  string
	RegisterFuncs []string
	// LabeledFunc is the name-deriving helper whose first argument must
	// itself be a catalogued constant.
	LabeledFunc string
}

// DefaultConfig matches this repository's internal/obs layout.
var DefaultConfig = Config{
	ObsPkg:        "obs",
	NamesFile:     "names.go",
	Prefix:        "dmv_", //dmv:ignore(metricname) the analyzer's own prefix configuration, not a metric registration
	RegistryType:  "Registry",
	RegisterFuncs: []string{"Counter", "Gauge", "Histogram", "GaugeFunc"},
	LabeledFunc:   "Labeled",
}

// state is the cross-package census for rule 3.
type state struct {
	mu sync.Mutex
	// declared maps const name -> its declaration, for consts in the names
	// file whose value carries the metric prefix.
	declared map[string]token.Pos
	// read holds const names read anywhere outside the names file.
	read map[string]bool
}

// Analyzer flags uncatalogued and unread metric names.
var Analyzer = &analysis.Analyzer{
	Name:  "metricname",
	Doc:   "require obs metric registrations to use constants from the names catalogue, and flag catalogued names nothing reads",
	Begin: func() any { return &state{declared: make(map[string]token.Pos), read: make(map[string]bool)} },
	Run:   func(pass *analysis.Pass) error { return run(pass, DefaultConfig) },
	Finish: func(st any, report func(analysis.Diagnostic)) error {
		return finish(st.(*state), DefaultConfig, report)
	},
	TestScope: []string{"dmv/..."},
}

func run(pass *analysis.Pass, cfg Config) error {
	st := pass.State.(*state)
	register := make(map[string]bool, len(cfg.RegisterFuncs))
	for _, n := range cfg.RegisterFuncs {
		register[n] = true
	}
	// Positions already diagnosed by rule 1, so rule 2 does not double-fire
	// on the same literal.
	flagged := make(map[token.Pos]bool)

	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		inNamesFile := filepath.Base(name) == cfg.NamesFile && analysis.PkgMatch(pass.Pkg.Path(), cfg.ObsPkg)
		if inNamesFile {
			collectDeclared(pass, cfg, f, st)
			continue // the catalogue itself may hold prefix literals
		}
		isTest := analysis.IsTestFileName(name)
		// The obs package and its external test package read nothing.
		inObs := analysis.PkgMatch(strings.TrimSuffix(pass.Pkg.Path(), "_test"), cfg.ObsPkg)
		// Registrations read on the spot (reg.Counter(name).Load()), and the
		// name identifiers of every other registration: those only feed.
		readNow := make(map[*ast.CallExpr]bool)
		feedOnly := make(map[*ast.Ident]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				if sel, isSel := node.Fun.(*ast.SelectorExpr); isSel && (sel.Sel.Name == "Load" || sel.Sel.Name == "Snapshot") {
					if inner, isCall := sel.X.(*ast.CallExpr); isCall {
						readNow[inner] = true
					}
				}
				fn := registration(pass, cfg, node, register)
				if fn == nil {
					return true
				}
				if !isTest {
					checkRegistration(pass, cfg, fn, node.Args[0], flagged)
				}
				if id := nameIdent(pass, cfg, node.Args[0]); id != nil && !readNow[node] {
					feedOnly[id] = true
				}
			case *ast.Ident:
				if !inObs && !feedOnly[node] {
					recordRead(pass, cfg, node, st)
				}
			}
			return true
		})
		if isTest {
			continue
		}
		// Rule 2, after rule 1 marked its positions.
		ast.Inspect(f, func(n ast.Node) bool {
			lit, isLit := n.(*ast.BasicLit)
			if !isLit || lit.Kind != token.STRING || flagged[lit.Pos()] {
				return true
			}
			if val, tv := litValue(pass, lit); tv && strings.HasPrefix(val, cfg.Prefix) {
				pass.Reportf(lit.Pos(), "metric-name literal %q outside %s; declare it as a constant in the catalogue", val, cfg.NamesFile)
			}
			return true
		})
	}
	return nil
}

// collectDeclared records the catalogue's metric-name constants.
func collectDeclared(pass *analysis.Pass, cfg Config, f *ast.File, st *state) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, decl := range f.Decls {
		gd, isGen := decl.(*ast.GenDecl)
		if !isGen || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, isVal := spec.(*ast.ValueSpec)
			if !isVal {
				continue
			}
			for _, name := range vs.Names {
				obj, isConst := pass.TypesInfo.Defs[name].(*types.Const)
				if !isConst || obj.Val().Kind() != constant.String {
					continue
				}
				if strings.HasPrefix(constant.StringVal(obj.Val()), cfg.Prefix) {
					st.declared[name.Name] = name.Pos()
				}
			}
		}
	}
}

// recordRead marks a catalogue constant as read.
func recordRead(pass *analysis.Pass, cfg Config, id *ast.Ident, st *state) {
	obj, isConst := pass.TypesInfo.Uses[id].(*types.Const)
	if !isConst || obj.Pkg() == nil || !analysis.PkgMatch(obj.Pkg().Path(), cfg.ObsPkg) {
		return
	}
	st.mu.Lock()
	st.read[obj.Name()] = true
	st.mu.Unlock()
}

// registration returns the Registry method call registers with, or nil.
func registration(pass *analysis.Pass, cfg Config, call *ast.CallExpr, register map[string]bool) *types.Func {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || !register[fn.Name()] || len(call.Args) == 0 {
		return nil
	}
	if analysis.RecvTypeName(fn) != cfg.RegistryType || fn.Pkg() == nil ||
		!analysis.PkgMatch(fn.Pkg().Path(), cfg.ObsPkg) {
		return nil
	}
	return fn
}

// nameIdent returns the catalogue constant a registration's name argument
// names, directly or as obs.Labeled's base, or nil.
func nameIdent(pass *analysis.Pass, cfg Config, arg ast.Expr) *ast.Ident {
	if id := catalogueName(pass, cfg, arg); id != nil {
		return id
	}
	if inner, isCall := ast.Unparen(arg).(*ast.CallExpr); isCall && len(inner.Args) > 0 &&
		analysis.FuncFromPkg(analysis.CalleeFunc(pass.TypesInfo, inner), cfg.ObsPkg, cfg.LabeledFunc) {
		return catalogueName(pass, cfg, inner.Args[0])
	}
	return nil
}

// checkRegistration enforces rule 1 on one registration's name argument.
func checkRegistration(pass *analysis.Pass, cfg Config, fn *types.Func, arg ast.Expr, flagged map[token.Pos]bool) {
	if nameIdent(pass, cfg, arg) != nil {
		return
	}
	flagged[arg.Pos()] = true
	if lit, isLit := arg.(*ast.BasicLit); isLit && lit.Kind == token.STRING {
		val, _ := litValue(pass, lit)
		pass.Reportf(arg.Pos(), "%s registered with string literal %q; declare it in %s so the telemetry surface stays a single catalogue", fn.Name(), val, cfg.NamesFile)
		return
	}
	pass.Reportf(arg.Pos(), "%s registered with a non-catalogue name; use a constant from %s (or %s over one)", fn.Name(), cfg.NamesFile, cfg.LabeledFunc)
}

// catalogueName returns the identifier of expr when it is (possibly
// parenthesized) a use of a constant declared in the obs package, or nil.
func catalogueName(pass *analysis.Pass, cfg Config, expr ast.Expr) *ast.Ident {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	obj, isConst := pass.TypesInfo.Uses[id].(*types.Const)
	if !isConst || obj.Pkg() == nil || !analysis.PkgMatch(obj.Pkg().Path(), cfg.ObsPkg) {
		return nil
	}
	return id
}

func litValue(pass *analysis.Pass, lit *ast.BasicLit) (string, bool) {
	tv, known := pass.TypesInfo.Types[ast.Expr(lit)]
	if !known || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// finish reports rule 3: catalogued names nothing reads.
func finish(st *state, cfg Config, report func(analysis.Diagnostic)) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	names := make([]string, 0, len(st.declared))
	for name := range st.declared {
		if !st.read[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		report(analysis.Diagnostic{
			Pos:      st.declared[name],
			Analyzer: "metricname",
			Message:  "metric name constant " + name + " is declared in " + cfg.NamesFile + " but nothing reads it; delete it with the code that feeds it, or read it (meaningful only when analyzing the whole module)",
		})
	}
	return nil
}

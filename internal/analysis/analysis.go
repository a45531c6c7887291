// Package analysis is a dependency-free reimplementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository: an Analyzer is
// a named check with a Run function, a Pass hands it one type-checked
// package, and diagnostics are positioned messages. The subset exists
// because the DMV invariant checkers (lockorder, vclockmut, guardedfield,
// copylockws, and the protocol-invariant suite rpcdeadline, commitretry,
// ackdurable, detrand, metricname) must build with the standard library
// alone; the API mirrors x/tools so the analyzers port verbatim if the
// dependency ever lands.
//
// Beyond the x/tools subset this package adds three things the protocol
// analyzers need: cross-package session state (Begin/Finish, e.g. the
// metricname read census), analyzer-scoped loading of _test.go
// files (TestScope), and a central //dmv:ignore suppression layer applied
// when diagnostics are collected (see ignore.go).
package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, on the command line, and
	// in dmv:ignore comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// Begin, if non-nil, allocates one analysis session's cross-package
	// state before any pass runs; the value reaches every Pass via
	// Pass.State and Finish as its argument. Passes may run concurrently,
	// so the state must synchronize its own mutation.
	Begin func() any
	// Finish, if non-nil, runs once after every package's Run completed —
	// the hook for whole-session findings such as declared-but-never-used
	// names. Reported diagnostics pass through the same suppression filter
	// as per-package ones.
	Finish func(state any, report func(Diagnostic)) error
	// TestScope lists import-path patterns (PkgMatch semantics) whose
	// _test.go files the analyzer also wants to see. Empty means the
	// analyzer runs on non-test packages only. The driver unions the
	// scopes of enabled analyzers into the loader's test set.
	TestScope []string
}

// Pass provides one analyzer run with a single type-checked package and a
// sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
	// State is the session value from Analyzer.Begin (nil without one).
	State any
	// TestVariant marks a package loaded with its _test.go files; only
	// analyzers whose TestScope matches the package see such passes, and
	// only their test-file diagnostics are kept (the base files were
	// already analyzed in the normal pass).
	TestVariant bool
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// RunOptions tunes RunAnalyzers.
type RunOptions struct {
	// Parallel caps concurrently analyzed packages; <= 0 means GOMAXPROCS.
	// Loading stays sequential (the source importer is not concurrency
	// safe); this parallelizes the analyzer passes themselves.
	Parallel int
}

// RunAnalyzers applies every analyzer to every package (honoring test
// scoping), runs Finish hooks, applies //dmv:ignore suppression, and
// returns the surviving findings sorted by file position. Malformed ignore
// comments are returned as "dmvignore" diagnostics.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset

	ignores := NewIgnoreIndex()
	var malformed []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			malformed = append(malformed, ignores.AddFile(fset, f)...)
		}
	}

	states := make(map[*Analyzer]any, len(analyzers))
	for _, a := range analyzers {
		if a.Begin != nil {
			states[a] = a.Begin()
		}
	}

	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}

	var (
		mu   sync.Mutex
		out  []Diagnostic
		errs []error
		wg   sync.WaitGroup
		work = make(chan *Package)
	)
	analyzeOne := func(pkg *Package) {
		for _, a := range analyzers {
			if pkg.TestVariant && !PkgMatchAny(pkg.PkgPath, a.TestScope) {
				continue
			}
			var local []Diagnostic
			pass := &Pass{
				Analyzer:    a,
				Fset:        fset,
				Files:       pkg.Files,
				Pkg:         pkg.Types,
				TypesInfo:   pkg.Info,
				State:       states[a],
				TestVariant: pkg.TestVariant,
				Report:      func(d Diagnostic) { local = append(local, d) },
			}
			err := a.Run(pass)
			if pkg.TestVariant {
				// Base files were analyzed in the normal pass; keep only
				// what the test files themselves triggered.
				kept := local[:0]
				for _, d := range local {
					if IsTestFileName(fset.Position(d.Pos).Filename) {
						kept = append(kept, d)
					}
				}
				local = kept
			}
			mu.Lock()
			out = append(out, local...)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err))
			}
			mu.Unlock()
		}
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pkg := range work {
				analyzeOne(pkg)
			}
		}()
	}
	for _, pkg := range pkgs {
		work <- pkg
	}
	close(work)
	wg.Wait()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}

	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		if err := a.Finish(states[a], func(d Diagnostic) { out = append(out, d) }); err != nil {
			return nil, fmt.Errorf("%s: finish: %w", a.Name, err)
		}
	}

	out = ignores.Filter(fset, out)
	out = append(out, malformed...)
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

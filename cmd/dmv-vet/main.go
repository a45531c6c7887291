// Command dmv-vet runs the DMV invariant analyzers over the given package
// patterns, multichecker style. It is meant to run alongside the standard
// vet suite (see scripts/check.sh):
//
//	go vet ./... && go run ./cmd/dmv-vet ./...
//
// Memory-safety analyzers: lockorder (declared lock hierarchy +
// acquisition-cycle detection), vclockmut (version vectors are immutable
// once published), guardedfield (`// guarded by <mu>` annotations),
// copylockws (no by-value copies of write-sets or page buffers).
//
// Protocol-invariant analyzers: rpcdeadline (every RPC client path is
// deadline-bounded), commitretry (no retry wrapper around non-idempotent
// TxExec/TxCommit — the ErrCommitUncertain discipline), ackdurable
// (commit acks in the persistence tier happen only after WaitDurable),
// detrand (fault-injection and chaos code draws entropy only from the
// threaded seeded source), metricname (obs registrations use the names.go
// catalogue; a catalogued name nothing reads is flagged).
//
// A finding is suppressed with a trailing or preceding comment
//
//	//dmv:ignore(<analyzer>[,<analyzer>...]) <reason>
//
// where the reason is mandatory: an ignore without one is itself reported.
//
// Flags: -run selects analyzers by name; each analyzer also has a
// -<name>=false disable flag; -json emits machine-readable diagnostics on
// stdout (one object per line); -fmt <file> re-renders a saved -json array
// as sorted "file:line:col: [analyzer] message" text; -p bounds
// package-level parallelism.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dmv/internal/analysis"
	"dmv/internal/analysis/ackdurable"
	"dmv/internal/analysis/commitretry"
	"dmv/internal/analysis/copylockws"
	"dmv/internal/analysis/detrand"
	"dmv/internal/analysis/guardedfield"
	"dmv/internal/analysis/lockorder"
	"dmv/internal/analysis/metricname"
	"dmv/internal/analysis/rpcdeadline"
	"dmv/internal/analysis/vclockmut"
)

// suite is every DMV invariant analyzer, in diagnostic-prefix order.
var suite = []*analysis.Analyzer{
	ackdurable.Analyzer,
	commitretry.Analyzer,
	copylockws.Analyzer,
	detrand.Analyzer,
	guardedfield.Analyzer,
	lockorder.Analyzer,
	metricname.Analyzer,
	rpcdeadline.Analyzer,
	vclockmut.Analyzer,
}

func main() {
	os.Exit(vetMain(os.Args[1:], os.Stdout, os.Stderr))
}

// vetMain is the testable driver core; it returns the process exit code.
func vetMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmv-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all enabled)")
	list := fs.Bool("list", false, "list analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	fmtFile := fs.String("fmt", "", "format a saved -json diagnostics file as text and exit")
	parallel := fs.Int("p", 0, "max packages analyzed in parallel (0 = GOMAXPROCS)")
	enabled := make(map[string]*bool, len(suite))
	for _, a := range suite {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer")
	}
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dmv-vet [flags] packages...\n       dmv-vet -fmt diagnostics.json\n\nAnalyzers (each has a -<name>=false disable flag):\n")
		for _, a := range suite {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *fmtFile != "" {
		f, err := os.Open(*fmtFile)
		if err != nil {
			fmt.Fprintf(stderr, "dmv-vet: %v\n", err)
			return 2
		}
		defer f.Close()
		if _, err := analysis.FormatJSON(f, stdout); err != nil {
			fmt.Fprintf(stderr, "dmv-vet: %v\n", err)
			return 2
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		return 2
	}

	analyzers := make([]*analysis.Analyzer, 0, len(suite))
	for _, a := range suite {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer, len(suite))
		for _, a := range suite {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, known := byName[strings.TrimSpace(name)]
			if !known {
				fmt.Fprintf(stderr, "dmv-vet: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "dmv-vet: %v\n", err)
		return 2
	}
	// Load _test.go files only for the packages some enabled analyzer
	// scopes its checks to.
	var testScope []string
	for _, a := range analyzers {
		testScope = append(testScope, a.TestScope...)
	}
	pkgs, err := analysis.LoadPkgs(wd, patterns, analysis.LoadOptions{Tests: testScope})
	if err != nil {
		fmt.Fprintf(stderr, "dmv-vet: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		if *jsonOut {
			fmt.Fprintln(stdout, "[]")
		}
		return 0
	}
	diags, err := analysis.RunAnalyzers(pkgs, analyzers, analysis.RunOptions{Parallel: *parallel})
	if err != nil {
		fmt.Fprintf(stderr, "dmv-vet: %v\n", err)
		return 2
	}
	if *jsonOut {
		if err := analysis.EncodeJSON(stdout, analysis.JSONDiagnostics(pkgs[0].Fset, diags, wd)); err != nil {
			fmt.Fprintf(stderr, "dmv-vet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			pos := pkgs[0].Fset.Position(d.Pos)
			fmt.Fprintf(stderr, "%s: [%s] %s\n", pos, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// Command dtbvet runs the project's static-analysis suite
// (internal/analysis) over the module: eight analyzers enforcing the
// allocation-clock unit discipline, boundary-policy purity,
// simulation determinism, trace-event-switch exhaustiveness, the
// cliio error-sink discipline (tests and examples included), float
// bit-exactness, the //dtbvet:hotpath allocation contract, and
// goroutine join/cancellation hygiene in the fan-out code — invariants
// the reproduction depends on but the Go compiler cannot see.
//
// Usage:
//
//	dtbvet ./...                  # analyze the whole module (the CI gate)
//	dtbvet -list                  # describe the analyzers
//	dtbvet -only errsink ./...    # run a subset
//	dtbvet -json ./...            # machine-readable report on stdout
//	dtbvet -selftest              # mutation check: every analyzer must fire on its fixture
//
// Exit status is 0 when the module is clean, 1 when diagnostics were
// reported, 2 on a load or usage error. Every finding fails the run.
// The one way to accept one is a scoped, reasoned
// `//dtbvet:ignore <analyzer>[,analyzer...] -- <reason>` at the
// offending line; an ignore that no longer suppresses anything is
// itself reported, so accepted findings cannot go stale.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/dtbgc/dtbgc/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "write the findings as JSON on stdout")
	selftest := flag.Bool("selftest", false, "run the mutation self-test: every analyzer must fire on its fixture")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			scope := ""
			if a.Tests {
				scope = " [runs on tests]"
			}
			sev := a.Severity
			if sev == "" {
				sev = analysis.SeverityError
			}
			fmt.Printf("%-14s %-8s %s%s\n", a.Name, sev, a.Doc, scope)
		}
		return
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtbvet:", err)
		os.Exit(2)
	}

	if *selftest {
		if err := analysis.SelfTest(root); err != nil {
			fmt.Fprintln(os.Stderr, "dtbvet:", err)
			os.Exit(1)
		}
		fmt.Println("dtbvet: selftest ok: every analyzer fires on its mutant fixture and stays silent on the clean corpus")
		return
	}

	analyzers := analysis.All()
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := byName[strings.TrimSpace(name)]
			if a == nil {
				fmt.Fprintf(os.Stderr, "dtbvet: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	// The only supported target is the module containing the working
	// directory; "./..." (or no argument) means all of it.
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "." {
			fmt.Fprintf(os.Stderr, "dtbvet: unsupported package pattern %q (dtbvet analyzes the whole module: use ./...)\n", arg)
			os.Exit(2)
		}
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtbvet:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadModuleWithTests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtbvet:", err)
		os.Exit(2)
	}

	diags := analysis.RunAnalyzers(pkgs, analyzers)

	if *jsonOut {
		if err := analysis.WriteJSON(os.Stdout, root, diags); err != nil {
			fmt.Fprintln(os.Stderr, "dtbvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			rel := d
			rel.Pos.Filename = analysis.RelPath(root, d.Pos.Filename)
			fmt.Println(rel)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dtbvet: %d problem(s) in %d package(s) analyzed\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

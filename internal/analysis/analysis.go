// Package analysis is the project's static-analysis suite: a small,
// stdlib-only framework (go/ast + go/types; no external modules), a
// dataflow layer (per-function use-def chains and a package-level
// call-graph approximation — see dataflow.go), and eight
// project-specific analyzers enforcing invariants the Go type system
// cannot express but the reproduction depends on:
//
//   - allocclock: core.Time is an allocation-clock reading, not a byte
//     count; raw integer conversions between the two outside
//     internal/core lose the unit, and KB/MB format verbs must be fed
//     scaled operands.
//   - policypurity: boundary policies must be pure functions of the
//     scavenge history; a policy that mutates or retains the history
//     breaks the FULL/FIXED/FEEDMED/DTBFM/DTBMEM comparability the
//     paper's tables rest on.
//   - determinism: simulations must be bit-for-bit repeatable, so
//     time.Now, math/rand and map-iteration order are banned from
//     simulation and rendering code paths.
//   - eventswitch: every switch over trace.Kind must be exhaustive or
//     carry a default, so a new event kind cannot be silently dropped
//     by a codec, simulator or analysis.
//   - errsink: a discarded error from Close/Flush/Write-shaped sinks
//     (including their module-local wrappers, found through the call
//     graph) silently converts I/O failure into truncated output —
//     the exact bug class internal/cliio exists to kill. Runs on test
//     files and examples too.
//   - floatexact: the differential oracle's bit-identity contract
//     (math.Float64bits) makes ==/!=/switch/map-keying on floating
//     types a trap; every such site must be rewritten or carry a
//     reasoned ignore.
//   - hotalloc: functions marked //dtbvet:hotpath must not allocate
//     per call — escaping composite literals, capacity-less append
//     growth, escaping closures, interface boxing and fmt calls are
//     flagged.
//   - leakcheck: goroutines in internal/engine and internal/sim must
//     carry a join (WaitGroup.Done) or cancellation (ctx.Done) path,
//     and channel sends there must be select-guarded.
//
// Intentional exceptions are annotated in the source with a scoped,
// reasoned directive naming the analyzer(s) being silenced:
//
//	//dtbvet:ignore <analyzer>[,analyzer...] -- <reason>
//
// on, or on the line above, the reported line. The analyzer name and
// the reason are both mandatory; a bare or unscoped directive, an
// unknown analyzer name, and a directive that no longer suppresses
// anything (a stale suppression outliving its pass) are themselves
// reported. cmd/dtbvet is the command-line driver; it adds JSON
// output and a mutation-style self-test. There is no findings
// baseline: every finding is either fixed or accepted by a reasoned
// directive at its site.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Severity ranks a diagnostic. Every severity gates the build (dtbvet
// exits non-zero); the level exists so machine consumers (-json) can
// rank work, not so warnings can be ignored.
type Severity string

const (
	// SeverityError marks a correctness contract violation.
	SeverityError Severity = "error"
	// SeverityWarning marks a performance-discipline violation
	// (hotalloc): wrong for the hot path, not wrong in general.
	SeverityWarning Severity = "warning"
)

// Analyzer is one named check.
type Analyzer struct {
	Name     string   // short lower-case identifier, e.g. "allocclock"
	Doc      string   // one-line description of the invariant it guards
	Severity Severity // default severity for its diagnostics
	Tests    bool     // whether the analyzer also runs on test-file packages
	Run      func(*Pass)
}

// All returns the full suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		AllocClock, PolicyPurity, Determinism, EventSwitch,
		ErrSink, FloatExact, HotAlloc, LeakCheck,
	}
}

// metaAnalyzer names the framework's own diagnostics (directive
// misuse, stale directives). They cannot be suppressed.
const metaAnalyzer = "dtbvet"

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Severity Severity
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Unit     *Unit // shared across the whole load (call graph, sinks)

	diags   *[]Diagnostic
	ignores map[string]map[int]*ignoreDirective
}

// Fset returns the position set shared by every package of the load.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// TypesInfo returns the package's type-checker results.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Reportf records a diagnostic at pos (at the analyzer's default
// severity) unless an ignore directive scoped to this analyzer covers
// that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if d := p.ignoreFor(position); d != nil {
		d.used = true
		return
	}
	sev := p.Analyzer.Severity
	if sev == "" {
		sev = SeverityError
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreFor returns the directive covering pos and scoped to this
// pass's analyzer, or nil. A directive only suppresses the analyzers
// it names.
func (p *Pass) ignoreFor(pos token.Position) *ignoreDirective {
	lines := p.ignores[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if d := lines[line]; d != nil && d.covers(p.Analyzer.Name) {
			return d
		}
	}
	return nil
}

// ignoreDirective is one //dtbvet:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers []string // the passes it silences
	reason    string
	malformed string // non-empty: the parse/validation problem to report
	used      bool
}

func (d *ignoreDirective) covers(analyzer string) bool {
	for _, a := range d.analyzers {
		if a == analyzer {
			return true
		}
	}
	return false
}

const (
	ignorePrefix  = "dtbvet:ignore"
	hotpathPrefix = "dtbvet:hotpath"
	reasonSep     = "--"
)

// parseIgnore parses the text after "dtbvet:ignore". The format is
//
//	<analyzer>[,analyzer...] -- <reason>
//
// and both halves are mandatory: an unscoped suppression cannot be
// retired when its pass changes, and an unexplained one cannot be
// audited. known maps valid analyzer names.
func parseIgnore(text string, known map[string]bool) ignoreDirective {
	names, reason, found := strings.Cut(text, reasonSep)
	if !found {
		return ignoreDirective{malformed: fmt.Sprintf(
			"//dtbvet:ignore needs an analyzer scope and a reason: //dtbvet:ignore <analyzer> %s <reason>", reasonSep)}
	}
	reason = strings.TrimSpace(reason)
	if reason == "" {
		return ignoreDirective{malformed: "//dtbvet:ignore directive needs a reason"}
	}
	var d ignoreDirective
	d.reason = reason
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] || name == metaAnalyzer {
			return ignoreDirective{malformed: fmt.Sprintf(
				"//dtbvet:ignore names unknown analyzer %q (run dtbvet -list)", name)}
		}
		d.analyzers = append(d.analyzers, name)
	}
	if len(d.analyzers) == 0 {
		return ignoreDirective{malformed: fmt.Sprintf(
			"//dtbvet:ignore needs at least one analyzer name before %q", reasonSep)}
	}
	return d
}

// collectIgnores indexes every //dtbvet:ignore directive by file and
// line so Reportf can consult them in O(1).
func collectIgnores(pkg *Package, known map[string]bool) map[string]map[int]*ignoreDirective {
	out := make(map[string]map[int]*ignoreDirective)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, ignorePrefix)
				if !ok {
					continue
				}
				d := parseIgnore(strings.TrimSpace(rest), known)
				d.pos = pkg.Fset.Position(c.Pos())
				byLine := out[d.pos.Filename]
				if byLine == nil {
					byLine = make(map[int]*ignoreDirective)
					out[d.pos.Filename] = byLine
				}
				byLine[d.pos.Line] = &d
			}
		}
	}
	return out
}

// RunAnalyzers applies each analyzer to each package and returns every
// diagnostic, sorted by position. Directive misuse is reported too: a
// malformed or unscoped directive, and a directive whose named
// analyzers all ran without it suppressing anything — an exception
// that outlived its pass is not an exception, it is drift.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(All())+1)
	for _, a := range All() {
		known[a.Name] = true
	}
	known[metaAnalyzer] = true

	unit := NewUnit(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg, known)
		ran := make(map[string]bool)
		for _, a := range analyzers {
			if pkg.IsTest && !a.Tests {
				continue
			}
			ran[a.Name] = true
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Unit: unit, diags: &diags, ignores: ignores})
		}
		for _, byLine := range ignores { //dtbvet:ignore determinism -- diagnostics are sorted below before emission
			for _, d := range byLine { //dtbvet:ignore determinism -- diagnostics are sorted below before emission
				switch {
				case d.malformed != "":
					diags = append(diags, Diagnostic{
						Pos: d.pos, Analyzer: metaAnalyzer, Severity: SeverityError,
						Message: d.malformed,
					})
				case !d.used && allRan(d.analyzers, ran):
					diags = append(diags, Diagnostic{
						Pos: d.pos, Analyzer: metaAnalyzer, Severity: SeverityError,
						Message: fmt.Sprintf("stale //dtbvet:ignore: %s reported nothing here — the suppression outlived its pass, remove it",
							strings.Join(d.analyzers, ",")),
					})
				}
			}
		}
	}
	SortDiagnostics(diags)
	return diags
}

// allRan reports whether every named analyzer was actually run on the
// package — a suppression is only provably stale when its pass had
// the chance to fire (think dtbvet -only subsets, or test-only
// analyzers on shipped code).
func allRan(names []string, ran map[string]bool) bool {
	for _, n := range names {
		if !ran[n] {
			return false
		}
	}
	return true
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer —
// the stable order every output mode relies on.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// --- shared type-matching helpers ---

// corePkgSuffix identifies the package defining the allocation clock
// and the policy framework, wherever the module root happens to live.
const corePkgSuffix = "internal/core"

// tracePkgSuffix identifies the package defining the event model.
const tracePkgSuffix = "internal/trace"

// namedFrom reports whether t is the named type pkgSuffix.name
// (following aliases but not the underlying type).
func namedFrom(t types.Type, pkgSuffix, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Name() == name && hasPathSuffix(obj.Pkg().Path(), pkgSuffix)
}

// hasPathSuffix matches whole path segments, so "internal/core" does
// not match "internal/encore".
func hasPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

func isCoreTime(t types.Type) bool { return t != nil && namedFrom(t, corePkgSuffix, "Time") }

func isCoreHistoryPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && namedFrom(ptr.Elem(), corePkgSuffix, "History")
}

func isTraceKind(t types.Type) bool { return t != nil && namedFrom(t, tracePkgSuffix, "Kind") }

// rootIdent walks selector/index/star/paren chains to the identifier
// the expression is rooted at ("x" in x.f[i].g), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

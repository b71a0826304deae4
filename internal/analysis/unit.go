package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Unit is the whole-load view shared by every Pass of one RunAnalyzers
// call: the package set, a call-graph approximation over it, and the
// derived error-sink set. Everything is built lazily and exactly once.
type Unit struct {
	Pkgs []*Package

	once  sync.Once
	graph *CallGraph
	sinks map[*types.Func]string // sink function -> why it is one
}

// NewUnit wraps a package load.
func NewUnit(pkgs []*Package) *Unit { return &Unit{Pkgs: pkgs} }

// CallGraph returns the unit's call-graph approximation.
func (u *Unit) CallGraph() *CallGraph {
	u.build()
	return u.graph
}

// build constructs the call graph and runs the sink fixpoint.
func (u *Unit) build() {
	u.once.Do(func() {
		u.graph = buildCallGraph(u.Pkgs)
		u.sinks = propagateSinks(u.graph)
	})
}

// CallGraph is the package-level call-graph approximation: static
// call edges only. Calls through interface values resolve to the
// interface method object (good enough for name/signature checks);
// calls through function-typed variables stay unresolved.
type CallGraph struct {
	callees map[*types.Func][]*types.Func
	decls   map[*types.Func]*ast.FuncDecl
}

// Decl returns the syntax of fn if it is declared in the analyzed
// packages, else nil — the "can I look at the body" test.
func (g *CallGraph) Decl(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		callees: make(map[*types.Func][]*types.Func),
		decls:   make(map[*types.Func]*ast.FuncDecl),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.decls[fn] = fd
				seen := make(map[*types.Func]bool)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, isCall := n.(*ast.CallExpr)
					if !isCall {
						return true
					}
					callee := calleeFunc(pkg.Info, call)
					if callee == nil || seen[callee] {
						return true
					}
					seen[callee] = true
					g.callees[fn] = append(g.callees[fn], callee)
					return true
				})
			}
		}
	}
	return g
}

// --- error-sink classification (shared by errsink) ---

// baseSinkNames are the flush-shaped method names whose error result
// is where buffered-I/O failure surfaces.
var baseSinkNames = map[string]bool{"Close": true, "Flush": true, "Sync": true}

// writeSinkNames are the write-shaped names, recognized when the last
// result is an error.
var writeSinkNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteTo": true, "ReadFrom": true,
}

// neverFails lists receiver types whose write/flush errors are
// documented to be always nil; flagging them is noise, not safety.
var neverFails = map[string]map[string]bool{
	"bytes":   {"Buffer": true},
	"strings": {"Builder": true},
	"hash":    {"Hash": true, "Hash32": true, "Hash64": true},
}

// isBaseSink classifies a function by name and signature alone, so it
// works for stdlib functions and interface methods without a body.
func isBaseSink(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
		return false
	}
	if !baseSinkNames[fn.Name()] && !writeSinkNames[fn.Name()] {
		return false
	}
	if recv := sig.Recv(); recv != nil && isNeverFailingRecv(recv.Type()) {
		return false
	}
	return true
}

func isNeverFailingRecv(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	byName := neverFails[named.Obj().Pkg().Path()]
	return byName != nil && byName[named.Obj().Name()]
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj() != nil && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// propagateSinks runs the call-graph fixpoint that turns the name-
// based base set into the module-wide sink set: a declared function
// whose last result is an error and whose body calls a sink is itself
// a sink — its error carries the inner Close/Flush/Write failure, so
// discarding it at ANY call depth reintroduces the silent-truncation
// bug. The fixpoint climbs wrappers of wrappers until stable.
func propagateSinks(g *CallGraph) map[*types.Func]string {
	// The fixpoint visits functions in name order: with map order, a
	// wrapper calling two sinks could record either one as its "why"
	// depending on which round classified them — same verdicts, flaky
	// messages. Determinism is this module's own house rule.
	ordered := make([]*types.Func, 0, len(g.decls))
	for fn := range g.decls { //dtbvet:ignore determinism -- ordered is sorted by FullName on the next lines
		ordered = append(ordered, fn)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].FullName() < ordered[j].FullName() })

	sinks := make(map[*types.Func]string)
	// Seed with the declared functions that are base sinks themselves
	// (an Output.Close wrapper is found by name before any edges).
	for _, fn := range ordered {
		if isBaseSink(fn) {
			sinks[fn] = "is a " + fn.Name() + " sink"
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range ordered {
			if _, done := sinks[fn]; done {
				continue
			}
			decl := g.decls[fn]
			if decl.Body == nil {
				continue
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				continue
			}
			res := sig.Results()
			if res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
				continue
			}
			for _, callee := range g.callees[fn] {
				why, isWrapped := sinks[callee]
				if !isWrapped && isBaseSink(callee) {
					isWrapped, why = true, "calls "+callee.Name()
				}
				if isWrapped {
					sinks[fn] = "wraps " + callee.Name() + " (" + rootCause(why) + ")"
					changed = true
					break
				}
			}
		}
	}
	return sinks
}

// rootCause keeps the chain description short: "wraps run (wraps
// WriteTo (calls Close))" collapses to the innermost cause.
func rootCause(why string) string {
	for strings.Contains(why, "(") {
		open := strings.Index(why, "(")
		why = strings.TrimSuffix(why[open+1:], ")")
	}
	return why
}

// SinkReason classifies fn: a non-empty reason means discarding its
// error result loses an I/O failure. Interface methods and stdlib
// functions classify by name/signature; declared functions also by
// the wrapper fixpoint.
func (u *Unit) SinkReason(fn *types.Func) string {
	u.build()
	if why, ok := u.sinks[fn]; ok {
		return why
	}
	if isBaseSink(fn) {
		return "is a " + fn.Name() + " sink"
	}
	return ""
}

package analysis

import (
	"go/ast"
	"go/types"
)

// PolicyPurity guards the comparability premise of the paper's Table
// 1: a boundary policy must be a pure function of (now, history,
// heap). It inspects every function with a *core.History parameter —
// the Policy.Boundary implementations and their helpers — and flags:
//
//   - writes through the history parameter (field stores, element
//     stores, History.Record calls): the simulator owns the history;
//   - stores of the history or heap parameter into anything that
//     outlives the call (receiver fields, package variables, other
//     non-local locations): a retained history aliases the
//     simulator's and turns a policy stateful;
//   - writes to receiver state or package variables from inside the
//     policy: receiver fields are configuration (TraceMax, MemMax, K),
//     not scratch space, and hidden state desynchronizes replays.
//
// There is exactly one sanctioned escape from statelessness: a
// core.PolicyInstance — a receiver type carrying the full instance
// method set (Boundary, Observe). Instances exist to hold per-run
// learned state, so their receiver writes are exempt; everything else
// still applies — the history stays read-only and unretained, package
// variables stay off limits — and, because instance state must replay
// bit-identically, instance methods (and all policy code) may draw
// randomness and environment only from seeded sources: math/rand,
// time.Now, os.Getenv and friends are flagged wherever a policy-shaped
// function uses them.
var PolicyPurity = &Analyzer{
	Name: "policypurity",
	Doc:  "boundary policies must be pure functions of (now, history, heap); instance state only via the sanctioned PolicyInstance contract",
	Run:  runPolicyPurity,
}

func runPolicyPurity(pass *Pass) {
	info := pass.TypesInfo()
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			histParams := historyParams(info, fn)
			sanctioned := sanctionedInstanceMethod(info, fn)
			if len(histParams) == 0 && !sanctioned {
				continue
			}
			checkPolicyBody(pass, info, fn, histParams, sanctioned)
		}
	}
}

// instanceMethods is the method set that marks a receiver type as a
// sanctioned core.PolicyInstance: per-run state carriers declare both
// Boundary and Observe, and only they may write receiver fields from
// policy code.
var instanceMethods = []string{"Boundary", "Observe"}

// sanctionedInstanceMethod reports whether fn is a method of a type
// implementing the full PolicyInstance method set.
func sanctionedInstanceMethod(info *types.Info, fn *ast.FuncDecl) bool {
	recv := receiverObj(info, fn)
	if recv == nil {
		return false
	}
	for _, name := range instanceMethods {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, nil, name)
		if _, ok := obj.(*types.Func); !ok {
			return false
		}
	}
	return true
}

// historyParams returns the objects of every *core.History parameter
// of fn (empty if fn is not policy-shaped).
func historyParams(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if fn.Type.Params == nil {
		return out
	}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil && isCoreHistoryPtr(obj.Type()) {
				out[obj] = true
			}
		}
	}
	return out
}

func checkPolicyBody(pass *Pass, info *types.Info, fn *ast.FuncDecl, hist map[types.Object]bool, sanctioned bool) {
	recv := receiverObj(info, fn)
	scope := info.Scopes[fn.Type]

	// isLocal reports whether obj is declared inside fn (including
	// parameters), i.e. writing it cannot outlive the call.
	isLocal := func(obj types.Object) bool {
		if obj == nil || scope == nil {
			return false
		}
		for s := obj.Parent(); s != nil; s = s.Parent() {
			if s == scope {
				return true
			}
		}
		return false
	}

	rootObj := func(e ast.Expr) types.Object {
		id := rootIdent(e)
		if id == nil {
			return nil
		}
		return info.Uses[id]
	}

	checkWrite := func(lhs ast.Expr) {
		obj := rootObj(lhs)
		if obj == nil {
			return
		}
		switch {
		case hist[obj]:
			// A plain rebind of the parameter itself (hist = ...) is
			// local; only writes *through* it mutate shared state.
			if _, plain := lhs.(*ast.Ident); !plain {
				pass.Reportf(lhs.Pos(), "%s writes through its History parameter: policies must treat the scavenge history as read-only", fn.Name.Name)
			}
		case recv != nil && obj == recv:
			// Sanctioned PolicyInstance methods hold per-run state on
			// the receiver by design.
			if sanctioned {
				return
			}
			if _, plain := lhs.(*ast.Ident); !plain {
				pass.Reportf(lhs.Pos(), "%s mutates receiver state: policy fields are configuration, not scratch space", fn.Name.Name)
			}
		case obj.Parent() == pass.Pkg.Types.Scope():
			pass.Reportf(lhs.Pos(), "%s writes package variable %s: policies must not keep hidden state", fn.Name.Name, obj.Name())
		}
	}

	mentionsTracked := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && hist[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				checkWrite(lhs)
			}
			// Retention: the history parameter may only be bound to
			// locals (helper calls receive it by value anyway); storing
			// it anywhere non-local aliases the simulator's history.
			for i, rhs := range v.Rhs {
				if !mentionsTracked(rhs) {
					continue
				}
				if len(v.Lhs) != len(v.Rhs) {
					continue // multi-value call; conversions below still apply
				}
				lhs := v.Lhs[i]
				id, plain := lhs.(*ast.Ident)
				if plain && (info.Defs[id] != nil || isLocal(info.Uses[id])) {
					continue
				}
				pass.Reportf(rhs.Pos(), "%s stores its History parameter into a location that outlives the call: policies must not retain the history", fn.Name.Name)
			}
		case *ast.IncDecStmt:
			checkWrite(v.X)
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
				if obj := rootObj(sel.X); obj != nil && hist[obj] && mutatesHistory(sel.Sel.Name) {
					pass.Reportf(v.Pos(), "%s calls History.%s: policies must not mutate the scavenge history", fn.Name.Name, sel.Sel.Name)
				}
				if src := ambientSource(info, sel); src != "" {
					pass.Reportf(v.Pos(), "%s calls %s: policy code must use only seeded randomness (the run's xrand instance), never ambient state", fn.Name.Name, src)
				}
			}
		}
		return true
	})
}

// ambientSource classifies a selector call as ambient nondeterminism —
// unseeded randomness, wall-clock time, the process environment — and
// returns a human-readable name for it, or "". Any use of math/rand is
// banned outright: even a locally seeded rand.Rand may produce a
// different stream under another Go release, which is why
// internal/xrand exists.
func ambientSource(info *types.Info, sel *ast.SelectorExpr) string {
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch obj.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		return obj.Pkg().Path() + "." + obj.Name()
	case "time":
		if obj.Name() == "Now" || obj.Name() == "Since" || obj.Name() == "Until" {
			return "time." + obj.Name()
		}
	case "os":
		if obj.Name() == "Getenv" || obj.Name() == "LookupEnv" || obj.Name() == "Environ" {
			return "os." + obj.Name()
		}
	}
	return ""
}

// mutatesHistory lists the History methods that write.
func mutatesHistory(method string) bool { return method == "Record" }

// receiverObj returns the object of fn's receiver, or nil.
func receiverObj(info *types.Info, fn *ast.FuncDecl) types.Object {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[fn.Recv.List[0].Names[0]]
}

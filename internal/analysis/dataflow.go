package analysis

// The dataflow layer: the shared machinery the v2 analyzers (errsink,
// floatexact, hotalloc, leakcheck) are built on. Two pieces, both
// deliberately approximate and deliberately stdlib-only:
//
//   - FuncFlow: per-function use-def chains over go/types objects. For
//     each local object (parameters included) it records the
//     definition sites (declarations and assignments, with the bound
//     expression) and the read sites. Flow-insensitive by design: "is
//     this variable ever read" and "what expressions were ever bound
//     to it" are the queries the analyzers need, and both are sound
//     without a CFG — a variable with zero reads anywhere is
//     definitely unchecked, and a capacity visible in any binding is
//     accepted.
//
//   - Unit: the whole-load view. It builds a package-level call-graph
//     approximation (static call edges only: direct calls and method
//     calls resolved by go/types; calls through interface values or
//     function-typed variables stay unresolved) and derives the error
//     sink set from it — see unit.go for the fixpoint.

import (
	"go/ast"
	"go/types"
)

// FuncFlow is the use-def summary of one function body.
type FuncFlow struct {
	// defs maps a local object to every expression bound to it: the
	// initializer of its declaration and the RHS of every assignment.
	// A nil entry records a binding with no usable expression (var
	// without initializer, range variable, multi-value unpacking).
	defs map[types.Object][]ast.Expr
	// reads maps a local object to its read occurrences — every use
	// that is not the plain LHS of an assignment.
	reads map[types.Object][]*ast.Ident
	// params marks parameters and receivers: objects the caller
	// controls, whose values the function cannot reason about.
	params map[types.Object]bool
}

// IsRead reports whether obj is read anywhere in the function. A
// false answer is definitive (flow-insensitivity only ever ADDS
// reads), which is what makes it safe to flag never-read error
// results.
func (f *FuncFlow) IsRead(obj types.Object) bool { return len(f.reads[obj]) > 0 }

// Defs returns every expression ever bound to obj in the function
// (nil entries mark bindings with no single expression, such as
// multi-value unpacking or bare declarations).
func (f *FuncFlow) Defs(obj types.Object) []ast.Expr { return f.defs[obj] }

// IsLocalDef reports whether obj is a local the function itself binds
// (not a parameter or receiver) — the "can this function know the
// value's provenance" test behind the hotalloc append rule.
func (f *FuncFlow) IsLocalDef(obj types.Object) bool {
	_, ok := f.defs[obj]
	return ok && !f.params[obj]
}

// BuildFlow computes the use-def chains of one function body (FuncDecl
// or FuncLit body — any statement tree).
func BuildFlow(info *types.Info, body ast.Node) *FuncFlow {
	f := &FuncFlow{
		defs:   make(map[types.Object][]ast.Expr),
		reads:  make(map[types.Object][]*ast.Ident),
		params: make(map[types.Object]bool),
	}
	if body == nil {
		return f
	}
	// written collects idents in a write position so the read pass can
	// skip them; an ident can legitimately appear twice (x = x + 1
	// parses the RHS x as a distinct node), so position identity is
	// exact.
	written := make(map[*ast.Ident]bool)

	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return // writes through selectors/indexes define nothing new
		}
		written[id] = true
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		f.defs[obj] = append(f.defs[obj], rhs)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) == len(v.Rhs) {
				for i := range v.Lhs {
					record(v.Lhs[i], v.Rhs[i])
				}
			} else {
				for _, lhs := range v.Lhs {
					record(lhs, nil) // multi-value unpacking
				}
			}
		case *ast.ValueSpec:
			if len(v.Names) == len(v.Values) {
				for i := range v.Names {
					record(v.Names[i], v.Values[i])
				}
			} else {
				for _, name := range v.Names {
					record(name, nil)
				}
			}
		case *ast.RangeStmt:
			if v.Key != nil {
				record(v.Key, nil)
			}
			if v.Value != nil {
				record(v.Value, nil)
			}
		case *ast.IncDecStmt:
			// x++ both reads and writes; leave the ident as a read.
		case *ast.Field:
			for _, name := range v.Names {
				if obj := info.Defs[name]; obj != nil {
					f.defs[obj] = append(f.defs[obj], nil) // parameters and receivers
					f.params[obj] = true
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || written[id] {
			return true
		}
		if obj := info.Uses[id]; obj != nil {
			f.reads[obj] = append(f.reads[obj], id)
		}
		return true
	})
	return f
}

// Parents maps every node of a file to its syntactic parent, so
// analyzers can ask "what consumes this expression" — the escape and
// direct-return questions AST walking alone cannot answer.
type Parents map[ast.Node]ast.Node

// BuildParents indexes the parent of every node under root.
func BuildParents(root ast.Node) Parents {
	parents := make(Parents)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// onColdPath reports whether n sits on a cold abort path: its
// innermost statement is a return, or it feeds a panic argument.
// Hot-path functions construct their error returns and panic messages
// exactly once per failure, not once per call, so hotalloc leaves
// those sites alone. The climb stops at the first enclosing statement
// and never crosses into an enclosing function literal.
func (p Parents) onColdPath(info *types.Info, n ast.Node) bool {
	for cur := p[n]; cur != nil; cur = p[cur] {
		switch v := cur.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok {
				if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "panic" {
					return true
				}
			}
		case *ast.FuncLit:
			return false
		case ast.Stmt:
			return false
		}
	}
	return false
}

// funcScope returns the scope of a declared function, for locality
// tests.
func funcScope(info *types.Info, fn *ast.FuncDecl) *types.Scope {
	return info.Scopes[fn.Type]
}

// declaredIn reports whether obj's declaration scope is scope or any
// scope nested inside it.
func declaredIn(obj types.Object, scope *types.Scope) bool {
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

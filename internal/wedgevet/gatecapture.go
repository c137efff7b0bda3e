// gatecapture: closures handed to compartment creation must not couple
// to monitor state that changes after the handoff.
//
// A compartment entry (an sthread body, a callgate entry, a recycled
// worker function) starts running concurrently with the monitor the
// moment the creation call returns — and in the wedge simulation it is
// still a Go closure, so anything it captures is reachable from inside
// the compartment regardless of what the memory policy says. Three
// capture classes have bitten or would bite:
//
//   - loop variables: the closure's view of the iteration couples the
//     compartment to the monitor's loop progress (the shape of the PR 1
//     seed races);
//   - variables the monitor writes after the handoff — including the
//     creation call's own result (the exact PR 1 sshd bug: the worker
//     gate captured the `worker` handle variable that CreateNamed was
//     in the middle of assigning); the fix's shape, a once-blocking
//     accessor (sync.OnceValue), is what the analyzer accepts;
//   - privileged monitor state: a captured *rsa.PrivateKey bypasses the
//     entire isolation model — key material reaches a gate through its
//     kernel-held trusted address, never through the Go heap.

package wedgevet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GateCaptureAnalyzer is the gatecapture suite entry.
var GateCaptureAnalyzer = &Analyzer{
	Name: "gatecapture",
	Doc: "closures handed to sthread/gate/recycled-worker creation must not capture" +
		" loop variables, variables written after the handoff, or private keys",
	Run: runGateCapture,
}

// creationMethods maps compartment-creation call names to the index of
// their closure argument. Receiver types distinguish overlaps.
var creationMethods = map[string]int{
	"Create":         1, // (*sthread.Sthread).Create(sc, body, arg)
	"CreateNamed":    2, // (name, sc, body, arg)
	"CreateEmulated": 2,
	"NewRecycled":    2, // (name, gateSC, fn, trusted)
	"GateAdd":        0, // (*policy.SC).GateAdd(entry, gateSC, arg, name)
}

func runGateCapture(pass *Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		assigns := collectAssignments(pass, file)
		loops := collectLoopVars(pass, file)
		walkWithStack(file, func(n ast.Node, stack []ast.Node) {
			if lit, label, callEnd := captureSinkAt(pass, n); lit != nil {
				checkCapture(pass, lit, label, callEnd, stack, assigns, loops)
			}
		})
	}
	return nil
}

// captureSinkAt recognizes a compartment-creation site at n and returns
// the handed-off function literal (nil when the handed value is not a
// literal — method values and named funcs carry no ad-hoc captures), a
// diagnostic label for the creation API, and the position after which a
// monitor write races the compartment.
func captureSinkAt(pass *Pass, n ast.Node) (*ast.FuncLit, string, token.Pos) {
	switch n := n.(type) {
	case *ast.CallExpr:
		sel, ok := n.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil, "", 0
		}
		idx, ok := creationMethods[sel.Sel.Name]
		if !ok || idx >= len(n.Args) {
			return nil, "", 0
		}
		recv := pass.TypesInfo.Selections[sel]
		if recv == nil {
			return nil, "", 0
		}
		if sel.Sel.Name == "GateAdd" {
			if !isPolicySC(recv.Recv()) {
				return nil, "", 0
			}
		} else if !isSthreadPtr(recv.Recv()) {
			return nil, "", 0
		}
		return unwrapFuncLit(pass, n.Args[idx]), sel.Sel.Name, n.End()
	case *ast.CompositeLit:
		// policy.GateSpec{Entry: …} / gatepool.GateDef{Entry: …} or {Batch: …}
		tv, ok := pass.TypesInfo.Types[n]
		if !ok || !isEntryStruct(tv.Type) {
			return nil, "", 0
		}
		for _, elt := range n.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && (key.Name == "Entry" || key.Name == "Batch") {
				return unwrapFuncLit(pass, kv.Value), structName(tv.Type), n.End()
			}
		}
	}
	return nil, "", 0
}

// unwrapFuncLit digs a function literal out of type conversions like
// sthread.GateFunc(func(…){…}).
func unwrapFuncLit(pass *Pass, e ast.Expr) *ast.FuncLit {
	for {
		switch v := e.(type) {
		case *ast.FuncLit:
			return v
		case *ast.ParenExpr:
			e = v.X
		case *ast.CallExpr:
			if len(v.Args) == 1 && pass.TypesInfo.Types[v.Fun].IsType() {
				e = v.Args[0]
				continue
			}
			return nil
		default:
			return nil
		}
	}
}

// checkCapture inspects one handed-off closure's free variables.
func checkCapture(pass *Pass, lit *ast.FuncLit, label string, callEnd token.Pos,
	stack []ast.Node, assigns map[*types.Var][]token.Pos, loops map[*types.Var]ast.Node) {

	reported := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || reported[v] || !isCaptured(pass, v, lit) {
			return true
		}
		switch {
		case loops[v] != nil:
			reported[v] = true
			pass.Reportf(id.Pos(), "closure handed to %s captures loop variable %s; the compartment outlives the iteration", label, v.Name())
		case isPrivateKey(v.Type()):
			reported[v] = true
			pass.Reportf(id.Pos(), "closure handed to %s captures private key %s; key material reaches a gate only through its kernel-held trusted address", label, v.Name())
		case writtenAfterHandoff(v, callEnd, stack, assigns):
			reported[v] = true
			pass.Reportf(id.Pos(), "closure handed to %s captures %s, which the monitor writes after the handoff (closure-handoff race)", label, v.Name())
		}
		return true
	})
}

// isCaptured reports whether v is a free variable of lit: a function
// local (not package-level, not a field) declared outside the literal.
func isCaptured(pass *Pass, v *types.Var, lit *ast.FuncLit) bool {
	if v.IsField() || v.Pkg() != pass.Pkg {
		return false
	}
	if pass.Pkg.Scope().Lookup(v.Name()) == v {
		return false // package-level
	}
	return v.Pos() < lit.Pos() || v.Pos() > lit.End()
}

// writtenAfterHandoff reports whether v is assigned at a point that can
// execute after the creation call returns: textually after the call,
// by the statement containing the call itself (binding the call's own
// result), or anywhere inside a loop that also contains the call (the
// next iteration's write races the running compartment).
func writtenAfterHandoff(v *types.Var, callEnd token.Pos, stack []ast.Node, assigns map[*types.Var][]token.Pos) bool {
	var loop ast.Node
	for _, n := range stack {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loop = n
		}
	}
	for _, pos := range assigns[v] {
		if pos > callEnd {
			return true
		}
		if loop != nil && pos > loop.Pos() && pos < loop.End() && v.Pos() < loop.Pos() {
			return true
		}
		// The statement containing the creation call assigns v (the
		// PR 1 shape: worker, err := CreateNamed(..., closure, ...)).
		if containingStmt(stack, callEnd, pos) {
			return true
		}
	}
	return false
}

// containingStmt reports whether the assignment at pos is a left-hand
// side of the innermost assignment statement enclosing the creation
// call — the statement binding the call's own result, so the write
// lands after the compartment is already running.
func containingStmt(stack []ast.Node, callEnd token.Pos, assignPos token.Pos) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if as, ok := stack[i].(*ast.AssignStmt); ok {
			return assignPos >= as.Pos() && assignPos < as.TokPos
		}
	}
	return false
}

// collectAssignments maps each local variable to the positions of its
// writes (assignments, incdec, and range rebinds; the declaration
// itself does not count as a racing write).
func collectAssignments(pass *Pass, file *ast.File) map[*types.Var][]token.Pos {
	out := make(map[*types.Var][]token.Pos)
	record := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		if v, ok := obj.(*types.Var); ok {
			out[v] = append(out[v], id.Pos())
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				record(n.Key)
				record(n.Value)
			}
		}
		return true
	})
	return out
}

// collectLoopVars maps variables declared by for/range statements to
// their loop node.
func collectLoopVars(pass *Pass, file *ast.File) map[*types.Var]ast.Node {
	out := make(map[*types.Var]ast.Node)
	def := func(e ast.Expr, loop ast.Node) {
		if id, ok := e.(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
				out[v] = loop
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				def(n.Key, n)
				def(n.Value, n)
			}
		case *ast.ForStmt:
			if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, lhs := range init.Lhs {
					def(lhs, n)
				}
			}
		}
		return true
	})
	return out
}

// walkWithStack traverses file keeping the ancestor chain.
func walkWithStack(file *ast.File, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

// ---- type tests -------------------------------------------------------------

// isPolicySC reports whether t is *policy.SC.
func isPolicySC(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "SC" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/policy")
}

// isEntryStruct reports whether t is policy.GateSpec or gatepool.GateDef.
func isEntryStruct(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return (obj.Name() == "GateSpec" && strings.HasSuffix(path, "internal/policy")) ||
		(obj.Name() == "GateDef" && strings.HasSuffix(path, "internal/gatepool"))
}

func structName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// isPrivateKey reports whether t is rsa.PrivateKey or *rsa.PrivateKey.
func isPrivateKey(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "PrivateKey" && obj.Pkg() != nil && obj.Pkg().Path() == "crypto/rsa"
}

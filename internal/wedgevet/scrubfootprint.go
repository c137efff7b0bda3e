// scrubfootprint: every gateabi field a pool's gates use belongs to the
// schema the pool registered — the schema whose Size() is the
// inter-principal scrub footprint.
//
// The pool scrubs exactly Schema.Size() bytes of each slot's argument
// block between principals (PR 4's residue probes witness this at
// runtime for the fields the probes know about). A gate entry that
// reads or writes the block through a handle from a *different* builder
// is using memory the scrub never touches: a layout drift between two
// schemas silently re-opens the §3.3 residue leak. This analyzer closes
// the loop statically:
//
//   - at every registration site (serve.App and gatepool.Config
//     composite literals with a Schema field), the registered schema is
//     resolved to its builder;
//   - every gate entry reachable from the site — method values, named
//     functions, inline literals, plus their same-package callees — is
//     checked: each handle applied to an argument-block address must
//     come from the registered builder;
//   - schema identities and per-function handle footprints travel
//     across package boundaries as facts, so an app registering a
//     schema defined elsewhere is checked at the registration site;
//   - a hand-rolled handle composite literal (gateabi.WordField{…} and
//     kin) outside gateabi itself is flagged unconditionally: a handle
//     the builder did not mint has no schema, so no scrub covers it;
//   - the batched dataplane extends the layout one dimension: a ring
//     entry's footprint is the schema footprint at index×Size. An
//     argument-block address combined with a scaled (multiplication-
//     containing) offset is a hand-stepped ring address — geometry that
//     belongs to sthread.BatchRing (EntryAddr/HdrAddr) and the gateabi
//     handles, so the expression is flagged outside internal/sthread.
//
// Handle uses on non-arg addresses (session regions, trusted blobs) are
// deliberately out of scope: those regions are not scrubbed by the pool
// and their layout is the owning code's business. Constant-stride
// arithmetic without a multiplication (the residue probes' neighbour
// reads) is likewise left to gateargs where audited: only scaled
// stepping marks ring-geometry knowledge.

package wedgevet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// SchemaFact records, on a package-level schema variable or a
// zero-argument accessor function, which builder sealed the schema.
// The builder identity doubles as the schema's display name.
type SchemaFact struct {
	Builder string
}

func (*SchemaFact) AFact() {}

// SchemaUseFact records, on a function, the builders whose handles the
// function (transitively, within its package) applies to argument-block
// addresses, and the individual field operations ("r arg:<schema>.<field>"
// / "w arg:<schema>.<field>") — the per-gate permission set the model
// emitter serializes.
type SchemaUseFact struct {
	Builders []string
	Ops      []string
}

func (*SchemaUseFact) AFact() {}

func init() {
	RegisterFact(&SchemaFact{})
	RegisterFact(&SchemaUseFact{})
}

// ScrubFootprintAnalyzer is the scrubfootprint suite entry.
var ScrubFootprintAnalyzer = &Analyzer{
	Name: "scrubfootprint",
	Doc: "every gateabi field handle a pool's gates apply to the argument block must" +
		" belong to the schema the pool registered (the scrub footprint);" +
		" hand-stepped ring-entry addresses (arg ± index×size) outside sthread are flagged",
	Run: runScrubFootprint,
}

// builderFuncs are gateabi's handle-minting functions, keyed by name.
var builderFuncs = map[string]bool{
	"Word": true, "U64": true, "Bytes": true, "String": true,
	"Fixed": true, "ConnID": true, "FD": true,
}

// handleTypes are gateabi's handle struct types; a composite literal of
// one outside gateabi is a hand-rolled handle.
var handleTypes = map[string]bool{
	"WordField": true, "BytesField": true, "StringField": true, "FixedField": true,
}

// readMethods and writeMethods classify handle accessors for the model
// emitter's permission direction.
var (
	readMethods  = map[string]bool{"Load": true, "LoadMax": true, "Bytes": true, "Read": true}
	writeMethods = map[string]bool{"Store": true, "StoreMax": true, "StoreTrunc": true, "Write": true}
)

// schemaWorld is one package's view of builders, handles, schemas, and
// per-function footprints.
type schemaWorld struct {
	pass     *Pass
	builders map[types.Object]string // builder var -> builder id (schema name)
	handles  map[types.Object]string // handle var -> builder id
	fields   map[types.Object]string // handle var -> field name
	schemas  map[types.Object]string // sealed-schema var / accessor func -> builder id
	uses     map[types.Object][]string
	ops      map[types.Object][]string // "r arg:<schema>.<field>" / "w …"
	edges    map[types.Object][]types.Object
	funcs    map[types.Object]*ast.FuncDecl
}

func newSchemaWorld(pass *Pass) *schemaWorld {
	return &schemaWorld{
		pass:     pass,
		builders: make(map[types.Object]string),
		handles:  make(map[types.Object]string),
		fields:   make(map[types.Object]string),
		schemas:  make(map[types.Object]string),
		uses:     make(map[types.Object][]string),
		ops:      make(map[types.Object][]string),
		edges:    make(map[types.Object][]types.Object),
		funcs:    make(map[types.Object]*ast.FuncDecl),
	}
}

// collect builds the package's schema world from its non-test files and
// exports the resulting facts.
func (w *schemaWorld) collect(files []*ast.File) {
	// Two sweeps: builders bind before the handles and seals that
	// reference them, regardless of file order.
	for _, f := range files {
		w.collectBuilders(f)
	}
	for _, f := range files {
		w.collectHandlesAndSchemas(f)
	}
	for _, f := range files {
		w.collectFootprints(f)
	}
	w.exportFacts()
}

func runScrubFootprint(pass *Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/gateabi") {
		return nil // gateabi mints handles; its internals are the exemption
	}
	w := newSchemaWorld(pass)
	files := make([]*ast.File, 0, len(pass.Files))
	for _, f := range pass.Files {
		if !isTestFile(pass, f) {
			files = append(files, f)
		}
	}
	w.collect(files)
	ringOwner := strings.HasSuffix(pass.Pkg.Path(), "internal/sthread")
	for _, f := range files {
		w.flagHandRolledHandles(f)
		w.checkRegistrations(f)
		if !ringOwner {
			w.flagRingOffsets(f)
		}
	}
	return nil
}

// flagRingOffsets reports hand-stepped ring-entry addresses: an
// argument-block address combined (±) with an offset whose expression
// contains a multiplication. The batched ring places entry i of a slot
// at base + i×entrySize; code outside internal/sthread that rebuilds
// that product from an arg address has duplicated the ring geometry,
// and a drift between its copy and BatchRing's (header growth, stride
// rounding) silently lands reads or scrubs on a neighbouring
// principal's entry. Constant-stride arithmetic without a
// multiplication stays legal here — the servetest residue probes step
// one fixed stride on purpose — so only scaled stepping flags.
func (w *schemaWorld) flagRingOffsets(file *ast.File) {
	forEachFunc(file, func(fn funcNode) {
		tainted := argBlockParams(w.pass, fn)
		if len(tainted) == 0 {
			return
		}
		propagateTaint(w.pass, fn, tainted)
		ast.Inspect(fn.body, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.ADD && be.Op != token.SUB) {
				return true
			}
			tv, ok := w.pass.TypesInfo.Types[be]
			if !ok || !isVMAddr(tv.Type) {
				return true
			}
			var off ast.Expr
			switch {
			case mentionsTainted(w.pass, be.X, tainted):
				off = be.Y
			case mentionsTainted(w.pass, be.Y, tainted):
				off = be.X
			default:
				return true
			}
			if containsMul(off) {
				w.pass.Reportf(be.Pos(), "hand-computed ring entry address (argument-block address plus a scaled offset); ring geometry belongs to sthread.BatchRing and the gateabi handles")
				return false // the inner product is the same finding
			}
			return true
		})
	})
}

// containsMul reports whether e's subtree contains a multiplication.
func containsMul(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok && be.Op == token.MUL {
			found = true
		}
		return !found
	})
	return found
}

// eachInit visits every name = value binding in the file, at package
// level and inside function bodies.
func eachInit(file *ast.File, visit func(name *ast.Ident, value ast.Expr)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if i < len(n.Values) {
					visit(id, n.Values[i])
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					visit(id, n.Rhs[i])
				}
			}
		}
		return true
	})
}

func (w *schemaWorld) defObj(id *ast.Ident) types.Object {
	if obj := w.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return w.pass.TypesInfo.Uses[id]
}

// gateabiCall returns the gateabi function name called by e ("NewSchema",
// "U64", "Seal", …) and the call, or "" when e is not a gateabi call.
// Generic instantiations (gateabi.Word[uint32]) unwrap.
func gateabiCall(pass *Pass, e ast.Expr) (string, *ast.CallExpr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", nil
	}
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ast.Unparen(ix.X)
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/gateabi") {
		return "", nil
	}
	return fn.Name(), call
}

func (w *schemaWorld) collectBuilders(file *ast.File) {
	eachInit(file, func(id *ast.Ident, value ast.Expr) {
		name, call := gateabiCall(w.pass, value)
		if name != "NewSchema" {
			return
		}
		obj := w.defObj(id)
		if obj == nil {
			return
		}
		builder := w.pass.Pkg.Path() + "." + id.Name
		if len(call.Args) == 1 {
			if lit, ok := call.Args[0].(*ast.BasicLit); ok {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					builder = s // the schema's declared name
				}
			}
		}
		w.builders[obj] = builder
	})
}

// builderOf resolves an expression naming a builder variable.
func (w *schemaWorld) builderOf(e ast.Expr) (string, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return "", false
	}
	obj := w.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = w.pass.TypesInfo.Defs[id]
	}
	b, ok := w.builders[obj]
	return b, ok
}

func (w *schemaWorld) collectHandlesAndSchemas(file *ast.File) {
	eachInit(file, func(id *ast.Ident, value ast.Expr) {
		name, call := gateabiCall(w.pass, value)
		switch {
		case builderFuncs[name] && len(call.Args) > 0:
			if b, ok := w.builderOf(call.Args[0]); ok {
				if obj := w.defObj(id); obj != nil {
					w.handles[obj] = b
					w.fields[obj] = fieldName(name, call)
				}
			}
		case name == "Seal":
			sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if b, ok := w.builderOf(sel.X); ok {
				if obj := w.defObj(id); obj != nil {
					w.schemas[obj] = b
				}
			}
		}
	})
	// Accessor functions: a body that just returns a known schema var.
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || len(fd.Body.List) != 1 {
			continue
		}
		ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			continue
		}
		retID, ok := ast.Unparen(ret.Results[0]).(*ast.Ident)
		if !ok {
			continue
		}
		if b, ok := w.schemas[w.pass.TypesInfo.Uses[retID]]; ok {
			if obj := w.pass.TypesInfo.Defs[fd.Name]; obj != nil {
				w.schemas[obj] = b
			}
		}
	}
}

// fieldName recovers the schema field name a minting call declares. The
// demux words carry the reserved names gateabi places for them.
func fieldName(mintFunc string, call *ast.CallExpr) string {
	switch mintFunc {
	case "ConnID":
		return "__conn_id"
	case "FD":
		return "__fd"
	}
	if len(call.Args) > 1 {
		if lit, ok := call.Args[1].(*ast.BasicLit); ok {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				return s
			}
		}
	}
	return "?"
}

// flagHandRolledHandles reports composite literals of gateabi handle
// types: a handle not minted by a builder belongs to no schema, so no
// scrub footprint accounts for it.
func (w *schemaWorld) flagHandRolledHandles(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		tv, ok := w.pass.TypesInfo.Types[lit]
		if !ok {
			return true
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			return true
		}
		obj := named.Obj()
		if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/gateabi") || !handleTypes[obj.Name()] {
			return true
		}
		w.pass.Reportf(lit.Pos(), "hand-rolled gateabi.%s literal; handles come from schema builders, or the scrub footprint cannot account for them", obj.Name())
		return true
	})
}

// collectFootprints computes, for every declared function, the builders
// whose handles it applies to argument-block addresses (nested literals
// attribute to the declaration that runs them), and its same-package
// static callees.
func (w *schemaWorld) collectFootprints(file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		obj := w.pass.TypesInfo.Defs[fd.Name]
		if obj == nil {
			continue
		}
		w.funcs[obj] = fd
		set := make(map[string]bool)
		opSet := make(map[string]bool)
		forEachFunc(wrapDecl(fd), func(fn funcNode) {
			tainted := argBlockParams(w.pass, fn)
			if len(tainted) > 0 {
				propagateTaint(w.pass, fn, tainted)
				w.handleUsesOn(fn.body, tainted, set, opSet)
			}
		})
		for b := range set {
			w.uses[obj] = append(w.uses[obj], b)
		}
		sort.Strings(w.uses[obj])
		for op := range opSet {
			w.ops[obj] = append(w.ops[obj], op)
		}
		sort.Strings(w.ops[obj])
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := staticCallee(w.pass, call); callee != nil && callee.Pkg() == w.pass.Pkg {
				w.edges[obj] = append(w.edges[obj], callee)
			}
			return true
		})
	}
}

// wrapDecl lets forEachFunc walk a single declaration.
func wrapDecl(fd *ast.FuncDecl) *ast.File {
	return &ast.File{Name: ast.NewIdent("_"), Decls: []ast.Decl{fd}}
}

// handleUsesOn records the builders of handles whose methods are called
// with an argument mentioning a tainted (argument-block) address, and
// the direction-classified field operations.
func (w *schemaWorld) handleUsesOn(body *ast.BlockStmt, tainted map[*types.Var]bool, out, ops map[string]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recvID, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		recvObj := w.pass.TypesInfo.Uses[recvID]
		builder, ok := w.handles[recvObj]
		if !ok {
			return true
		}
		for _, a := range call.Args {
			if mentionsTainted(w.pass, a, tainted) {
				out[builder] = true
				item := "arg:" + builder + "." + w.fields[recvObj]
				if readMethods[sel.Sel.Name] {
					ops["r "+item] = true
				}
				if writeMethods[sel.Sel.Name] {
					ops["w "+item] = true
				}
				return true
			}
		}
		return true
	})
}

// staticCallee resolves a call to its statically-known function object.
func staticCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// footprintOf returns the transitive arg-block handle footprint of fn —
// the builders used and the field operations performed — from its own
// uses plus those of every same-package function it reaches. Imported
// functions contribute through their SchemaUseFact.
func (w *schemaWorld) footprintOf(fn types.Object) (builders, ops []string) {
	seen := map[types.Object]bool{}
	bset := map[string]bool{}
	oset := map[string]bool{}
	var visit func(o types.Object)
	visit = func(o types.Object) {
		if o == nil || seen[o] {
			return
		}
		seen[o] = true
		if o.Pkg() != w.pass.Pkg {
			var fact SchemaUseFact
			if w.pass.ImportObjectFact(o, &fact) {
				for _, b := range fact.Builders {
					bset[b] = true
				}
				for _, op := range fact.Ops {
					oset[op] = true
				}
			}
			return
		}
		for _, b := range w.uses[o] {
			bset[b] = true
		}
		for _, op := range w.ops[o] {
			oset[op] = true
		}
		for _, callee := range w.edges[o] {
			visit(callee)
		}
	}
	visit(fn)
	return sortedSet(bset), sortedSet(oset)
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// exportFacts publishes schema identities and per-function footprints
// for dependent packages.
func (w *schemaWorld) exportFacts() {
	scope := w.pass.Pkg.Scope()
	for obj, b := range w.schemas {
		if scope.Lookup(obj.Name()) == obj {
			w.pass.ExportObjectFact(obj, &SchemaFact{Builder: b})
		}
	}
	// Functions and methods both (gate entries are usually methods, not
	// in the package scope; the fact key is object name either way).
	for obj := range w.funcs {
		if builders, ops := w.footprintOf(obj); len(builders) > 0 {
			w.pass.ExportObjectFact(obj, &SchemaUseFact{Builders: builders, Ops: ops})
		}
	}
}

// checkRegistrations finds serve.App / gatepool.Config composite
// literals and verifies every gate entry's (and worker Batch
// body's) footprint against the registered schema.
func (w *schemaWorld) checkRegistrations(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || !isRegistrationStruct(w.pass, lit) {
			return true
		}
		var schemaExpr ast.Expr
		var gates []ast.Expr
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			switch key.Name {
			case "Schema":
				schemaExpr = kv.Value
			case "Gates":
				if gl, ok := ast.Unparen(kv.Value).(*ast.CompositeLit); ok {
					gates = gl.Elts
				}
			}
		}
		if schemaExpr == nil {
			return true
		}
		registered, ok := w.resolveSchema(schemaExpr)
		if !ok {
			return true
		}
		for _, g := range gates {
			gd, ok := ast.Unparen(g).(*ast.CompositeLit)
			if !ok {
				continue
			}
			for _, elt := range gd.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Entry" && key.Name != "Batch" {
					continue
				}
				usedBuilders, _ := w.entryFootprint(kv.Value)
				for _, used := range usedBuilders {
					if used != registered {
						w.pass.Reportf(kv.Value.Pos(),
							"gate entry uses fields of schema %q but the pool registers schema %q; those fields are outside the scrub footprint",
							used, registered)
					}
				}
			}
		}
		return true
	})
}

// isRegistrationStruct matches serve.App[T] and gatepool.Config
// composite literals.
func isRegistrationStruct(pass *Pass, lit *ast.CompositeLit) bool {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	switch obj.Name() {
	case "App":
		return strings.HasSuffix(path, "internal/serve")
	case "Config":
		return strings.HasSuffix(path, "internal/gatepool")
	}
	return false
}

// resolveSchema maps a Schema field value to its builder: a sealed
// schema variable, an accessor call, an inline b.Seal(), or an imported
// object carrying a SchemaFact.
func (w *schemaWorld) resolveSchema(e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	if name, call := gateabiCall(w.pass, e); name == "Seal" {
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		return w.builderOf(sel.X)
	}
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = w.pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		obj = w.pass.TypesInfo.Uses[e.Sel]
	case *ast.CallExpr:
		obj = staticCallee(w.pass, e)
	}
	if obj == nil {
		return "", false
	}
	if b, ok := w.schemas[obj]; ok {
		return b, true
	}
	var fact SchemaFact
	if w.pass.ImportObjectFact(obj, &fact) {
		return fact.Builder, true
	}
	return "", false
}

// entryFootprint resolves a GateDef Entry value to its arg-block handle
// footprint: builders used and field operations performed.
func (w *schemaWorld) entryFootprint(e ast.Expr) (builders, ops []string) {
	if lit := unwrapFuncLit(w.pass, e); lit != nil {
		fn := funcNode{node: lit, ftype: lit.Type, body: lit.Body}
		bset := make(map[string]bool)
		oset := make(map[string]bool)
		tainted := argBlockParams(w.pass, fn)
		if len(tainted) > 0 {
			propagateTaint(w.pass, fn, tainted)
			w.handleUsesOn(fn.body, tainted, bset, oset)
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := staticCallee(w.pass, call); callee != nil && callee.Pkg() == w.pass.Pkg {
					cb, co := w.footprintOf(callee)
					for _, b := range cb {
						bset[b] = true
					}
					for _, op := range co {
						oset[op] = true
					}
				}
			}
			return true
		})
		return sortedSet(bset), sortedSet(oset)
	}
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = w.pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		obj = w.pass.TypesInfo.Uses[e.Sel]
	}
	if obj == nil {
		return nil, nil
	}
	if obj.Pkg() != w.pass.Pkg {
		var fact SchemaUseFact
		if w.pass.ImportObjectFact(obj, &fact) {
			return fact.Builders, fact.Ops
		}
		return nil, nil
	}
	return w.footprintOf(obj)
}

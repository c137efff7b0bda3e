// The model emitter: `wedgevet model` derives per-gate permission sets
// from source and serializes them in crowbar's model-file format, so
// cbstatic can diff the static superset against what dynamic traces
// justify (§7: "static analysis will yield a superset of the required
// permissions").
//
// The emitted model names each registration site's app and gates:
//
//	call <app> <gate>              — the pool can invoke the gate
//	read <gate> arg:<schema>.<field>
//	write <gate> arg:<schema>.<field>
//
// Items are schema fields, the same vocabulary the scrub footprint is
// measured in; the gate's read/write sets are the transitive closure of
// gateabi handle operations on argument-block addresses, computed by
// the same machinery the scrubfootprint analyzer checks with.
//
// Packages load through `go list -deps -export -json`: the toolchain
// supplies dependency export data and topological order, so module
// packages type-check exactly as the compiler saw them, and facts flow
// dependencies-first like under go vet.

package wedgevet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"wedge/internal/crowbar"
)

// ModelMain is the `wedgevet model` entry point.
func ModelMain(args []string) {
	fs := flag.NewFlagSet("wedgevet model", flag.ExitOnError)
	out := fs.String("o", "", "write the model to this file (default stdout)")
	fs.Parse(args)
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := BuildModel(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wedgevet model:", err)
		os.Exit(1)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wedgevet model:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := crowbar.WriteModel(prog, w); err != nil {
		fmt.Fprintln(os.Stderr, "wedgevet model:", err)
		os.Exit(1)
	}
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// BuildModel loads the packages matching patterns (plus dependencies)
// and returns the statically-derived permission model for every gate
// registration site in the matched packages.
func BuildModel(patterns []string) (*crowbar.StaticProgram, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly", "--"}, patterns...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outData, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.String())
	}

	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(outData))
	exports := make(map[string]string)
	for dec.More() {
		var lp listPkg
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		exports[lp.ImportPath] = lp.Export
		pkgs = append(pkgs, lp)
	}

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	store := newFactStore()
	prog := crowbar.NewStaticProgram()

	// go list -deps emits dependencies before dependents, so each
	// package's imports (and their facts) are ready when it loads.
	for _, lp := range pkgs {
		if lp.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, lp.Dir+string(os.PathSeparator)+name, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := newTypesInfo()
		tc := &types.Config{Importer: unsafeAware{gc}}
		pkg, err := tc.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typechecking %s: %w", lp.ImportPath, err)
		}
		pass := &Pass{
			Analyzer:  ScrubFootprintAnalyzer,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			facts:     store,
			report:    func(Diagnostic) {},
		}
		w := newSchemaWorld(pass)
		w.collect(files)
		if !lp.DepOnly {
			for _, f := range files {
				w.emitModel(prog, f)
			}
		}
	}
	return prog, nil
}

// unsafeAware wraps an export-data importer with the "unsafe" special
// case.
type unsafeAware struct {
	next types.Importer
}

func (u unsafeAware) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return u.next.Import(path)
}

// emitModel writes one file's registration sites into the model.
func (w *schemaWorld) emitModel(prog *crowbar.StaticProgram, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || !isRegistrationStruct(w.pass, lit) {
			return true
		}
		app := w.pass.Pkg.Name()
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
			case "Name":
				if s, ok := stringLit(kv.Value); ok {
					app = s
				}
			case "Gates":
				if gl, ok := ast.Unparen(kv.Value).(*ast.CompositeLit); ok {
					gates = gl.Elts
				}
			}
		}
		for _, g := range gates {
			gd, ok := ast.Unparen(g).(*ast.CompositeLit)
			if !ok {
				continue
			}
			var name string
			var entry ast.Expr
			for _, elt := range gd.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				switch key.Name {
				case "Name":
					if s, ok := stringLit(kv.Value); ok {
						name = s
					}
				case "Entry", "Batch":
					entry = kv.Value
				}
			}
			if entry == nil {
				continue
			}
			if name == "" {
				name = entryName(w.pass, entry)
			}
			gate := app + "/" + name
			prog.Func(app).Call(gate)
			_, ops := w.entryFootprint(entry)
			for _, op := range ops {
				kind, item, found := strings.Cut(op, " ")
				if !found {
					continue
				}
				switch kind {
				case "r":
					prog.Func(gate).Read(item)
				case "w":
					prog.Func(gate).Write(item)
				}
			}
		}
		return true
	})
}

// stringLit unquotes a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// entryName labels an anonymous gate by its entry expression.
func entryName(pass *Pass, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return "anon"
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant checker. The shape deliberately mirrors
// golang.org/x/tools/go/analysis (Name/Doc/Run over a Pass) so the suite
// could migrate to the upstream framework wholesale if the dependency ever
// becomes available; the container this repo builds in has no module
// proxy, so the driver underneath is the stdlib-only loader in load.go.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ignore
	// directives.
	Name string
	// Doc is the contract the analyzer enforces, first line short.
	Doc string
	// Run inspects one package and reports violations via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path, used by analyzers that scope
	// themselves to the repo's contract-bearing packages. Fixture tests
	// present testdata packages under the production paths.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records one violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers applies the analyzers to one loaded package and returns the
// surviving diagnostics: //lint:ignore directives with a reason suppress
// matching diagnostics on their own or the following line, and malformed
// (un-reasoned) directives are themselves diagnostics — an ignore that
// does not say why is a contract violation, not an escape.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Path:     pkg.ImportPath,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	dirs, bad := collectDirectives(pkg.Fset, pkg.Files)
	kept := diags[:0]
	for _, d := range diags {
		if !suppressed(d, dirs) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, bad...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}

// inScope reports whether path is one of the given package paths.
func inScope(path string, scopes []string) bool {
	for _, s := range scopes {
		if path == s {
			return true
		}
	}
	return false
}

// calleeFunc resolves the static callee of a call, or nil for calls
// through function values and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// recvNamed returns the defining package path and type name of a method's
// receiver ("" , "" for package-level functions), looking through pointers.
func recvNamed(fn *types.Func) (pkgPath, typeName string) {
	if fn == nil {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	if named.Obj().Pkg() == nil {
		return "", named.Obj().Name()
	}
	return named.Obj().Pkg().Path(), named.Obj().Name()
}

// methodHasErrorResult reports whether the callee's (sole or last) result
// is an error.
func methodHasErrorResult(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// implementsWriter reports whether t (or *t) satisfies io.Writer — used to
// decide that an unchecked Close/Flush can lose buffered data.
func implementsWriter(t types.Type) bool {
	w := writerInterface()
	if types.Implements(t, w) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), w)
	}
	return false
}

var writerIface *types.Interface

// writerInterface builds the io.Writer interface shape structurally, so
// the check does not require the io package's type object to be loaded.
func writerInterface() *types.Interface {
	if writerIface != nil {
		return writerIface
	}
	byteSlice := types.NewSlice(types.Typ[types.Byte])
	params := types.NewTuple(types.NewVar(token.NoPos, nil, "p", byteSlice))
	results := types.NewTuple(
		types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
		types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type()),
	)
	sig := types.NewSignatureType(nil, nil, nil, params, results, false)
	fn := types.NewFunc(token.NoPos, nil, "Write", sig)
	writerIface = types.NewInterfaceType([]*types.Func{fn}, nil)
	writerIface.Complete()
	return writerIface
}

// usesObject reports whether any identifier inside node resolves to obj.
func usesObject(info *types.Info, node ast.Node, obj types.Object) bool {
	if obj == nil || node == nil {
		return false
	}
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// declaredOutside reports whether obj's declaration lies outside node.
func declaredOutside(obj types.Object, node ast.Node) bool {
	if obj == nil || obj.Pos() == token.NoPos {
		return false
	}
	return obj.Pos() < node.Pos() || obj.Pos() >= node.End()
}

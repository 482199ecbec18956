package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// responseWriterPaths scope the streaming-handler rule: the packages whose
// HTTP handlers stream NDJSON/proxied bodies or metric expositions row by
// row.
var responseWriterPaths = []string{
	"odeproto/internal/service",
	"odeproto/internal/cluster",
	"odeproto/internal/obs",
}

// AnalyzerClosecheck flags dropped errors on the calls where "it worked"
// is only knowable from the return value:
//
//   - Close and Sync on writable files (*os.File not provably opened
//     read-only in the same function): the kernel may defer the actual
//     write to Close/Sync, so a dropped error silently loses data the WAL
//     or blob store just promised was durable;
//   - Close and Flush on writers (types satisfying io.Writer with an
//     error-returning Close/Flush, e.g. a bufio.Writer or gzip.Writer):
//     the final buffer flush happens inside the dropped call;
//   - Close on store result handles (variables assigned from an OpenResult
//     or GetResultReader call): the handle is an interface over an open fd
//     per in-flight read, and the backend behind it is free to verify or
//     release on Close — a bare Close hides whether the leak-free contract
//     of the read path was considered. A handle the function neither closes
//     nor hands on (passes, returns, stores) is reported as leaked;
//   - http.ResponseWriter writes inside loops in the streaming packages:
//     a stream loop that ignores write errors keeps simulating rows for a
//     client that hung up.
//
// Assigning the error to _ is accepted: it is the explicit, reviewable
// statement that the error is considered and discarded (error-path
// cleanup closes, where the first error already owns the return).
var AnalyzerClosecheck = &Analyzer{
	Name: "closecheck",
	Doc: `forbid unchecked Close/Sync/Flush on writable files and unchecked streamed writes

Flags expression-statement and deferred calls whose dropped error is the
only signal that buffered or cached data actually reached its
destination. Explicitly discarding with "_ =" is the accepted idiom for
error-path cleanup.`,
	Run: runClosecheck,
}

func runClosecheck(pass *Pass) error {
	checkRW := inScope(pass.Path, responseWriterPaths)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			readOnly := readOnlyFiles(pass, fd)
			readers := readerHandles(pass, fd)
			checkLeakedHandles(pass, fd, readers)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var call *ast.CallExpr
				switch n := n.(type) {
				case *ast.ExprStmt:
					call, _ = n.X.(*ast.CallExpr)
				case *ast.DeferStmt:
					call = n.Call
				case *ast.GoStmt:
					return true
				}
				if call != nil {
					checkDroppedError(pass, call, readOnly, readers)
				}
				if checkRW {
					checkStreamLoop(pass, n)
				}
				return true
			})
		}
	}
	return nil
}

// checkDroppedError flags one statement-position call if it is a
// Close/Sync/Flush whose error matters.
func checkDroppedError(pass *Pass, call *ast.CallExpr, readOnly map[types.Object]bool, readers map[types.Object]string) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || !methodHasErrorResult(fn) {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkgPath, typeName := recvNamed(fn)
	isOSFile := pkgPath == "os" && typeName == "File"
	switch fn.Name() {
	case "Sync":
		if isOSFile {
			pass.Reportf(call.Pos(), "unchecked error from (*os.File).Sync: the fsync result is the durability guarantee itself")
		}
	case "Close":
		if isOSFile {
			if obj := receiverObject(pass, sel.X); obj != nil && readOnly[obj] {
				return // closing a read-only handle cannot lose data
			}
			pass.Reportf(call.Pos(), "unchecked error from (*os.File).Close on a writable file: the kernel may surface the final write failure here; check it (or assign to _ with intent on error-cleanup paths)")
			return
		}
		if obj := receiverObject(pass, sel.X); obj != nil && readers[obj] != "" {
			pass.Reportf(call.Pos(), "unchecked error from Close on a store result-reader handle: the reader holds an open fd per in-flight response; check it, or assign to _ to record that the discard is intentional")
			return
		}
		if tv, ok := pass.Info.Types[sel.X]; ok && implementsWriter(tv.Type) {
			pass.Reportf(call.Pos(), "unchecked error from Close on a writer (%s): the final buffer flush happens inside Close", tv.Type.String())
		}
	case "Flush":
		if tv, ok := pass.Info.Types[sel.X]; ok && implementsWriter(tv.Type) {
			pass.Reportf(call.Pos(), "unchecked error from Flush on a writer (%s): buffered data may never have reached the destination", tv.Type.String())
		}
	}
}

// receiverObject resolves a method receiver expression to the variable it
// names (plain identifiers only; selectors and calls return nil).
func receiverObject(pass *Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return pass.Info.Defs[id]
}

// readOnlyFiles scans a function for `f, err := os.Open(...)` assignments:
// those files are provably read-only, and closing them cannot lose data.
// Files of unknown provenance (fields, parameters, os.Create/OpenFile)
// stay in the writable set — the conservative direction for a durability
// lint.
func readOnlyFiles(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if !isPkgFunc(fn, "os", "Open") {
			return true
		}
		if len(as.Lhs) > 0 {
			if obj := receiverObject(pass, as.Lhs[0]); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// resultReaders are the store calls whose handles closecheck tracks: the
// one result accessor, and the wrapper over it the benchmark probe calls.
var resultReaders = map[string]bool{"OpenResult": true, "GetResultReader": true}

// readerHandles scans a function for assignments whose right-hand side is
// a call to a method or function named in resultReaders, and maps each
// handle it assigns to the call's name. The handles are open blobs the
// caller owns, and their Close is held to the same explicit-discard rule
// as writable files (the name-based match mirrors readOnlyFiles: local
// assignments only, the conservative direction for handles of unknown
// provenance).
func readerHandles(pass *Pass, fd *ast.FuncDecl) map[types.Object]string {
	out := map[types.Object]string{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || !resultReaders[fn.Name()] {
			return true
		}
		if len(as.Lhs) > 0 {
			if obj := receiverObject(pass, as.Lhs[0]); obj != nil {
				out[obj] = fn.Name()
			}
		}
		return true
	})
	return out
}

// checkLeakedHandles flags the result handles fd leaks: no Close call names
// the handle, and it never leaves the function — as an argument, a result,
// a stored or compared value — for something else to close. Only method
// calls on it and assignments to it keep it here.
func checkLeakedHandles(pass *Pass, fd *ast.FuncDecl, readers map[types.Object]string) {
	if len(readers) == 0 {
		return
	}
	kept := map[*ast.Ident]bool{} // receivers of a method call, left sides of an assignment
	handed := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				kept[id] = true
				if obj := pass.Info.Uses[id]; n.Sel.Name == "Close" && readers[obj] != "" {
					handed[obj] = true
				}
			}
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					kept[id] = true
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !kept[id] {
			if obj := pass.Info.Uses[id]; readers[obj] != "" {
				handed[obj] = true
			}
		}
		return true
	})
	var leaked []types.Object
	for obj := range readers {
		if !handed[obj] {
			leaked = append(leaked, obj)
		}
	}
	sort.Slice(leaked, func(i, j int) bool { return leaked[i].Pos() < leaked[j].Pos() })
	for _, obj := range leaked {
		pass.Reportf(obj.Pos(), "store result handle %s from %s is never closed: it holds an open fd; close it, or hand it on", obj.Name(), readers[obj])
	}
}

// checkStreamLoop flags unchecked http.ResponseWriter writes inside for
// loops — the streaming-handler shape where a dropped error keeps the
// loop producing rows for a dead client.
func checkStreamLoop(pass *Pass, n ast.Node) {
	var body *ast.BlockStmt
	switch n := n.(type) {
	case *ast.ForStmt:
		body = n.Body
	case *ast.RangeStmt:
		body = n.Body
	default:
		return
	}
	for _, stmt := range body.List {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		if respWriterWrite(pass, call) {
			pass.Reportf(call.Pos(), "unchecked http.ResponseWriter write inside a streaming loop: a client hang-up surfaces here, and ignoring it keeps the loop streaming to a dead connection")
		}
	}
}

// respWriterWrite reports whether call writes to an http.ResponseWriter:
// w.Write(...) on the interface, or fmt.Fprint*(w, ...).
func respWriterWrite(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Fprint", "Fprintf", "Fprintln":
			return len(call.Args) > 0 && isResponseWriter(pass, call.Args[0])
		}
		return false
	}
	if fn.Name() != "Write" && fn.Name() != "WriteString" {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && isResponseWriter(pass, sel.X)
}

// isResponseWriter reports whether e's static type is net/http's
// ResponseWriter interface.
func isResponseWriter(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == "ResponseWriter"
}

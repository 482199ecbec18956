package lint

import (
	"go/ast"
	"go/token"
)

// fsyncorderPaths are the packages that own the durability ordering: the
// WAL/blob store itself and the service layer that journals against it.
var fsyncorderPaths = []string{
	"odeproto/internal/store",
	"odeproto/internal/service",
}

// AnalyzerFsyncorder enforces the crash-safety ordering contracts:
//
//  1. within a function, file writes must not reach an os.Rename without
//     an intervening Sync — rename-into-place publishes the file's name,
//     and a crash after the rename but before the data hits disk leaves a
//     durable name pointing at torn contents;
//  2. a function that builds a job's uncached "done" record — a record
//     literal with Op: OpDone, or an assignment of OpDone to a record's Op
//     — must have persisted the result blob (PutResult) first: the WAL
//     must never claim a result the disk does not hold. A function with
//     no PutResult at all is no exception, so a second done-site cannot
//     pass by leaving the blob write out. Records marked Cached: true are
//     exempt: they describe a blob that was already durable before this
//     job existed.
//
// The scan is ordered by source position within one function body, not by
// control flow; the rare branch shape it misjudges documents itself with
// a //lint:ignore and a reason.
var AnalyzerFsyncorder = &Analyzer{
	Name: "fsyncorder",
	Doc: `enforce Sync-before-rename and blob-before-done-record ordering

In the durability-owning packages, flags (1) os.Rename calls that a file
write can reach with no Sync in between, and (2) a job's uncached done
record built with no result blob write (PutResult) before it in the same
function.`,
	Run: runFsyncorder,
}

// fsyncEventKind classifies the calls the ordering rules relate.
type fsyncEventKind int

const (
	evWrite fsyncEventKind = iota
	evSync
	evRename
	evPutResult
	evDoneRecord
)

type fsyncEvent struct {
	kind fsyncEventKind
	pos  token.Pos
}

func runFsyncorder(pass *Pass) error {
	if !inScope(pass.Path, fsyncorderPaths) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFsyncOrder(pass, fd)
		}
	}
	return nil
}

func checkFsyncOrder(pass *Pass, fd *ast.FuncDecl) {
	var events []fsyncEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if kind, ok := classifyFsyncCall(pass, n); ok {
				events = append(events, fsyncEvent{kind: kind, pos: n.Pos()})
			}
		case *ast.CompositeLit:
			if doneRecordLit(n) {
				events = append(events, fsyncEvent{kind: evDoneRecord, pos: n.Pos()})
			}
		case *ast.AssignStmt:
			if doneOpAssign(n) {
				events = append(events, fsyncEvent{kind: evDoneRecord, pos: n.Pos()})
			}
		}
		return true
	})

	// Rule 1: every rename must have a Sync between it and the last
	// preceding write.
	for i, ev := range events {
		if ev.kind != evRename {
			continue
		}
		// Find the nearest earlier write or Sync; a write wins → violation.
		sawWrite := false
		for j := i - 1; j >= 0; j-- {
			if events[j].kind == evSync {
				break
			}
			if events[j].kind == evWrite {
				sawWrite = true
				break
			}
		}
		if sawWrite {
			pass.Reportf(ev.pos, "os.Rename reachable from a file write with no intervening Sync in %s: a crash after the rename can publish a name whose contents never became durable; Sync the file before renaming it into place", funcName(fd))
		}
	}

	// Rule 2: an uncached done record must follow the blob write.
	persisted := false
	for _, ev := range events {
		switch ev.kind {
		case evPutResult:
			persisted = true
		case evDoneRecord:
			if !persisted {
				pass.Reportf(ev.pos, "done record built with no result blob durably written before it in %s: on replay the WAL would claim a result the disk does not hold; call PutResult first (cache-hit records carry Cached: true and are exempt)", funcName(fd))
			}
		}
	}
}

// classifyFsyncCall maps one call to the event kinds the ordering rules
// relate, or reports false for irrelevant calls.
func classifyFsyncCall(pass *Pass, call *ast.CallExpr) (fsyncEventKind, bool) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return 0, false
	}
	// os.Rename.
	if isPkgFunc(fn, "os", "Rename") {
		return evRename, true
	}
	// io.Copy / fmt.Fprint* with an *os.File destination count as writes.
	if isPkgFunc(fn, "io", "Copy") || isPkgFunc(fn, "io", "CopyBuffer") ||
		isPkgFunc(fn, "fmt", "Fprint") || isPkgFunc(fn, "fmt", "Fprintf") || isPkgFunc(fn, "fmt", "Fprintln") {
		if len(call.Args) > 0 && exprTypeIs(pass.Info, call.Args[0], "os", "File") {
			return evWrite, true
		}
		return 0, false
	}
	pkgPath, typeName := recvNamed(fn)
	if pkgPath == "os" && typeName == "File" {
		switch fn.Name() {
		case "Write", "WriteString", "WriteAt", "ReadFrom":
			return evWrite, true
		case "Sync":
			return evSync, true
		}
		return 0, false
	}
	if fn.Name() == "PutResult" {
		return evPutResult, true
	}
	return 0, false
}

// isDoneOp reports whether e is the "done" op: the OpDone constant or its
// string value.
func isDoneOp(e ast.Expr) bool {
	if lit, ok := ast.Unparen(e).(*ast.BasicLit); ok {
		return lit.Value == `"done"`
	}
	return selectorOrIdentName(e) == "OpDone"
}

// doneRecordLit reports whether lit is a record literal with Op set to the
// "done" op and no Cached: true field.
func doneRecordLit(lit *ast.CompositeLit) bool {
	isDone, isCached := false, false
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
		case "Op":
			isDone = isDoneOp(kv.Value)
		case "Cached":
			if id, ok := ast.Unparen(kv.Value).(*ast.Ident); ok && id.Name == "true" {
				isCached = true
			}
		}
	}
	return isDone && !isCached
}

// doneOpAssign reports whether as sets some record's Op field to the
// "done" op. Nothing can be told of the record's Cached field from here,
// so the record counts as uncached.
func doneOpAssign(as *ast.AssignStmt) bool {
	for i, lhs := range as.Lhs {
		if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Op" && i < len(as.Rhs) && isDoneOp(as.Rhs[i]) {
			return true
		}
	}
	return false
}

// selectorOrIdentName returns the terminal name of an identifier or
// selector expression ("store.OpDone" → "OpDone").
func selectorOrIdentName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

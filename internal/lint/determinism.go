package lint

import (
	"go/ast"
	"go/types"
)

// determinismPaths are the deterministic hot paths: every package whose
// output the repo pins byte-identical across worker counts and runs. The
// asyncnet package is included whole — its wallclock substrate is
// documented as nondeterministic, but it keeps no wall-clock reads or
// global RNG either (virtual time is modeled as time.Duration values, and
// all randomness flows through seeded mt19937 streams), so the contract
// holds package-wide. The ode package is included because every ODE solve
// behind a pinned figure evaluates its terms.
var determinismPaths = []string{
	"odeproto/internal/sim",
	"odeproto/internal/harness",
	"odeproto/internal/asyncnet",
	"odeproto/internal/mt19937",
	"odeproto/internal/stats",
	"odeproto/internal/ode",
}

// AnalyzerDeterminism enforces the sweep determinism contract: no hidden
// nondeterminism sources in the packages whose output must be a pure
// function of (spec, seed).
var AnalyzerDeterminism = &Analyzer{
	Name: "determinism",
	Doc: `forbid nondeterminism sources in the deterministic hot paths

Flags, in the packages the determinism contract covers:
  - wall-clock reads (time.Now, time.Since);
  - the global math/rand generator (top-level rand.Intn & co.; seeded
    local sources via rand.New are fine, though the repo uses mt19937);
  - map iteration whose order can reach output: appending inside a
    range-over-map (except the sorted-keys idiom of collecting only the
    keys), sends, floating-point accumulation (float addition is not
    associative, so the sum depends on iteration order), RNG draws (the
    draw sequence becomes map-ordered), writes to an io.Writer, and
    returns that leak the iteration's key or value;
  - goroutine fan-in that merges results in completion order: appending
    to a shared slice from inside a go statement, or appending received
    channel values in a loop. The allowed idiom is an indexed slot per
    job (results[i] = ...), which is order-independent.`,
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !inScope(pass.Path, determinismPaths) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkForbiddenCall(pass, n)
			case *ast.RangeStmt:
				if t, ok := pass.Info.Types[n.X]; ok {
					if _, isMap := t.Type.Underlying().(*types.Map); isMap {
						checkMapRange(pass, n)
					}
					if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
						checkChanFanIn(pass, n)
					}
				}
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkGoroutineFanIn(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

// checkForbiddenCall flags wall-clock reads and the global math/rand RNG.
func checkForbiddenCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			switch fn.Name() {
			case "Now", "Since":
				pass.Reportf(call.Pos(), "time.%s in a deterministic path: results must be a pure function of (spec, seed), not wall-clock time", fn.Name())
			}
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			return // methods on a local *rand.Rand draw from a seeded source
		}
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return // constructors for local, seedable sources
		}
		pass.Reportf(call.Pos(), "global math/rand RNG (rand.%s) in a deterministic path: draw from a per-job seeded source (internal/mt19937) instead", fn.Name())
	}
}

// rangeVarObjs resolves the key/value loop variables of a range statement.
func rangeVarObjs(pass *Pass, rng *ast.RangeStmt) (key, val types.Object) {
	resolve := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			return obj
		}
		return pass.Info.Uses[id]
	}
	if rng.Key != nil {
		key = resolve(rng.Key)
	}
	if rng.Value != nil {
		val = resolve(rng.Value)
	}
	return key, val
}

// checkMapRange flags order-sensitive operations inside a range over a
// map. Order-independent bodies — copying into another map, integer
// accumulation, deletions, counting — pass untouched.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	key, val := rangeVarObjs(pass, rng)
	if isSortedKeysIdiom(pass, rng, key, val) {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltinAppend(pass.Info, n) {
				pass.Reportf(n.Pos(), "append inside a range over a map builds a slice in map-iteration order; collect and sort the keys first (the sorted-keys idiom), or use an order-independent structure")
				return true
			}
			if rngRecv, name := rngDrawCall(pass.Info, n); rngRecv {
				pass.Reportf(n.Pos(), "RNG draw (%s) inside a range over a map consumes the stream in map-iteration order; iterate a deterministically ordered slice instead", name)
				return true
			}
			if isWriterCall(pass.Info, n) {
				pass.Reportf(n.Pos(), "write to an io.Writer inside a range over a map emits output in map-iteration order; iterate sorted keys instead")
				return true
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside a range over a map publishes values in map-iteration order; iterate sorted keys instead")
		case *ast.AssignStmt:
			checkFloatAccumulation(pass, rng, n)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesObject(pass.Info, res, key) || usesObject(pass.Info, res, val) {
					pass.Reportf(n.Pos(), "return inside a range over a map leaks the iteration's key/value: which entry is returned (e.g. which validation error fires first) depends on map order; iterate sorted keys instead")
					break
				}
			}
		}
		return true
	})
}

// isSortedKeysIdiom recognizes the allowed key-collection loop: a body
// consisting solely of appends of the key variable (possibly through a
// conversion) into slices, for sorting afterwards.
func isSortedKeysIdiom(pass *Pass, rng *ast.RangeStmt, key, val types.Object) bool {
	if key == nil || val != nil || len(rng.Body.List) == 0 {
		return false
	}
	for _, stmt := range rng.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass.Info, call) || len(call.Args) != 2 {
			return false
		}
		arg := ast.Unparen(call.Args[1])
		// Allow a single conversion wrapper: append(keys, string(k)).
		if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
			if tv, ok := pass.Info.Types[conv.Fun]; ok && tv.IsType() {
				arg = ast.Unparen(conv.Args[0])
			}
		}
		id, ok := arg.(*ast.Ident)
		if !ok || (pass.Info.Uses[id] != key && pass.Info.Defs[id] != key) {
			return false
		}
	}
	return true
}

// checkFloatAccumulation flags op-assignments that fold floating-point
// values into a variable declared outside the loop: float addition is not
// associative, so the folded total depends on map-iteration order.
func checkFloatAccumulation(pass *Pass, rng *ast.RangeStmt, as *ast.AssignStmt) {
	switch as.Tok.String() {
	case "+=", "-=", "*=", "/=":
	default:
		return
	}
	if len(as.Lhs) != 1 {
		return
	}
	lhs := as.Lhs[0]
	tv, ok := pass.Info.Types[lhs]
	if !ok {
		return
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsFloat == 0 {
		return
	}
	// Accumulating into a map entry (out[k] += v) is per-key, hence
	// order-independent; only a scalar accumulator leaks the order.
	if _, isIndex := ast.Unparen(lhs).(*ast.IndexExpr); isIndex {
		return
	}
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		obj := pass.Info.Uses[id]
		if obj == nil {
			obj = pass.Info.Defs[id]
		}
		if obj != nil && !declaredOutside(obj, rng) {
			return
		}
	}
	pass.Reportf(as.Pos(), "floating-point accumulation inside a range over a map: float addition is not associative, so the result depends on map-iteration order; iterate sorted keys instead")
}

// checkGoroutineFanIn flags appends to shared slices from inside a go
// statement: the slice ends up ordered by goroutine completion (and the
// append itself races). The allowed idiom is an indexed slot per job.
func checkGoroutineFanIn(pass *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass.Info, call) || i >= len(as.Lhs) {
				continue
			}
			id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				obj = pass.Info.Defs[id]
			}
			if obj != nil && declaredOutside(obj, lit) {
				pass.Reportf(as.Pos(), "append to %s from inside a goroutine merges results in completion order (and races); write each result to its own indexed slot instead", id.Name)
			}
		}
		return true
	})
}

// checkChanFanIn flags loops that append everything received from a
// channel to an outer slice — with more than one sender that is a
// completion-order merge.
func checkChanFanIn(pass *Pass, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass.Info, call) || i >= len(as.Lhs) {
				continue
			}
			id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				obj = pass.Info.Defs[id]
			}
			if obj != nil && declaredOutside(obj, rng) {
				pass.Reportf(as.Pos(), "append of received values to %s merges results in channel-arrival order; with concurrent senders that is completion order — use an indexed slot per job instead", id.Name)
			}
		}
		return true
	})
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// rngDrawCall reports whether call draws from an RNG stream: a method on
// *math/rand.Rand or on this repo's mt19937 generator.
func rngDrawCall(info *types.Info, call *ast.CallExpr) (bool, string) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false, ""
	}
	pkgPath, typeName := recvNamed(fn)
	switch {
	case pkgPath == "math/rand" && typeName == "Rand",
		pkgPath == "math/rand/v2" && typeName == "Rand",
		pkgPath == "odeproto/internal/mt19937" && typeName == "MT19937":
		return true, typeName + "." + fn.Name()
	}
	return false, ""
}

// isWriterCall reports whether call writes to an io.Writer: a Write-family
// method on a writer, or an fmt.Fprint* with a writer destination.
func isWriterCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Fprint", "Fprintf", "Fprintln":
			return true
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return implementsWriter(sig.Recv().Type())
	}
	return false
}

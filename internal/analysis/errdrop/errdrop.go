// Package errdrop forbids silently discarded errors in the decoding
// layers and in distributed Multilisp.
//
// internal/trace, internal/cluster/wire, and internal/ingest parse
// untrusted bytes; their errors carry byte offsets and segment indices
// that make corrupt-input reports actionable. An error dropped there
// doesn't just hide a failure — it turns a diagnosable truncated
// upload into a silently wrong replay. internal/dml moves reference
// weight over the network: a dropped send error there leaves weight
// stuck on a live worker with nothing counting it. In these packages a
// call that returns an error must not discard it:
//
//   - a bare call statement whose results include an error fires;
//   - assigning the error result to `_` fires — discarding must be
//     visible in review, so `_ = ...` requires an explicit
//     `// smallvet:ignore errdrop <reason>` on the line;
//   - a `go` statement whose call returns an error fires (nobody is
//     left to see it).
//
// Exemptions, matching what cannot actually fail or is idiomatic:
//
//   - deferred calls (`defer f.Close()` on a read path is idiomatic);
//   - bare zero-argument Close() statements — the cleanup-on-error
//     idiom; when a close error matters (write paths), the idiom is
//     `return f.Close()`, which this analyzer pushes code toward;
//   - fmt.Print/Printf/Println to stdout;
//   - methods on bytes.Buffer, strings.Builder, and hash.Hash
//     implementations — writers whose contract is error-free.
package errdrop

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc:  "error-returning calls in the decoding layers must not discard the error",
	Run:  run,
}

// scope is the set of packages that decode untrusted or
// offset-addressed input, plus the dml weight protocol.
var scope = []string{
	"internal/trace", "trace",
	"internal/ingest", "ingest",
	"internal/cluster/wire", "wire",
	"internal/dml", "dml",
}

func run(pass *analysis.Pass) error {
	if !analysis.PackageMatches(pass.Pkg.Path(), scope) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.DeferStmt:
				return false // deferred cleanup may drop its error
			case *ast.ExprStmt:
				if call, ok := x.X.(*ast.CallExpr); ok {
					if errIdx(pass, call) >= 0 && !exempt(pass, call) {
						pass.ReportRangef(call.Pos(), call.End(),
							"call returns an error that is silently discarded; handle it or annotate the line with // smallvet:ignore errdrop")
					}
				}
			case *ast.GoStmt:
				if errIdx(pass, x.Call) >= 0 && !exempt(pass, x.Call) {
					pass.ReportRangef(x.Call.Pos(), x.Call.End(),
						"goroutine discards the call's error result; return it through a channel/WaitGroup or annotate // smallvet:ignore errdrop")
				}
				return true
			case *ast.AssignStmt:
				checkAssign(pass, x)
			}
			return true
		})
	}
	return nil
}

// checkAssign fires on error results bound to the blank identifier.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	// Tuple form: a, _ := call().
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		i := errIdx(pass, call)
		if i < 0 || i >= len(as.Lhs) || exempt(pass, call) {
			return
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			pass.ReportRangef(id.Pos(), call.End(),
				"error result discarded into _; decode errors carry offsets — handle it or annotate // smallvet:ignore errdrop")
		}
		return
	}
	// Parallel form: _ = call() (and multi-assign variants).
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" || i >= len(as.Rhs) {
			continue
		}
		call, ok := as.Rhs[i].(*ast.CallExpr)
		if !ok || exempt(pass, call) {
			continue
		}
		if j := errIdx(pass, call); j == 0 && singleResult(pass, call) {
			pass.ReportRangef(id.Pos(), call.End(),
				"error result discarded into _; handle it or annotate the line with // smallvet:ignore errdrop")
		}
	}
}

// errIdx returns the index of the first error-typed result of call, or
// -1 when none.
func errIdx(pass *analysis.Pass, call *ast.CallExpr) int {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || !tv.IsValue() {
		return -1
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return i
			}
		}
		return -1
	}
	if isErrorType(tv.Type) {
		return 0
	}
	return -1
}

func singleResult(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	_, isTuple := tv.Type.(*types.Tuple)
	return !isTuple
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// exempt reports whether call's error contract is vacuous: stdout
// printing, or writes to never-failing sinks.
func exempt(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// Cleanup idiom: a bare x.Close() on an error path. Write paths
	// that care use `return f.Close()`, which is not a bare statement.
	if sel.Sel.Name == "Close" && len(call.Args) == 0 {
		return true
	}
	if pkg, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := pass.TypesInfo.Uses[pkg].(*types.PkgName); isPkg {
			switch pkg.Name + "." + sel.Sel.Name {
			case "fmt.Print", "fmt.Printf", "fmt.Println":
				return true
			}
			return false
		}
	}
	// Methods on infallible writers.
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	named := analysis.NamedOf(tv.Type)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "bytes.Buffer", "strings.Builder", "hash.Hash", "hash.Hash32", "hash.Hash64":
		return true
	}
	return false
}

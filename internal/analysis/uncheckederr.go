package analysis

import (
	"go/ast"
	"go/types"
)

// UncheckedErrAnalyzer flags dropped error returns. The archiver and
// export paths (Logstash TCP shipping, OpenSearch indexing, CSV/JSON
// result files) are exactly where a swallowed write error turns a
// measurement gap into silently missing data, so call statements that
// discard an error are reported. An explicit `_ =` assignment is
// treated as an acknowledged discard, deferred cleanup calls are
// idiomatic and skipped, and fmt printing plus the never-failing
// in-memory writers (strings.Builder, bytes.Buffer) are excluded.
var UncheckedErrAnalyzer = &Analyzer{
	Name: "uncheckederr",
	Doc:  "dropped error returns on I/O and archiver paths",
	Run:  eachPackage(runUncheckedErr),
}

// errIgnorePkgFuncs are package-level functions whose errors are
// conventionally ignored.
var errIgnorePkgFuncs = map[string]map[string]bool{
	"fmt": {"Print": true, "Printf": true, "Println": true,
		"Fprint": true, "Fprintf": true, "Fprintln": true},
}

// errIgnoreRecvTypes are receiver types whose methods cannot actually
// fail (they implement error-returning interfaces for compatibility).
var errIgnoreRecvTypes = []struct{ pkg, name string }{
	{"strings", "Builder"},
	{"bytes", "Buffer"},
}

func runUncheckedErr(pass *Pass, pkg *Package) {
	info := pkg.Info
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				return false // deferred cleanup: idiomatic discard
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !returnsError(info, call) || ignoredErrorSource(info, call) {
					return true
				}
				pass.Reportf(call.Pos(), "error return of %s is dropped; handle it or assign to _ explicitly",
					callName(pass, call))
			}
			return true
		})
	}
}

// returnsError reports whether the call's only or last result is an
// error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		if t.Len() == 0 {
			return false
		}
		return isErrorType(t.At(t.Len() - 1).Type())
	default:
		return isErrorType(tv.Type)
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return t.String() == "error"
	}
	return named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// ignoredErrorSource applies the allowlist.
func ignoredErrorSource(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// Package-level function: fmt.Println(...) etc.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := info.Uses[id].(*types.PkgName); ok {
			if fns, ok := errIgnorePkgFuncs[pkgName.Imported().Path()]; ok && fns[sel.Sel.Name] {
				return true
			}
			return false
		}
	}
	// Method on a never-failing receiver.
	if recv := info.TypeOf(sel.X); recv != nil {
		for _, ig := range errIgnoreRecvTypes {
			if isNamed(recv, ig.pkg, ig.name) {
				return true
			}
		}
	}
	return false
}

func callName(pass *Pass, call *ast.CallExpr) string {
	return exprString(pass.Fset, call.Fun)
}

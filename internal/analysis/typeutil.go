package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// isNamed reports whether t is the named type pkgPath.name (after
// stripping pointers).
func isNamed(t types.Type, pkgPath, name string) bool {
	named, ok := derefPtr(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// derefPtr strips one level of pointer.
func derefPtr(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// isLockType reports whether t itself is sync.Mutex or sync.RWMutex.
func isLockType(t types.Type) bool {
	return isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex")
}

// isSimTime reports whether t is the simulation clock type
// repro/internal/simtime.Time (matched by package suffix so the
// analyzer also works on forks with a different module name).
func isSimTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Time" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/simtime")
}

// isTimeQuantity reports whether t carries nanosecond semantics in this
// codebase.
func isTimeQuantity(t types.Type) bool {
	return isNamed(t, "time", "Duration") || isSimTime(t)
}

// exprString renders an expression compactly, for use as a map key
// (matching mu in "mu.Lock()" with "mu.Unlock()") and in messages.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AtomicMixAnalyzer polices the exact race class fixed by hand in PR 1
// (psarchiver pipeline counters) and PR 4 (shipper scrape
// consistency): a field that any code in the module accesses through
// sync/atomic must never be read or written plainly anywhere else.
// Mixed access breaks the happens-before edges the atomic side was
// bought for — a plain read can observe a torn or stale value, and the
// race detector only catches the schedules a test happens to exercise.
//
// The pass runs whole-program: phase one collects every field or
// variable whose address is passed to a sync/atomic Add/Load/Store/
// Swap/CompareAndSwap call, keyed by the types.Object identity shared
// across packages by the loader; phase two reports every plain
// SelectorExpr/Ident access to one of those objects anywhere in the
// closure.
//
// Accepted plain contexts, deliberately excluded:
//
//   - composite-literal field keys (construction before the value is
//     shared cannot race);
//   - len/cap of array fields and value-less `for i := range arr`
//     (array lengths are compile-time constants, no element load);
//   - the address operands of the atomic calls themselves.
//
// A remaining plain access that is provably unshared (e.g. a reset
// under an exclusive-owner contract) is suppressed with a justified
// `p4:lint-exempt` line comment naming this pass.
var AtomicMixAnalyzer = &Analyzer{
	Name: "atomicmix",
	Doc:  "fields accessed through sync/atomic must not be read or written plainly anywhere in the module",
	Run:  runAtomicMix,
}

// atomicFuncPrefixes are the sync/atomic entry points whose first
// argument is the address of the shared word.
func isAtomicFunc(name string) bool {
	for _, p := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap"} {
		if len(name) >= len(p) && name[:len(p)] == p {
			return true
		}
	}
	return false
}

func runAtomicMix(pass *Pass) {
	prog := pass.Program()

	// Phase one: find atomically-accessed objects and remember the
	// exact AST nodes that form their atomic access paths, so phase two
	// can skip them.
	atomicSite := map[types.Object]token.Pos{} // first atomic access, for messages
	inAtomic := map[ast.Node]bool{}            // nodes inside an atomic address operand
	for _, pkg := range prog.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || !isAtomicFunc(sel.Sel.Name) {
					return true
				}
				fn, ok := info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					return true
				}
				obj := addressedObject(info, un.X)
				if obj == nil {
					return true
				}
				if _, seen := atomicSite[obj]; !seen {
					atomicSite[obj] = call.Pos()
				}
				// Mark the whole address operand subtree as atomic
				// context (covers h.buckets[i] index reads too).
				ast.Inspect(un.X, func(m ast.Node) bool {
					inAtomic[m] = true
					return true
				})
				return true
			})
		}
	}
	if len(atomicSite) == 0 {
		return
	}

	// Phase two: plain accesses.
	type finding struct {
		pos token.Pos
		obj types.Object
		op  string
	}
	var finds []finding
	for _, pkg := range prog.Pkgs {
		info := pkg.Info
		parents := pkg.Parents()
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var obj types.Object
				switch e := n.(type) {
				case *ast.SelectorExpr:
					if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
						obj = s.Obj()
					} else {
						obj = info.Uses[e.Sel]
					}
				case *ast.Ident:
					// Only plain identifiers that are not the Sel of a
					// selector (those are handled above).
					if sel, ok := parents[e].(*ast.SelectorExpr); ok && sel.Sel == e {
						return true
					}
					obj = info.Uses[e]
				default:
					return true
				}
				if obj == nil {
					return true
				}
				if _, tracked := atomicSite[obj]; !tracked {
					return true
				}
				if inAtomic[n] || benignPlainAccess(info, parents, n) {
					return true
				}
				finds = append(finds, finding{pos: n.Pos(), obj: obj, op: accessKind(parents, n)})
				return true
			})
		}
	}
	sort.Slice(finds, func(i, j int) bool { return finds[i].pos < finds[j].pos })
	for _, f := range finds {
		pass.Reportf(f.pos, "%s of %s mixes with its sync/atomic access at %s: a plain access beside atomics is a data race (the PR-1 psarchiver class); use atomic.Load/Store here or move the field fully behind a mutex",
			f.op, objectLabel(f.obj), prog.Fset.Position(atomicSite[f.obj]))
	}
}

// addressedObject resolves the object whose address feeds an atomic
// call: a struct field (through any chain of selectors/indexing), a
// package-level variable, or a local.
func addressedObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X // &arr[i]: the shared object is the array field
		case *ast.SelectorExpr:
			if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
				return s.Obj()
			}
			return info.Uses[x.Sel]
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		default:
			return nil
		}
	}
}

// benignPlainAccess filters the accepted plain contexts: composite
// literal keys, len/cap, and value-less array ranges.
func benignPlainAccess(info *types.Info, parents parentMap, n ast.Node) bool {
	switch p := parents[n].(type) {
	case *ast.KeyValueExpr:
		if p.Key == n {
			if _, inLit := parents[p].(*ast.CompositeLit); inLit {
				return true
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(p.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
				return true
			}
		}
	case *ast.RangeStmt:
		if p.X == n && p.Value == nil {
			if t := info.TypeOf(p.X); t != nil {
				if _, isArr := t.Underlying().(*types.Array); isArr {
					return true
				}
			}
		}
	}
	return false
}

// accessKind reports whether the node is written or read, from its
// parent statement.
func accessKind(parents parentMap, n ast.Node) string {
	switch p := parents[n].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == n {
				return "plain write"
			}
		}
	case *ast.IncDecStmt:
		if p.X == n {
			return "plain write"
		}
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			return "plain address-taken use"
		}
	case *ast.IndexExpr:
		// arr[i] on the lhs of an assignment: look one level up.
		if p.X == n {
			switch pp := parents[p].(type) {
			case *ast.AssignStmt:
				for _, lhs := range pp.Lhs {
					if lhs == p {
						return "plain write"
					}
				}
			case *ast.IncDecStmt:
				if pp.X == p {
					return "plain write"
				}
			}
		}
	}
	return "plain read"
}

// objectLabel renders a field or variable for messages as Type.field
// or pkg.var.
func objectLabel(obj types.Object) string {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		// Walk the package scope for the named type owning the field.
		if pkg := v.Pkg(); pkg != nil {
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i) == v {
						return tn.Name() + "." + v.Name()
					}
				}
			}
		}
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

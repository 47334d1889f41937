package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrderAnalyzer owns the mutex discipline of the concurrent
// subsystems (sharded data plane, resilient shipper, archiver pipeline,
// collector daemon). It reads the walked events of every function body
// — declared functions and function literals alike, each a body of its
// own — under four rules:
//
//  1. No nesting. A Lock taken while another lock is held, directly or
//     through a call whose callees (the acquisition facts, propagated
//     over the call graph) take one. A program that never nests has no
//     acquisition-order cycle to deadlock on. A TryLock never waits.
//  2. Lock held across a blocking operation. In internal/dataplane,
//     internal/resilient and internal/psarchiver, a mutex held across a
//     channel operation or a net/os I/O call stalls every contending
//     goroutine for as long as the peer takes — the bug class the PR-4
//     shipper redesign removed (conn.Write moved outside mu).
//  3. Re-acquisition: sync mutexes are not reentrant.
//  4. Lock held at return: a Lock a return (or the body's end) reaches
//     with no Unlock and no deferred Unlock. A TryLock is exempt: `if
//     !mu.TryLock() { return }` holds nothing when it returns.
//
// What it catches that nothing else does: `-race` reports data races,
// not deadlocks or locks held across I/O, and a test sees a deadlock
// only on the schedule it happens to run; no type or `go vet` check
// reads lock order. It has recorded no deadlock since PR 24: the module
// nests no locks, and the pass keeps it so. A lock copied by value is
// `go vet`'s copylocks.
//
// Within a body a lock is the receiver expression it was taken through
// (x.mu and y.mu are two locks). The walk is linear and
// branch-insensitive, which matches the short critical sections here:
// Lock adds, Unlock removes, `defer Unlock` holds to the body's end. A
// lock taken inside a callback called under another lock is not seen
// (no edge through a function value). A deliberate exception is
// excluded with a justified `p4:lint-exempt` line comment.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "mutex discipline: a lock taken while another is held, locks held across I/O or channel operations, re-acquisition, Lock without Unlock on a return path",
	Run:  runLockOrder,
}

// lockIOScopes are the package-path fragments where rule 2 (lock held
// across blocking operations) applies; the fixture directory rides the
// list so the rule stays testable.
var lockIOScopes = []string{
	"internal/dataplane", "internal/resilient", "internal/psarchiver",
	"testdata/src/lockorder",
}

// heldLock is a lock the walk currently holds.
type heldLock struct {
	pos    token.Pos
	obj    types.Object
	op     string
	leaked bool // rule 4 already reported this acquisition
}

func runLockOrder(pass *Pass) {
	prog := pass.Program()

	// Each declaration's first lock taken in its own body (a literal's
	// acquisitions are not its declaration's: it runs when invoked, not
	// where it is written), then whatever its callees take.
	direct := map[*types.Func]string{}
	for _, fi := range prog.Functions() {
		for _, e := range prog.bodies(fi)[0].events {
			if e.kind == evLock && !strings.HasPrefix(e.op, "Try") && !pass.Exempt(e.pos) {
				direct[fi.Obj] = e.key
				if e.obj != nil {
					direct[fi.Obj] = objectLabel(e.obj)
				}
				break
			}
		}
	}
	acquires := propagate(prog, direct)

	// A linear scan of each body reports every rule as it appears.
	var bodies []body
	for _, fi := range prog.Functions() {
		bodies = append(bodies, prog.bodies(fi)...)
	}
	for _, b := range bodies {
		ioScoped := pathInScope(b.fi.Pkg.Path, lockIOScopes)
		held := map[string]*heldLock{}
		deferred := map[string]bool{}
		label := func(key string) string {
			if obj := held[key].obj; obj != nil {
				return objectLabel(obj)
			}
			return key
		}
		heldSorted := func() []string {
			keys := make([]string, 0, len(held))
			for k := range held {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return keys
		}
		// leaks reports rule 4, once per Lock, for everything the return
		// at ret (or, with no ret, the body's end) finds held with no
		// deferred release.
		leaks := func(ret token.Pos) {
			for _, k := range heldSorted() {
				h := held[k]
				if deferred[k] || h.leaked || strings.HasPrefix(h.op, "Try") {
					continue
				}
				h.leaked = true
				unlock := k + ".Unlock()"
				if strings.HasSuffix(h.op, "RLock") {
					unlock = k + ".RUnlock()"
				}
				if ret.IsValid() {
					pass.Reportf(h.pos, "%s locked in %s but a return at %s is reachable without %s (add defer %s)",
						k, b.name, prog.Fset.Position(ret), unlock, unlock)
				} else {
					pass.Reportf(h.pos, "%s locked in %s with no %s on any path", k, b.name, unlock)
				}
			}
		}
		// nested reports rule 1 for an acquisition of what at pos.
		nested := func(pos token.Pos, what string) {
			k := heldSorted()[0]
			pass.Reportf(pos, "%s while %s is held (locked at %s): a goroutine that nests them the other way round deadlocks with this one; release %s first",
				what, k, prog.Fset.Position(held[k].pos), k)
		}
		for _, e := range b.events {
			switch e.kind {
			case evUnlock:
				delete(held, e.key)
				continue
			case evDeferUnlock:
				deferred[e.key] = true // held until return: stays in the set
				continue
			}
			if pass.Exempt(e.pos) {
				continue
			}
			switch e.kind {
			case evLock:
				try := strings.HasPrefix(e.op, "Try")
				if h := held[e.key]; h != nil {
					if !try {
						pass.Reportf(e.pos, "%s acquired in %s while already held (locked at %s): sync mutexes are not reentrant, this goroutine deadlocks",
							label(e.key), b.name, prog.Fset.Position(h.pos))
					}
					continue
				}
				if len(held) > 0 && !try {
					nested(e.pos, e.key+" acquired in "+b.name)
				}
				held[e.key] = &heldLock{pos: e.pos, obj: e.obj, op: e.op}
			case evReturn:
				leaks(e.pos)
			case evCall:
				if l := acquires[e.fn]; l != "" && len(held) > 0 {
					nested(e.pos, "call to "+calleeName(prog, e.fn)+" acquires "+l+" in "+b.name)
				}
			case evChan, evIO:
				if !ioScoped || len(held) == 0 {
					continue
				}
				k := heldSorted()[0]
				pass.Reportf(e.pos, "%s held across %s in %s (locked at %s): the lock stalls every contending goroutine for as long as the peer takes; move the blocking operation outside the critical section (the PR-4 shipper pattern)",
					label(k), e.what, b.name, prog.Fset.Position(held[k].pos))
			}
		}
		leaks(token.NoPos)
	}
}

// lockIdentity maps the receiver expression of a Lock/Unlock call to a
// stable per-type object.
func lockIdentity(info *types.Info, x ast.Expr) types.Object {
	switch e := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
			return s.Obj()
		}
		return info.Uses[e.Sel]
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return nil
		}
		t := derefPtr(obj.Type())
		if isLockType(t) {
			return obj // a plain mutex variable
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj() // s.Lock() via embedded mutex: identity is the type
		}
		return obj
	case *ast.IndexExpr:
		return lockIdentity(info, e.X)
	}
	return nil
}

// calleeName renders a callee for "through call to X" notes.
func calleeName(prog *Program, fn *types.Func) string {
	if fi := prog.FuncOf(fn); fi != nil {
		return fi.Name()
	}
	return fn.Name()
}

// pathInScope reports whether an import path matches one of the scope
// fragments. Matching is by fragment containment, except that a
// trailing fixture path must terminate the import path so fixture
// subpackages stay out of scope.
func pathInScope(path string, scopes []string) bool {
	for _, s := range scopes {
		if strings.HasPrefix(s, "testdata/") {
			if strings.HasSuffix(path, s) {
				return true
			}
			continue
		}
		if strings.Contains(path, s) {
			return true
		}
	}
	return false
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

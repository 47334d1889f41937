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
// collector daemon). One source-order walk of every function body —
// declared functions and function literals alike, each a body of its
// own — feeds four rules:
//
//  1. No nesting. A Lock taken while another lock is held, directly or
//     through a call whose callees (transitively, over the call graph)
//     take one, is reported. A deadlock between two goroutines needs
//     each to hold one lock while waiting for another, so a program
//     that never nests has no acquisition-order cycle to search for.
//     A TryLock never waits and is exempt.
//
//  2. Lock held across a blocking operation. In the packages that talk
//     to the network or move data between goroutines
//     (internal/dataplane, internal/resilient, internal/psarchiver),
//     holding a mutex across a channel send/receive/select or a
//     net/os-level I/O call stalls every other goroutine contending for
//     the lock for as long as the peer takes — the bug class the PR-4
//     shipper redesign removed (conn.Write moved outside mu).
//
//  3. Re-acquisition. Locking the expression this body already holds
//     deadlocks the goroutine on itself: sync mutexes are not
//     reentrant.
//
//  4. Lock held at return. A Lock that a return statement (or the end
//     of the body) can reach with no Unlock in between and no deferred
//     Unlock leaks the lock on that path. A TryLock is exempt: the
//     idiomatic `if !mu.TryLock() { return }` holds nothing when it
//     returns.
//
// Within a body a lock is the receiver expression it was taken through
// (x.mu and y.mu are two locks, as are two elements of a map of
// mutexes). The walk is a linear, branch-insensitive approximation,
// which matches how locks are used here (short critical sections,
// unlocks in the same block or deferred): Lock adds, Unlock removes,
// `defer Unlock` holds to the body's end and covers every return. The
// call graph draws no edge through a function value, so a lock taken
// inside a callback called under another lock is not seen. A
// deliberate exception is excluded with a justified `p4:lint-exempt`
// line comment naming this pass. A lock copied by value is `go vet`'s
// copylocks check, which `make ci` runs beside this one.
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

// ioPkgs are stdlib packages whose calls mean "waiting on a peer or the
// kernel" — the operations rule 2 bans under a lock. Buffered or
// in-memory writers (bytes, strings, bufio flushes excepted) are not
// listed: they cost memory, not latency.
var ioPkgs = map[string]bool{"net": true, "os": true, "net/http": true, "crypto/tls": true}

// loEvent is one occurrence inside a function body, in source order.
type loEvent struct {
	pos  token.Pos
	kind int
	key  string       // mutex events: the receiver expression ("x.mu")
	obj  types.Object // mutex events: the lock class, nil when it has none (a call result)
	op   string       // mutex events: the method called (Lock, TryRLock, ...)
	fn   *types.Func  // callee for loEvCall/loEvIO
	what string       // operation description for loEvChan/loEvIO
}

const (
	loEvLock = iota
	loEvUnlock
	loEvDeferUnlock
	loEvReturn
	loEvCall
	loEvChan
	loEvIO
)

// loBody is one body and its events: a declared function or one of the
// function literals inside it.
type loBody struct {
	fi     *FuncInfo // the enclosing declaration
	name   string
	events []loEvent
}

// loBodies flattens a declaration into its own body followed by every
// function literal it contains.
func loBodies(fi *FuncInfo) []loBody {
	out := []loBody{{fi, fi.Name(), loEvents(fi, fi.Decl.Body)}}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, loBody{fi, "func literal", loEvents(fi, lit.Body)})
		}
		return true
	})
	return out
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

	// Pass 1: per-body events and, for each declaration, one lock it
	// takes itself. A literal's acquisitions are not its declaration's:
	// it runs when invoked, not where it is written.
	var bodies []loBody
	acquires := map[*types.Func]string{}
	for _, fi := range prog.Functions() {
		bs := loBodies(fi)
		bodies = append(bodies, bs...)
		for _, e := range bs[0].events {
			if e.kind == loEvLock && !strings.HasPrefix(e.op, "Try") && !pass.Exempt(e.pos) {
				acquires[fi.Obj] = e.key
				if e.obj != nil {
					acquires[fi.Obj] = objectLabel(e.obj)
				}
				break
			}
		}
	}

	// A declaration also acquires whatever its callees do (fixpoint over
	// the call graph; one lock per function is enough to name).
	for changed := true; changed; {
		changed = false
		for _, fi := range prog.Functions() {
			if acquires[fi.Obj] != "" {
				continue
			}
			for _, e := range prog.Callees(fi.Obj) {
				if l := acquires[e.Callee]; l != "" {
					acquires[fi.Obj] = l
					changed = true
					break
				}
			}
		}
	}

	// Pass 2: linear scan of each body, reporting every rule as it
	// appears.
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
			case loEvUnlock:
				delete(held, e.key)
				continue
			case loEvDeferUnlock:
				deferred[e.key] = true // held until return: stays in the set
				continue
			}
			if pass.Exempt(e.pos) {
				continue
			}
			switch e.kind {
			case loEvLock:
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
			case loEvReturn:
				leaks(e.pos)
			case loEvCall:
				if l := acquires[e.fn]; l != "" && len(held) > 0 {
					nested(e.pos, "call to "+calleeName(prog, e.fn)+" acquires "+l+" in "+b.name)
				}
			case loEvChan, loEvIO:
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

// loEvents flattens one body into source-ordered lock, unlock, return,
// call, channel, and I/O events, leaving nested function literals to
// their own bodies. ast.Inspect visits in source order, so the slice
// needs no extra sorting.
func loEvents(fi *FuncInfo, body *ast.BlockStmt) []loEvent {
	info := fi.Pkg.Info
	var out []loEvent
	// mutexEvent appends the event for a sync.Mutex/RWMutex method call
	// and reports whether call was one.
	mutexEvent := func(pos token.Pos, call *ast.CallExpr, unlockKind int) bool {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !isMutexOp(sel.Sel.Name) {
			return false
		}
		if fn, ok := info.Uses[sel.Sel].(*types.Func); !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return false
		}
		kind := unlockKind
		if !strings.HasSuffix(sel.Sel.Name, "Unlock") {
			kind = loEvLock // `defer mu.Lock()` is almost surely a bug; model as an acquisition
		}
		out = append(out, loEvent{pos: pos, kind: kind, op: sel.Sel.Name,
			key: exprString(fi.Pkg.Fset, sel.X), obj: lockIdentity(info, sel.X)})
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// The deferred call runs at return. Calls other than a mutex
			// method are modelled at the defer site — a conservative
			// approximation.
			return !mutexEvent(e.Pos(), e.Call, loEvDeferUnlock)
		case *ast.ReturnStmt:
			out = append(out, loEvent{pos: e.Pos(), kind: loEvReturn})
		case *ast.SendStmt:
			out = append(out, loEvent{pos: e.Pos(), kind: loEvChan, what: "channel send"})
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				out = append(out, loEvent{pos: e.Pos(), kind: loEvChan, what: "channel receive"})
			}
		case *ast.SelectStmt:
			out = append(out, loEvent{pos: e.Pos(), kind: loEvChan, what: "select"})
		case *ast.CallExpr:
			if mutexEvent(e.Pos(), e, loEvUnlock) {
				return true
			}
			if fn := calledFunc(info, e); fn != nil {
				if fn.Pkg() != nil && ioPkgs[fn.Pkg().Path()] {
					out = append(out, loEvent{pos: e.Pos(), kind: loEvIO, fn: fn,
						what: fn.Pkg().Name() + " " + fn.Name() + " I/O"})
				} else {
					out = append(out, loEvent{pos: e.Pos(), kind: loEvCall, fn: fn})
				}
			}
		}
		return true
	})
	return out
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
		t := obj.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
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

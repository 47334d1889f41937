package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// eventKind classifies one occurrence in a function body.
type eventKind int

const (
	evLock        eventKind = iota // Lock, RLock, TryLock, TryRLock (deferred too)
	evUnlock                       // Unlock, RUnlock
	evDeferUnlock                  // a deferred Unlock: the lock stays held to the return
	evReturn
	evCall     // any other call to a function object
	evChan     // channel send, receive or select: may block
	evIO       // a call into a package of ioPkgs: waits on a peer or the kernel
	evClock    // time.Now
	evRand     // a global math/rand generator
	evMapRange // range over a map
	evAlloc    // an allocation, make(chan) or close: what only the hot-path contract bans
)

// event is one occurrence inside a function body.
type event struct {
	pos  token.Pos
	kind eventKind
	cold bool           // inside a panic argument: that path aborts the run
	what string         // the operation, for messages ("mutex Lock", "channel send")
	key  string         // mutex events: the receiver expression ("x.mu")
	obj  types.Object   // mutex events: the lock class, nil when it has none (a call result)
	op   string         // mutex events: the method called (Lock, TryRLock, ...)
	fn   *types.Func    // the callee of a call event
	rng  *ast.RangeStmt // evMapRange
}

// body is one function body and its events: a declaration's own, or one
// of the function literals inside it.
type body struct {
	fi     *FuncInfo // the enclosing declaration
	name   string
	events []event
}

// ioPkgs are stdlib packages whose calls mean "waiting on a peer or the
// kernel". Buffered or in-memory writers (bytes, strings, bufio) are
// not listed: they cost memory, not latency.
var ioPkgs = map[string]bool{"net": true, "os": true, "net/http": true, "crypto/tls": true}

// netipAllocMethods are net/netip methods that build strings or byte
// slices per call.
var netipAllocMethods = map[string]bool{
	"String": true, "StringExpanded": true, "MarshalText": true,
	"MarshalBinary": true, "AppendTo": true,
}

// fmtAllocFuncs are fmt entry points that return freshly built strings
// or errors.
var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

// bodies returns the declaration's own body followed by every function
// literal inside it, each walked once per Program and shared by the
// passes: lockorder reads each body alone, hotpathprop a declaration
// with its literals, determinism the declaration's own.
func (prog *Program) bodies(fi *FuncInfo) []body {
	if bs, ok := prog.walked[fi.Obj]; ok {
		return bs
	}
	bs := []body{{fi, fi.Name(), walk(fi, fi.Decl.Body)}}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			bs = append(bs, body{fi, "func literal", walk(fi, lit.Body)})
		}
		return true
	})
	prog.walked[fi.Obj] = bs
	return bs
}

// propagate is the one fixpoint over the call graph. It extends a
// per-function fact (non-zero T) to every function that reaches one:
// a function without a fact of its own takes that of its first callee,
// in call-site order, that has one. The direct map is left as it was.
func propagate[T comparable](prog *Program, direct map[*types.Func]T) map[*types.Func]T {
	var none T
	out := maps.Clone(direct)
	for changed := true; changed; {
		changed = false
		for _, fi := range prog.ordered {
			if out[fi.Obj] != none {
				continue
			}
			for _, e := range prog.callees[fi.Obj] {
				if f := out[e.Callee]; f != none {
					out[fi.Obj] = f
					changed = true
					break
				}
			}
		}
	}
	return out
}

// walk flattens one body into source-ordered events, leaving nested
// function literals to their own bodies. ast.Inspect visits in source
// order, so the slice needs no sorting. No event is dropped for an
// exemption: each pass consults Pass.Exempt under its own name.
func walk(fi *FuncInfo, blk *ast.BlockStmt) []event {
	info, parents := fi.Pkg.Info, fi.Pkg.Parents()
	var out []event
	var recycled map[types.Object]bool // the declaration's, built at the first append
	add := func(n ast.Node, kind eventKind, what string) {
		out = append(out, event{pos: n.Pos(), kind: kind, what: what})
	}
	alloc := func(n ast.Node, what string) {
		if !inPanicArg(info, parents, n) {
			add(n, evAlloc, what)
		}
	}
	// mutexEvent appends the event for a sync.Mutex/RWMutex method call
	// and reports whether call was one.
	mutexEvent := func(pos token.Pos, call *ast.CallExpr, unlockKind eventKind) bool {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		fn := calledFunc(info, call)
		if !ok || fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || !isMutexOp(fn.Name()) {
			return false
		}
		kind := unlockKind
		if !strings.HasSuffix(fn.Name(), "Unlock") {
			kind = evLock // `defer mu.Lock()` is almost surely a bug; model as an acquisition
		}
		out = append(out, event{pos: pos, kind: kind, cold: inPanicArg(info, parents, call),
			what: "mutex " + fn.Name(), op: fn.Name(), fn: fn,
			key: exprString(fi.Pkg.Fset, sel.X), obj: lockIdentity(info, sel.X)})
		return true
	}
	ast.Inspect(blk, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// The deferred call runs at return. Calls other than a mutex
			// method are modelled at the defer site — a conservative
			// approximation.
			return !mutexEvent(e.Pos(), e.Call, evDeferUnlock)
		case *ast.ReturnStmt:
			add(e, evReturn, "")
		case *ast.SendStmt:
			add(e, evChan, "channel send")
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				add(e, evChan, "channel receive")
			}
		case *ast.SelectStmt:
			add(e, evChan, "select")
		case *ast.RangeStmt:
			if t := info.TypeOf(e.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					out = append(out, event{pos: e.Pos(), kind: evMapRange, what: "map iteration", rng: e})
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[e]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					alloc(e, "map literal allocation")
				}
			}
		case *ast.CallExpr:
			if mutexEvent(e.Pos(), e, evUnlock) {
				return true
			}
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					if b.Name() == "append" && recycled == nil {
						recycled = recycledSlices(info, fi.Decl.Body)
					}
					if what := builtinAlloc(fi.Pkg.Fset, info, parents, recycled, b, e); what != "" {
						alloc(e, what)
					}
					return true
				}
			}
			fn := calledFunc(info, e)
			if fn == nil {
				return true
			}
			ev, path := event{pos: e.Pos(), kind: evCall, fn: fn}, ""
			if fn.Pkg() != nil {
				path = fn.Pkg().Path()
			}
			switch {
			case ioPkgs[path]:
				ev.kind, ev.what = evIO, fn.Pkg().Name()+" "+fn.Name()+" I/O"
			case path == "time" && fn.Name() == "Now":
				ev.kind, ev.what, ev.cold = evClock, "time.Now", inPanicArg(info, parents, e)
			case path == "math/rand" && isGlobalRandFunc(fn):
				ev.kind = evRand
			case path == "net/netip" && netipAllocMethods[fn.Name()]:
				alloc(e, "netip "+fn.Name()+" allocation")
				return true
			case path == "fmt" && fmtAllocFuncs[fn.Name()]:
				alloc(e, "fmt."+fn.Name()+" allocation")
				return true
			}
			out = append(out, ev)
		}
		return true
	})
	return out
}

// builtinAlloc names what a call to a builtin costs the hot path, or "".
func builtinAlloc(fset *token.FileSet, info *types.Info, parents parentMap, recycled map[types.Object]bool, b *types.Builtin, call *ast.CallExpr) string {
	switch b.Name() {
	case "append":
		if !appendReusesCapacity(fset, info, parents, recycled, call) {
			return "append without capacity reuse"
		}
	case "make":
		if tv, ok := info.Types[call]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				return "make(map) allocation"
			case *types.Chan:
				return "make(chan)"
			}
		}
	case "close":
		if len(call.Args) == 1 {
			if t := info.TypeOf(call.Args[0]); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					return "channel close"
				}
			}
		}
	}
	return ""
}

// calledFunc resolves a call expression to its *types.Func for both
// ident and selector call forms, or nil.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isMutexOp reports whether name is a sync.Mutex/RWMutex method.
func isMutexOp(name string) bool {
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return true
	}
	return false
}

// isGlobalRandFunc reports whether fn is a math/rand package-level
// generator (backed by the shared global source). Constructors are
// fine: they are how seeded sources get built.
func isGlobalRandFunc(fn *types.Func) bool {
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf":
		return false
	}
	return true
}

// inPanicArg reports whether n sits inside the arguments of a panic
// call: that path aborts the run, so its allocations are cold.
func inPanicArg(info *types.Info, parents parentMap, n ast.Node) bool {
	for cur := ast.Node(nil); ; n = cur {
		cur = parents[n]
		if cur == nil {
			return false
		}
		if _, isStmt := cur.(ast.Stmt); isStmt {
			return false
		}
		if call, ok := cur.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					return true
				}
			}
		}
	}
}

// recycledSlices collects local variables initialised from a slice trim
// (buf := x[:0] or buf := x[:n]): appending into one reuses retained
// capacity, the packet arena's idiom for SACK scratch.
func recycledSlices(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			se, ok := rhs.(*ast.SliceExpr)
			if !ok || se.High == nil {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					out[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// appendReusesCapacity reports whether the append call follows one of
// the amortised-zero idioms: its result is assigned back to the slice
// it extends (after unwrapping a trim like x[:0]), or its base is a
// local recycled-capacity buffer.
func appendReusesCapacity(fset *token.FileSet, info *types.Info, parents parentMap, recycled map[types.Object]bool, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	base := call.Args[0]
	if se, ok := base.(*ast.SliceExpr); ok {
		base = se.X
	}
	if id, ok := base.(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil && recycled[obj] {
			return true
		}
	}
	as, ok := parents[call].(*ast.AssignStmt)
	if !ok {
		return false
	}
	for i, rhs := range as.Rhs {
		if rhs != call || i >= len(as.Lhs) {
			continue
		}
		if exprString(fset, as.Lhs[i]) == exprString(fset, base) {
			return true
		}
	}
	return false
}

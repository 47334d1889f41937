package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathPropAnalyzer owns the p4:hotpath contract. A function whose
// doc comment carries `p4:hotpath` is on the per-packet pipeline
// (scheduler, packet arena, data-plane hashing), which promises 0
// allocs/op AND bounded latency; a clean root calling a helper that
// locks a mutex or builds a map breaks the promise just as surely as
// doing it inline, so the same classifier runs over the annotated body
// and over every function reachable from it through the conservative
// call graph. It reports:
//
//   - sync.Mutex / sync.RWMutex operations (Lock, Unlock, RLock,
//     RUnlock, TryLock, TryRLock) — the packet path must stay
//     lock-free;
//   - time.Now — wall-clock reads desynchronise the simulation clock
//     and cost a vDSO call per packet;
//   - map iteration — unbounded work with nondeterministic order;
//   - channel operations (send, receive, select, close, make(chan)) —
//     every one is a potential block or allocation;
//   - append whose result is not assigned back to the slice it extends
//     (the capacity-reuse idiom `x = append(x, ...)` and appends into a
//     locally trimmed buffer `buf := x[:0]; append(buf, ...)` are the
//     accepted amortised-zero patterns; anything else builds a fresh
//     backing array);
//   - map composite literals and make(map[...]...), which always
//     allocate — hot state belongs in preallocated registers or arrays;
//   - net/netip rendering calls (String, MarshalText, AppendTo, ...)
//     and fmt.Sprintf-family formatting, the allocations the packed
//     FlowKey refactor removed from the per-packet path.
//
// A breach in the annotated body is reported where it stands; one in a
// callee is reported at the root with the shortest call chain. Function
// literals count as part of the body that declares them. Anything
// inside a panic argument is exempt: that path aborts the simulation,
// so its cost never lands on a packet. Functions no root reaches are
// not inspected: the pass guards the declared hot path, it does not
// ban allocation generally.
//
// A callee that legitimately violates the contract (an amortised batch
// flush, a cold error path) is excluded by annotating its doc comment
// with `p4:hotpath-exempt` plus a justification after the colon, or a
// single offending line with a justified `p4:lint-exempt` comment
// naming this pass. An exemption without a justification is itself
// reported.
//
// Known incompleteness (see the Program doc): calls through plain
// function values, and calls made from inside function literals, are
// not traversed.
var HotPathPropAnalyzer = &Analyzer{
	Name: "hotpathprop",
	Doc:  "p4:hotpath contract (no allocation, locks, time.Now, map iteration or channels) in annotated functions and everything they reach",
	Run:  runHotPathProp,
}

const (
	hotpathMark   = "p4:hotpath"
	hotpathExempt = "p4:hotpath-exempt:"
)

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

// hotViolation is one hot-path contract breach inside a function body.
type hotViolation struct {
	pos  token.Pos
	what string // short description, e.g. "mutex Lock"
}

func runHotPathProp(pass *Pass) {
	prog := pass.Program()

	// Classify every declared function once: root, exempt, or plain.
	exempt := map[*types.Func]bool{}
	var roots []*FuncInfo
	for _, fi := range prog.Functions() {
		doc := ""
		if fi.Decl.Doc != nil {
			doc = fi.Decl.Doc.Text()
		}
		if idx := strings.Index(doc, hotpathExempt); idx >= 0 {
			exempt[fi.Obj] = true
			reason := doc[idx+len(hotpathExempt):]
			if nl := strings.IndexByte(reason, '\n'); nl >= 0 {
				reason = reason[:nl]
			}
			if strings.TrimSpace(reason) == "" {
				pass.Reportf(fi.Decl.Pos(), "p4:hotpath-exempt on %s has no justification: explain why the hot-path contract does not apply", fi.Name())
			}
			continue
		}
		if strings.Contains(doc, hotpathMark) {
			roots = append(roots, fi)
		}
	}

	// Memoised per-function violation lists.
	cache := map[*types.Func][]hotViolation{}
	violationsOf := func(fi *FuncInfo) []hotViolation {
		v, ok := cache[fi.Obj]
		if !ok {
			v = hotViolations(pass, fi)
			cache[fi.Obj] = v
		}
		return v
	}

	for _, root := range roots {
		for _, v := range violationsOf(root) {
			pass.Reportf(v.pos, "%s in p4:hotpath function %s: the per-packet path must stay allocation-free, lock-free, clock-free and channel-free", v.what, root.Name())
		}
		// Each violating callee is reported once per root, at the root.
		prog.Reach(root, func(callee *FuncInfo, e Edge, chain *callChain) bool {
			if exempt[callee.Obj] {
				return false // justified escape hatch: not checked, not traversed
			}
			for _, v := range violationsOf(callee) {
				via := ""
				if e.Dynamic {
					via = fmt.Sprintf(" (dispatched via interface %s)", e.Iface)
				}
				pass.Reportf(root.Decl.Pos(), "p4:hotpath function %s reaches %s in %s via %s%s (at %s)",
					root.Name(), v.what, callee.Name(), chain, via, prog.Fset.Position(v.pos))
			}
			return true
		})
	}
}

// hotViolations collects the hot-path contract breaches in one
// function body, function literals included. Panic arguments are cold
// (they abort the run) and are skipped; a breach on an exempted line is
// dropped here, at the source, so it neither surfaces directly nor
// propagates to a root.
func hotViolations(pass *Pass, fi *FuncInfo) []hotViolation {
	info := fi.Pkg.Info
	parents := fi.Pkg.Parents()
	recycled := recycledSlices(info, fi.Decl.Body)
	var out []hotViolation
	add := func(pos token.Pos, what string) {
		if !pass.Exempt(pos) {
			out = append(out, hotViolation{pos: pos, what: what})
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.RangeStmt:
			if t := info.TypeOf(e.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					add(e.Pos(), "map iteration")
				}
			}
		case *ast.SendStmt:
			add(e.Pos(), "channel send")
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				add(e.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			add(e.Pos(), "select")
		case *ast.CompositeLit:
			if tv, ok := info.Types[e]; ok && !inPanicArg(info, parents, e) {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					add(e.Pos(), "map literal allocation")
				}
			}
		case *ast.CallExpr:
			hotCallViolations(fi, info, parents, recycled, e, add)
		}
		return true
	})
	return out
}

// hotCallViolations classifies one call expression.
func hotCallViolations(fi *FuncInfo, info *types.Info, parents parentMap, recycled map[types.Object]bool, call *ast.CallExpr, add func(token.Pos, string)) {
	if inPanicArg(info, parents, call) {
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		b, ok := info.Uses[fun].(*types.Builtin)
		if !ok {
			return
		}
		switch b.Name() {
		case "append":
			if !appendReusesCapacity(fi.Pkg.Fset, info, parents, recycled, call) {
				add(call.Pos(), "append without capacity reuse")
			}
		case "make":
			if tv, ok := info.Types[call]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					add(call.Pos(), "make(map) allocation")
				case *types.Chan:
					add(call.Pos(), "make(chan)")
				}
			}
		case "close":
			if len(call.Args) == 1 {
				if t := info.TypeOf(call.Args[0]); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						add(call.Pos(), "channel close")
					}
				}
			}
		}
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		switch {
		case fn.Pkg().Path() == "sync" && isMutexOp(fn.Name()):
			if recv := info.TypeOf(fun.X); recv == nil || isLockType(recv) || isEmbeddedLockRecv(info, fun) {
				add(call.Pos(), "mutex "+fn.Name())
			}
		case fn.Pkg().Path() == "time" && fn.Name() == "Now":
			add(call.Pos(), "time.Now")
		case fn.Pkg().Path() == "net/netip" && netipAllocMethods[fn.Name()]:
			add(call.Pos(), "netip "+fn.Name()+" allocation")
		case fn.Pkg().Path() == "fmt" && fmtAllocFuncs[fn.Name()]:
			add(call.Pos(), "fmt."+fn.Name()+" allocation")
		}
	}
}

// isMutexOp reports whether name is a sync.Mutex/RWMutex method.
func isMutexOp(name string) bool {
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return true
	}
	return false
}

// isEmbeddedLockRecv reports whether a Lock-family call selects a
// promoted method of an embedded sync.Mutex (s.Lock() where s's type
// embeds the mutex).
func isEmbeddedLockRecv(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync"
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

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismAnalyzer guards the reproducibility contract of the
// simulation-facing packages: every experiment run with the same seed
// must produce byte-identical output (the witness gate diffs fig CSVs
// against golden copies). Inside the deterministic scope
// (internal/experiments, internal/simtime, internal/core) the pass
// reports:
//
//   - time.Now — wall-clock reads vary run to run; the simulation
//     clock (simtime) is the only time source the scope may consult;
//   - calls that *transitively* reach time.Now through module functions
//     outside the scope, resolved over the whole-program call graph and
//     reported at the deterministic call site with the offending chain;
//   - the global math/rand functions (Intn, Float64, Shuffle, Perm,
//     ...) — the process-wide source is shared and, unseeded, differs
//     across runs; randomness must flow from the experiment seed via
//     rand.New(rand.NewSource(seed));
//   - map iteration whose body feeds an order-sensitive sink — a call
//     per key (scheduling, registration, output), a channel send, or a
//     string/slice accumulation that is never sorted afterwards. The
//     collect-keys-then-sort idiom (append inside the range, sort.Strings
//     after it) is recognised and accepted; per-key calls are flagged
//     regardless, because the calls already happened in map order.
//
// A site that is deliberate (a real-TCP drain loop, telemetry
// timestamps) is excluded with a justified `p4:lint-exempt` line
// comment naming this pass; exempted time.Now sites also stop the
// transitive propagation.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "wall clock, unseeded math/rand, and order-sensitive map iteration in the deterministic simulation scope",
	Run:  runDeterminism,
}

// determinismScopes are the package-path fragments forming the
// deterministic scope; the fixture directory rides the list so the pass
// stays testable (its subpackages are deliberately out of scope,
// standing in for "the rest of the module").
var determinismScopes = []string{
	"internal/experiments", "internal/simtime", "internal/core",
	"testdata/src/determinism",
}

func runDeterminism(pass *Pass) {
	prog := pass.Program()

	// Whole-program wall-clock facts: where each function calls time.Now
	// directly (exempted sites do not count), then the transitive
	// closure over the call graph.
	wallAt := map[*types.Func]token.Pos{}
	for _, fi := range prog.Functions() {
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calledFunc(fi.Pkg.Info, call); fn != nil &&
				fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Now" && !pass.Exempt(call.Pos()) {
				if _, seen := wallAt[fi.Obj]; !seen {
					wallAt[fi.Obj] = call.Pos()
				}
			}
			return true
		})
	}
	reaches := map[*types.Func]bool{}
	for fn := range wallAt {
		reaches[fn] = true
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range prog.Functions() {
			if reaches[fi.Obj] {
				continue
			}
			for _, e := range prog.Callees(fi.Obj) {
				if reaches[e.Callee] {
					reaches[fi.Obj] = true
					changed = true
					break
				}
			}
		}
	}

	for _, fi := range prog.Functions() {
		if !pathInScope(fi.Pkg.Path, determinismScopes) {
			continue
		}
		info := fi.Pkg.Info

		// Direct wall clock and global math/rand.
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calledFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch {
			case fn.Pkg().Path() == "time" && fn.Name() == "Now":
				pass.Reportf(call.Pos(), "time.Now in deterministic package %s: wall clock varies run to run; consult the simulation clock (simtime) instead", fi.Pkg.Types.Name())
			case fn.Pkg().Path() == "math/rand" && isGlobalRandFunc(fn):
				pass.Reportf(call.Pos(), "global math/rand.%s in deterministic package %s: the process-wide source is not derived from the experiment seed; use rand.New(rand.NewSource(seed))", fn.Name(), fi.Pkg.Types.Name())
			}
			return true
		})

		// Transitive wall clock through out-of-scope module functions.
		reported := map[token.Pos]bool{}
		for _, e := range prog.Callees(fi.Obj) {
			callee := prog.FuncOf(e.Callee)
			if callee == nil || pathInScope(callee.Pkg.Path, determinismScopes) {
				continue // stdlib (direct time.Now caught above) or flagged in its own scope
			}
			if !reaches[e.Callee] || pass.Exempt(e.Site) || reported[e.Site] {
				continue
			}
			reported[e.Site] = true
			chain, at := wallChain(prog, callee, wallAt)
			pass.Reportf(e.Site, "call from deterministic package %s reaches time.Now via %s (at %s): thread the simulation clock through, or exempt the site with a justification", fi.Pkg.Types.Name(), chain, prog.Fset.Position(at))
		}

		// Order-sensitive map iteration.
		checkMapOrder(pass, fi)
	}
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

// wallChain returns a shortest call chain from fn to a function with a
// direct time.Now, rendered, and the clock read's position.
func wallChain(prog *Program, fn *FuncInfo, wallAt map[*types.Func]token.Pos) (string, token.Pos) {
	chain, at := fn.Name(), wallAt[fn.Obj]
	prog.Reach(fn, func(callee *FuncInfo, _ Edge, c *callChain) bool {
		if at == token.NoPos {
			if p, ok := wallAt[callee.Obj]; ok {
				chain, at = c.String(), p
			}
		}
		return at == token.NoPos
	})
	return chain, at
}

// checkMapOrder flags map iterations whose bodies are order-sensitive.
func checkMapOrder(pass *Pass, fi *FuncInfo) {
	info := fi.Pkg.Info

	// Positions of sort-ish calls in the body (sort.Strings, sortTimes,
	// sortedKeys...), used to accept the collect-then-sort idiom.
	var sortEnds []token.Pos
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
			if id, ok := fun.X.(*ast.Ident); ok && id.Name == "sort" {
				name = "sort" + name
			}
		}
		if strings.Contains(strings.ToLower(name), "sort") {
			sortEnds = append(sortEnds, call.Pos())
		}
		return true
	})
	sortedAfter := func(pos token.Pos) bool {
		for _, p := range sortEnds {
			if p > pos {
				return true
			}
		}
		return false
	}

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		kind, ok := mapOrderSink(info, rng)
		if !ok {
			return true
		}
		switch kind {
		case "collects":
			if sortedAfter(rng.End()) {
				return true // collect-then-sort idiom: accepted
			}
			pass.Reportf(rng.Pos(), "map iteration accumulates output in nondeterministic order in %s and the result is never sorted: collect the keys, sort them, then iterate (the sortedKeys idiom)", fi.Name())
		default:
			pass.Reportf(rng.Pos(), "map iteration performs a %s per key in %s: the keys arrive in a different order every run; iterate over sorted keys (the sortedKeys idiom) so runs are reproducible", kind, fi.Name())
		}
		return true
	})
}

// mapOrderSink classifies the body of a map range as order-sensitive:
// "call" (an effectful statement per key), "channel send", or
// "collects" (appends/concatenates into state that outlives the loop).
// Bodies that only read, aggregate commutatively (+= of numbers,
// max/min), or mutate the map itself are not sinks.
func mapOrderSink(info *types.Info, rng *ast.RangeStmt) (string, bool) {
	kind := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if kind == "call" || kind == "channel send" {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			kind = "channel send"
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calledFunc(info, call)
			if fn == nil {
				return true // builtins (delete, clear) and func values: order-safe or unknown
			}
			if strings.Contains(strings.ToLower(fn.Name()), "sort") {
				return true
			}
			kind = "call to " + fn.Name()
		case *ast.AssignStmt:
			// x = append(x, ...) or s += ... where the target is
			// declared outside the loop.
			for i, rhs := range s.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok {
					continue
				}
				if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
					continue
				}
				if i < len(s.Lhs) && declaredOutside(info, s.Lhs[i], rng) {
					if kind == "" {
						kind = "collects"
					}
				}
			}
			if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 {
				if t := info.TypeOf(s.Lhs[0]); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 && declaredOutside(info, s.Lhs[0], rng) {
						if kind == "" {
							kind = "collects"
						}
					}
				}
			}
		}
		return true
	})
	return kind, kind != ""
}

// declaredOutside reports whether the expression's root identifier was
// declared before the range statement (so per-iteration writes
// accumulate across the loop).
func declaredOutside(info *types.Info, e ast.Expr, rng *ast.RangeStmt) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			return obj != nil && obj.Pos() < rng.Pos()
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return false
		}
	}
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismAnalyzer guards the reproducibility contract of the
// simulation-facing packages: every experiment run with the same seed
// must produce byte-identical output. Inside the deterministic scope
// (internal/experiments, internal/simtime, internal/core) it reads each
// declaration's walked events and reports:
//
//   - time.Now — the simulation clock (simtime) is the only time source
//     the scope may consult;
//   - calls that reach time.Now through module functions outside the
//     scope (the wall-clock facts, propagated over the call graph),
//     reported at the call site with the offending chain;
//   - the global math/rand functions (Intn, Float64, Shuffle, ...):
//     randomness must flow from the experiment seed via
//     rand.New(rand.NewSource(seed));
//   - map iteration whose body feeds an order-sensitive sink — a call
//     per key, a channel send, or a string/slice accumulation that is
//     never sorted afterwards (collect-then-sort is accepted; per-key
//     calls are not, because they already happened in map order).
//
// What it catches that nothing else does: `make witness` diffs the
// runs it compares, so it misses a map order or clock read that does
// not move their bytes — a one-key map at seed 42, a rounded-away
// time.Now, a path only `-paper` or another seed takes — and the
// next seed, scale or Go release diverges. With the tree's exemptions
// disabled it reports 5 findings (a real-TCP convergence timeout, the
// shipper's write deadlines, Runner's Elapsed stamp).
//
// A deliberate site is excluded with a justified `p4:lint-exempt` line
// comment naming this pass; an exempted time.Now also stops the
// propagation.
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

	// Whole-program wall-clock facts: the first time.Now each function
	// reads itself (exempted sites do not count), then every function
	// that reaches one.
	wallAt := map[*types.Func]token.Pos{}
	for _, fi := range prog.Functions() {
		for _, e := range prog.bodies(fi)[0].events {
			if e.kind == evClock && !pass.Exempt(e.pos) {
				wallAt[fi.Obj] = e.pos
				break
			}
		}
	}
	reaches := propagate(prog, wallAt)

	for _, fi := range prog.Functions() {
		if !pathInScope(fi.Pkg.Path, determinismScopes) {
			continue
		}
		pkg := fi.Pkg.Types.Name()
		for _, e := range prog.bodies(fi)[0].events {
			switch e.kind {
			case evClock:
				pass.Reportf(e.pos, "time.Now in deterministic package %s: wall clock varies run to run; consult the simulation clock (simtime) instead", pkg)
			case evRand:
				pass.Reportf(e.pos, "global math/rand.%s in deterministic package %s: the process-wide source is not derived from the experiment seed; use rand.New(rand.NewSource(seed))", e.fn.Name(), pkg)
			case evMapRange:
				checkMapOrder(pass, fi, e.rng)
			}
		}

		// Transitive wall clock through out-of-scope module functions.
		reported := map[token.Pos]bool{}
		for _, e := range prog.Callees(fi.Obj) {
			callee := prog.FuncOf(e.Callee)
			if callee == nil || pathInScope(callee.Pkg.Path, determinismScopes) {
				continue // stdlib (direct time.Now caught above) or flagged in its own scope
			}
			if reaches[e.Callee] == token.NoPos || pass.Exempt(e.Site) || reported[e.Site] {
				continue
			}
			reported[e.Site] = true
			chain, at := wallChain(prog, callee, wallAt)
			pass.Reportf(e.Site, "call from deterministic package %s reaches time.Now via %s (at %s): thread the simulation clock through, or exempt the site with a justification", pkg, chain, prog.Fset.Position(at))
		}
	}
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

// checkMapOrder flags a map iteration whose body is order-sensitive.
// An accumulation followed by a sort-ish call (sort.Strings, sortTimes,
// sortedKeys...) is the accepted collect-then-sort idiom.
func checkMapOrder(pass *Pass, fi *FuncInfo, rng *ast.RangeStmt) {
	switch kind, ok := mapOrderSink(fi.Pkg.Info, rng); {
	case !ok:
	case kind != "collects":
		pass.Reportf(rng.Pos(), "map iteration performs a %s per key in %s: the keys arrive in a different order every run; iterate over sorted keys (the sortedKeys idiom) so runs are reproducible", kind, fi.Name())
	case !sortedAfter(fi.Decl.Body, rng.End()):
		pass.Reportf(rng.Pos(), "map iteration accumulates output in nondeterministic order in %s and the result is never sorted: collect the keys, sort them, then iterate (the sortedKeys idiom)", fi.Name())
	}
}

// sortedAfter reports whether the body calls a sort-ish function after
// pos.
func sortedAfter(body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
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
		found = call.Pos() > pos && strings.Contains(strings.ToLower(name), "sort")
		return !found
	})
	return found
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

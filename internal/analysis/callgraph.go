package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Program is the whole-program view the dataflow passes operate on: the
// requested packages plus every module-internal package they import,
// transitively (the loader memoises them, so expanding the closure costs
// nothing), with a conservative call graph over every function
// declaration in that closure.
//
// The graph is conservative in the standard static-analysis sense:
//
//   - Static calls (package-level functions, methods on concrete
//     receivers, qualified stdlib calls) produce exactly one edge.
//   - Calls through an interface method produce one dynamic edge to the
//     corresponding method of every named type in the program whose
//     method set implements the interface — a superset of the targets
//     any execution can reach (method-set dispatch, no pointer
//     analysis).
//   - Calls through plain function values (fields, parameters, locals
//     of function type) produce no edge: a function literal runs when
//     it is invoked, not where it is defined, and without tracking
//     values we cannot know its call sites. Passes that rely on
//     reachability document this as their known incompleteness.
//
// Calls made inside a function literal likewise produce no edge from
// the enclosing declaration: the literal may escape and run on a
// different goroutine long after the declaring function returned.
type Program struct {
	// Pkgs is the analysis closure, sorted by import path.
	Pkgs []*Package
	Fset *token.FileSet

	funcs   map[*types.Func]*FuncInfo
	ordered []*FuncInfo
	callees map[*types.Func][]Edge
	walked  map[*types.Func][]body // bodies, walked on first use
}

// FuncInfo pairs a function object with its declaration and package.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Name renders the function for diagnostics: Recv.Name for methods,
// plain name for functions.
func (fi *FuncInfo) Name() string {
	if n := recvNamed(fi.Obj); n != nil {
		return n.Obj().Name() + "." + fi.Obj.Name()
	}
	return fi.Obj.Name()
}

// recvNamed returns the named type of a method's receiver, or nil.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	n, _ := derefPtr(sig.Recv().Type()).(*types.Named)
	return n
}

// Edge is one call-graph edge, positioned at the call site.
type Edge struct {
	Callee  *types.Func
	Site    token.Pos
	Dynamic bool   // resolved through interface method-set dispatch
	Iface   string // interface name for dynamic edges, for messages
}

// importClosure returns pkgs plus every module-internal package they
// import, transitively, sorted by import path. The loader has already
// type-checked them all (it had to, to check pkgs), so this is a walk
// over what it memoised; standalone packages stand alone.
func importClosure(pkgs []*Package) []*Package {
	byPath := map[string]*Package{}
	var add func(p *Package)
	add = func(p *Package) {
		if byPath[p.Path] != nil {
			return
		}
		byPath[p.Path] = p
		if p.loader == nil {
			return
		}
		for _, imp := range p.Types.Imports() {
			if dep := p.loader.pkgs[imp.Path()]; dep != nil {
				add(dep)
			}
		}
	}
	for _, p := range pkgs {
		add(p)
	}
	out := make([]*Package, 0, len(byPath))
	for _, p := range byPath {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// NewProgram builds the whole-program view of the requested packages:
// their import closure, so cross-package edges (a tcp hot function
// calling into simtime) resolve, and the call graph over it.
func NewProgram(pkgs []*Package) *Program {
	if len(pkgs) == 0 {
		return &Program{}
	}
	prog := &Program{
		Pkgs:    importClosure(pkgs),
		Fset:    pkgs[0].Fset,
		funcs:   make(map[*types.Func]*FuncInfo),
		callees: make(map[*types.Func][]Edge),
		walked:  make(map[*types.Func][]body),
	}

	// Index every function declaration in the closure.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fn, Pkg: pkg}
				prog.funcs[obj] = fi
				prog.ordered = append(prog.ordered, fi)
			}
		}
	}
	sort.Slice(prog.ordered, func(i, j int) bool {
		a, b := prog.ordered[i], prog.ordered[j]
		pa, pb := prog.Fset.Position(a.Decl.Pos()), prog.Fset.Position(b.Decl.Pos())
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		return pa.Line < pb.Line
	})

	// Named types declared in the closure that have methods: the
	// candidate set for interface dispatch.
	named := prog.namedWithMethods()

	for _, fi := range prog.ordered {
		prog.callees[fi.Obj] = prog.collectEdges(fi, named)
	}
	return prog
}

// FuncOf returns the FuncInfo for a function object declared in the
// program, or nil for stdlib/bodyless functions.
func (prog *Program) FuncOf(obj *types.Func) *FuncInfo { return prog.funcs[obj] }

// Functions returns every declared function, in file/line order.
func (prog *Program) Functions() []*FuncInfo { return prog.ordered }

// Callees returns the outgoing edges of fn, in call-site order (dynamic
// fan-out expands in deterministic type-name order).
func (prog *Program) Callees(fn *types.Func) []Edge { return prog.callees[fn] }

// namedWithMethods collects the named types in the program that declare
// or inherit methods, sorted by full name for deterministic dispatch
// expansion.
func (prog *Program) namedWithMethods() []*types.Named {
	seen := map[*types.Named]bool{}
	var out []*types.Named
	for _, fi := range prog.ordered {
		n := recvNamed(fi.Obj)
		if n == nil || seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Obj(), out[j].Obj()
		if a.Pkg() != nil && b.Pkg() != nil && a.Pkg().Path() != b.Pkg().Path() {
			return a.Pkg().Path() < b.Pkg().Path()
		}
		return a.Name() < b.Name()
	})
	return out
}

// collectEdges walks one function body and resolves its call sites.
// Function literal subtrees are skipped (see the Program doc).
func (prog *Program) collectEdges(fi *FuncInfo, named []*types.Named) []Edge {
	info := fi.Pkg.Info
	var edges []Edge
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calledFunc(info, call)
		if fn == nil {
			return true
		}
		if fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
					edges = append(edges, prog.dispatch(call.Pos(), sel.Recv(), iface, fn.Name(), named)...)
					return true
				}
			}
		}
		edges = append(edges, Edge{Callee: fn, Site: call.Pos()})
		return true
	})
	return edges
}

// dispatch expands an interface-method call to every program type whose
// method set implements the interface.
func (prog *Program) dispatch(site token.Pos, recv types.Type, iface *types.Interface, method string, named []*types.Named) []Edge {
	ifaceName := recv.String()
	if n, ok := recv.(*types.Named); ok {
		ifaceName = n.Obj().Name()
	}
	var out []Edge
	for _, t := range named {
		impl := types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
		if !impl {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, t.Obj().Pkg(), method)
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if prog.funcs[m] == nil {
			// Method inherited from an embedded stdlib type: no body in
			// the program; nothing to traverse.
			continue
		}
		out = append(out, Edge{Callee: m, Site: site, Dynamic: true, Iface: ifaceName})
	}
	return out
}

// callChain is one node of a breadth-first walk: a function and how the
// walk first got there, so the chain is a shortest one.
type callChain struct {
	fn   *FuncInfo
	prev *callChain
}

// String renders the chain from the walk's root as "a -> b -> c".
func (c *callChain) String() string {
	if c.prev == nil {
		return c.fn.Name()
	}
	return c.prev.String() + " -> " + c.fn.Name()
}

// Reach walks the call graph breadth-first from root and calls visit
// once for every declared function it reaches (root excluded), with
// the edge that first reached it and the shortest call chain from
// root. The walk does not continue through a function whose visit
// returns false.
func (prog *Program) Reach(root *FuncInfo, visit func(callee *FuncInfo, via Edge, chain *callChain) bool) {
	visited := map[*types.Func]bool{root.Obj: true}
	queue := []*callChain{{fn: root}}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		for _, e := range prog.Callees(node.fn.Obj) {
			callee := prog.FuncOf(e.Callee)
			if callee == nil || visited[e.Callee] {
				continue
			}
			visited[e.Callee] = true
			if next := (&callChain{fn: callee, prev: node}); visit(callee, e, next) {
				queue = append(queue, next)
			}
		}
	}
}

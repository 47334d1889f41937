package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeakAnalyzer looks for goroutines that can never be told to stop.
// The collector daemon, the Logstash TCP input and the config-P4 server
// all spawn per-connection and accept-loop goroutines; under production
// load a goroutine running an unbounded loop with no cancellation
// signal is a leak that accretes until the process dies. A goroutine
// body counts as cancellable when it can observe a stop: it references
// a context.Context, receives from a channel (done channel, select), or
// participates in a sync.WaitGroup — or when its unbounded loops can
// exit through a return or break (e.g. an accept loop that returns on
// listener-close errors).
var GoLeakAnalyzer = &Analyzer{
	Name: "goleak",
	Doc:  "go statements whose goroutine loops forever with no cancellation signal",
	Run:  eachPackage(runGoLeak),
}

func runGoLeak(pass *Pass, pkg *Package) {
	info := pkg.Info
	// Index same-package function declarations so `go s.loop()` can be
	// analysed through its body.
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			var what string
			switch fun := g.Call.Fun.(type) {
			case *ast.FuncLit:
				body, what = fun.Body, "goroutine literal"
			case *ast.Ident:
				if fd, ok := decls[info.Uses[fun]]; ok {
					body, what = fd.Body, "goroutine "+fun.Name
				}
			case *ast.SelectorExpr:
				if fd, ok := decls[info.Uses[fun.Sel]]; ok {
					body, what = fd.Body, "goroutine "+fun.Sel.Name
				}
			}
			if body == nil {
				return true
			}
			if loop := uncancellableLoop(info, body); loop != nil {
				pass.Reportf(g.Pos(), "%s loops forever with no cancellation signal (no context, done channel, WaitGroup, return or break) — it leaks under load", what)
			}
			return true
		})
	}
}

// uncancellableLoop returns an unbounded for-loop in body that has no
// way out and no stop signal, or nil.
func uncancellableLoop(info *types.Info, body *ast.BlockStmt) *ast.ForStmt {
	if referencesCancellation(info, body) {
		return nil
	}
	var found *ast.ForStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		escapes := false
		ast.Inspect(loop.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.ReturnStmt:
				escapes = true
			case *ast.BranchStmt:
				if m.Tok == token.BREAK || m.Tok == token.GOTO {
					escapes = true
				}
			case *ast.FuncLit:
				return false
			}
			return true
		})
		if !escapes {
			found = loop
		}
		return true
	})
	return found
}

// referencesCancellation reports whether the body can observe a stop
// signal: a context.Context value, a channel receive or select, or a
// sync.WaitGroup interaction.
func referencesCancellation(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.Ident:
			if t := info.TypeOf(n); t != nil && isNamed(t, "context", "Context") {
				found = true
			}
		case *ast.SelectorExpr:
			if t := info.TypeOf(n.X); t != nil && isNamed(t, "sync", "WaitGroup") {
				found = true
			}
		}
		return true
	})
	return found
}

package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ConfigReadAnalyzer polices the reconfiguration discipline introduced
// with the genconfig generation model (DESIGN.md §5.7): runtime-tunable
// configuration lives in immutable generation snapshots, and the
// boot-time Config fields that merely seed generation zero must never
// be read again once the system is running — a read of the seed copy
// on a packet or tick path silently bypasses every reconfiguration
// published since boot, and can observe a value torn against what the
// rest of the batch used.
//
// Two marker comments drive the pass:
//
//   - `p4:gen-seed` on a struct field declares it seed-only: its value
//     is copied into generation zero and is dead thereafter;
//   - `p4:gen-init` on a function declares it part of the seeding path
//     (constructors, default-filling helpers), where seed reads are
//     the whole point.
//
// Rule one reports every read of a gen-seed field outside a gen-init
// function. Writes are excluded: filling defaults in place is the
// seeding path's business, and a write cannot leak a stale value.
var ConfigReadAnalyzer = &Analyzer{
	Name: "configread",
	Doc:  "seed-only config fields (p4:gen-seed) must not be read outside seeding code (p4:gen-init)",
	Run:  runConfigRead,
}

const (
	genSeedMarker = "p4:gen-seed"
	genInitMarker = "p4:gen-init"
)

// commentHas reports whether any line of the comment group carries the
// marker.
func commentHas(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	return strings.Contains(cg.Text(), marker)
}

func runConfigRead(pass *Pass) {
	prog := pass.Program()

	// Phase one: collect the seed-only field objects across the whole
	// closure, keyed by types.Object identity so reads are caught in
	// any package.
	seedField := map[types.Object]bool{}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					if !commentHas(fld.Doc, genSeedMarker) && !commentHas(fld.Comment, genSeedMarker) {
						continue
					}
					for _, name := range fld.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							seedField[obj] = true
						}
					}
				}
				return true
			})
		}
	}

	// Phase two: per function, flag seed reads outside gen-init code.
	for _, pkg := range prog.Pkgs {
		info := pkg.Info
		parents := pkg.Parents()
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || commentHas(fd.Doc, genInitMarker) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					e, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					s, ok := info.Selections[e]
					if !ok || s.Kind() != types.FieldVal {
						return true
					}
					obj := s.Obj()
					if !seedField[obj] || isAssignTarget(parents, e) {
						return true
					}
					pass.Reportf(e.Pos(), "read of seed-only config field %s bypasses the generation snapshot: the field only seeds generation zero (p4:gen-seed), so this read misses every reconfiguration since boot; read the live generation (Store.Current) or mark the enclosing seeding helper p4:gen-init",
						objectLabel(obj))
					return true
				})
			}
		}
	}
}

// isAssignTarget reports whether the expression is written rather than
// read: the LHS of an assignment or an inc/dec statement.
func isAssignTarget(parents parentMap, n ast.Node) bool {
	switch p := parents[n].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == n {
				return true
			}
		}
	case *ast.IncDecStmt:
		return p.X == n
	}
	return false
}

package analysis

import (
	"go/ast"
	"go/token"
)

// DocCommentAnalyzer keeps the repository's reference documentation
// honest: godoc is the API contract readers reach for first, and an
// exported symbol without a doc comment is an undocumented promise. It
// reports:
//
//   - a package none of whose files carries a package comment;
//   - an exported package-level function, or a method on an exported
//     type, without a doc comment;
//   - an exported type, constant or variable declaration without a doc
//     comment on either the declaration group or the individual spec
//     (a documented const/var block covers its members; trailing
//     same-line comments do not count — godoc ignores them).
//
// Methods on unexported receiver types are exempt — they are not part
// of the package's godoc surface. Test files never reach the loader,
// so _test.go helpers are naturally out of scope.
var DocCommentAnalyzer = &Analyzer{
	Name: "doccomment",
	Doc:  "exported symbols or packages missing godoc comments",
	Run:  eachPackage(runDocComment),
}

func runDocComment(pass *Pass, pkg *Package) {
	checkPackageComment(pass, pkg)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFuncDoc(pass, d)
			case *ast.GenDecl:
				checkGenDoc(pass, d)
			}
		}
	}
}

// checkPackageComment requires at least one file in the package to
// carry a package comment; it reports once, on the first file's
// package clause.
func checkPackageComment(pass *Pass, pkg *Package) {
	if len(pkg.Files) == 0 {
		return
	}
	for _, f := range pkg.Files {
		if f.Doc != nil && len(f.Doc.List) > 0 {
			return
		}
	}
	first := pkg.Files[0]
	pass.Reportf(first.Name.Pos(), "package %s has no package comment in any file", first.Name.Name)
}

// checkFuncDoc flags exported functions and exported-receiver methods
// lacking a doc comment.
func checkFuncDoc(pass *Pass, d *ast.FuncDecl) {
	if !d.Name.IsExported() {
		return
	}
	if d.Recv != nil && !receiverExported(d.Recv) {
		return
	}
	if hasDoc(d.Doc) {
		return
	}
	kind := "function"
	if d.Recv != nil {
		kind = "method"
	}
	pass.Reportf(d.Name.Pos(), "exported %s %s has no doc comment", kind, d.Name.Name)
}

// receiverExported reports whether the method's receiver base type is
// an exported name (pointer receivers unwrap one level).
func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers look like Name[T]; unwrap the index expression.
	switch e := t.(type) {
	case *ast.IndexExpr:
		t = e.X
	case *ast.IndexListExpr:
		t = e.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}

// checkGenDoc flags exported specs in type/const/var declarations that
// have documentation on neither the group nor the spec itself.
func checkGenDoc(pass *Pass, d *ast.GenDecl) {
	switch d.Tok {
	case token.TYPE, token.CONST, token.VAR:
	default:
		return
	}
	groupDoc := hasDoc(d.Doc)
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if groupDoc || hasDoc(s.Doc) {
				continue
			}
			pass.Reportf(s.Name.Pos(), "exported type %s has no doc comment", s.Name.Name)
		case *ast.ValueSpec:
			if groupDoc || hasDoc(s.Doc) {
				continue
			}
			word := "var"
			if d.Tok == token.CONST {
				word = "const"
			}
			for _, name := range s.Names {
				if name.IsExported() {
					pass.Reportf(name.Pos(), "exported %s %s has no doc comment", word, name.Name)
				}
			}
		}
	}
}

// hasDoc reports whether the comment group exists and is non-empty.
func hasDoc(cg *ast.CommentGroup) bool {
	return cg != nil && len(cg.List) > 0
}

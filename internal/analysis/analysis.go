// Package analysis is the repository's domain-aware static-analysis
// layer: a small, stdlib-only analogue of golang.org/x/tools/go/analysis
// specialised for the invariants this P4-perfSONAR reproduction must
// preserve — nanosecond time units, lock discipline on shared
// control-plane state, checked I/O errors on the archiver paths, and
// cancellable goroutines in server code.
//
// A shared Loader parses and type-checks every package once; each
// Analyzer then walks the typed ASTs and reports Diagnostics. The
// cmd/p4lint driver runs the registry over package patterns and prints
// file:line: message lines (or GitHub Actions annotations).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Diagnostic is one analyzer finding, positioned in the original
// source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line: form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass (used by -only, in diagnostics and in
	// p4:lint-exempt comments).
	Name string
	// Doc is a one-line description for usage output.
	Doc string
	// Run inspects the loaded program, reporting findings through
	// pass.Reportf.
	Run func(pass *Pass)
}

// Pass is what one analyzer sees of one Run: the requested packages,
// and on demand the whole program around them.
type Pass struct {
	Analyzer *Analyzer
	// Pkgs are the requested packages. A pass that checks a package at
	// a time loops over them; facts that cross package boundaries come
	// from Program.
	Pkgs []*Package
	Fset *token.FileSet

	run *run
}

// run is the state the passes of one Run share.
type run struct {
	prog   *Program // built by the first pass that asks
	exempt map[exemptKey]bool
	diags  []Diagnostic
}

// Program returns the import closure of the requested packages with
// its call graph, built once per Run by the first pass that asks.
func (p *Pass) Program() *Program {
	if p.run.prog == nil {
		p.run.prog = NewProgram(p.Pkgs)
	}
	return p.run.prog
}

// Exempt reports whether a justified `p4:lint-exempt` comment naming
// this pass sits on pos's line or the line above. Reportf consults it,
// so a finding on an exempted line never surfaces; passes that carry
// facts away from a site (a time.Now that makes its callers
// wall-clocked, a Lock that makes its hot-path root dirty) consult it
// too, so an exempted site does not propagate to a distant root where
// the line comment cannot reach.
func (p *Pass) Exempt(pos token.Pos) bool {
	at := p.Fset.Position(pos)
	k := exemptKey{at.Filename, at.Line, p.Analyzer.Name}
	if p.run.exempt[k] {
		return true
	}
	k.line--
	return p.run.exempt[k]
}

// Reportf records a diagnostic at pos unless the line is exempted.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	if p.Exempt(pos) {
		return
	}
	p.run.diags = append(p.run.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// eachPackage makes a pass of a check that looks at one package at a
// time, by running it over every requested package.
func eachPackage(check func(pass *Pass, pkg *Package)) func(*Pass) {
	return func(pass *Pass) {
		for _, pkg := range pass.Pkgs {
			check(pass, pkg)
		}
	}
}

// All returns the full registry of passes, in usage order. -only
// selects a subset.
func All() []*Analyzer {
	return []*Analyzer{
		TimeUnitsAnalyzer,
		UncheckedErrAnalyzer,
		DocCommentAnalyzer,
		HotPathPropAnalyzer,
		LockOrderAnalyzer,
		DeterminismAnalyzer,
	}
}

// ByName resolves a comma-separated -only list against the registry.
func ByName(names []string) ([]*Analyzer, error) {
	all := All()
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			known := make([]string, len(all))
			for i, a := range all {
				known[i] = a.Name
			}
			return nil, fmt.Errorf("analysis: unknown analyzer %q (known: %v)", n, known)
		}
	}
	return out, nil
}

// Run executes the given analyzers over the packages and returns the
// combined diagnostics in deterministic order (file, line, pass,
// column, message). Every pass sees the same loaded program: the
// requested packages, and through Pass.Program their module import
// closure. Findings on a line covered by a justified
// `p4:lint-exempt pass: reason` comment are dropped; an exemption
// without a justification is itself a finding. A requested package
// that did not type-check yields one "typecheck" diagnostic per error
// whichever analyzers run: the passes silently miss bugs where type
// information is incomplete.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	fset := pkgs[0].Fset
	r := &run{exempt: map[exemptKey]bool{}}
	for _, pkg := range pkgs {
		for _, err := range pkg.TypeErrors {
			d := Diagnostic{Pos: token.Position{Filename: pkg.Dir}, Analyzer: "typecheck", Message: err.Error()}
			if terr, ok := err.(types.Error); ok {
				d.Pos, d.Message = terr.Fset.Position(terr.Pos), terr.Msg
			}
			r.diags = append(r.diags, d)
		}
	}
	r.scanExemptions(importClosure(pkgs), analyzers)
	for _, a := range analyzers {
		a.Run(&Pass{Analyzer: a, Pkgs: pkgs, Fset: fset, run: r})
	}

	out := r.diags
	sortDiagnostics(out)
	// A package listed twice (overlapping patterns) must not double its
	// findings.
	dedup := out[:0]
	for i, d := range out {
		if i > 0 && d == out[i-1] {
			continue
		}
		dedup = append(dedup, d)
	}
	return dedup
}

// exemptRe matches the line-level escape hatch
// `p4:lint-exempt <pass>: <justification>`. The justification is
// mandatory: an exemption must say why the finding does not apply, so
// a reviewer can audit it without rediscovering the context.
var exemptRe = regexp.MustCompile(`p4:lint-exempt\s+([a-z]+):[ \t]*(.*)`)

// exemptKey addresses one justified exemption: the comment's line and
// the pass it names.
type exemptKey struct {
	file string
	line int
	pass string
}

// scanExemptions reads every comment of the packages once, indexing the
// justified exemptions for Pass.Exempt and reporting those that name a
// running pass but carry no justification. Exemptions for passes not
// in the run set are not audited (running `-only lockorder` must not
// judge determinism exemptions it cannot check).
func (r *run) scanExemptions(pkgs []*Package, analyzers []*Analyzer) {
	running := map[string]bool{}
	for _, a := range analyzers {
		running[a.Name] = true
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := exemptRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					if strings.TrimSpace(m[2]) != "" {
						r.exempt[exemptKey{pos.Filename, pos.Line, m[1]}] = true
					} else if running[m[1]] {
						r.diags = append(r.diags, Diagnostic{
							Pos:      pos,
							Analyzer: m[1],
							Message:  fmt.Sprintf("p4:lint-exempt %s has no justification: explain why the finding does not apply", m[1]),
						})
					}
				}
			}
		}
	}
}

// parentMap records the enclosing node of every AST node in a file,
// letting analyzers look "up" the tree (e.g. is this conversion
// immediately multiplied by a unit constant?).
type parentMap map[ast.Node]ast.Node

func buildParents(files []*ast.File) parentMap {
	pm := parentMap{}
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				pm[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return pm
}

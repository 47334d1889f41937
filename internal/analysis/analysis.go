// Package analysis is the repository's domain-aware static-analysis
// layer: a small, stdlib-only analogue of golang.org/x/tools/go/analysis
// specialised for the invariants this P4-perfSONAR reproduction must
// preserve — register bit widths, nanosecond time units, lock
// discipline on shared control-plane state, checked I/O errors on the
// archiver paths, and cancellable goroutines in server code.
//
// A shared Loader parses and type-checks every package once; each
// Analyzer then walks the typed ASTs and reports Diagnostics. The
// cmd/p4lint driver runs the registry over package patterns and prints
// file:line: message lines (or JSON).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
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

// Analyzer is one static-analysis pass. Exactly one of Run (a
// per-package syntactic/type pass) and RunProgram (a whole-program
// dataflow pass over the call graph) is set.
type Analyzer struct {
	// Name identifies the pass (used by -only and in diagnostics).
	Name string
	// Doc is a one-line description for usage output.
	Doc string
	// Run inspects a type-checked package, reporting findings through
	// pass.Reportf.
	Run func(pass *Pass)
	// RunProgram inspects the whole program at once; facts (hotpath
	// annotations, atomic access sites, lock acquisitions) propagate
	// across function and package boundaries through the Program's
	// call graph.
	RunProgram func(pass *ProgramPass)
}

// Pass bundles everything an analyzer needs to inspect one package.
type Pass struct {
	Pkg      *Package
	Analyzer *Analyzer

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass bundles what a whole-program analyzer needs.
type ProgramPass struct {
	Prog     *Program
	Analyzer *Analyzer

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full registry of passes, in reporting order: the
// per-package syntactic passes (one AST walk each) first, then the
// whole-program dataflow passes, which build the module call graph and
// run cross-package fixpoints. One run loads and type-checks the
// program once for all of them; -only selects a subset.
func All() []*Analyzer {
	return []*Analyzer{
		LocksAnalyzer,
		TimeUnitsAnalyzer,
		RegWidthAnalyzer,
		UncheckedErrAnalyzer,
		GoLeakAnalyzer,
		HotAllocAnalyzer,
		DocCommentAnalyzer,

		HotPathPropAnalyzer,
		AtomicMixAnalyzer,
		LockOrderAnalyzer,
		DeterminismAnalyzer,
		ConfigReadAnalyzer,
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
// column, message). Whole-program analyzers run once over the module
// import closure of pkgs; per-package analyzers run per package.
// Findings suppressed by a justified `p4:lint-exempt pass: reason`
// comment are dropped; an exemption without a justification is itself
// a finding.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = NewProgram(pkgs)
		}
		pass := &ProgramPass{Prog: prog, Analyzer: a}
		a.RunProgram(pass)
		out = append(out, pass.diags...)
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Pkg: pkg, Analyzer: a}
			a.Run(pass)
			out = append(out, pass.diags...)
		}
	}

	scope := pkgs
	if prog != nil {
		scope = prog.Pkgs
	}
	out = applyExemptions(out, scope, analyzers)

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

// exemption is one parsed p4:lint-exempt directive.
type exemption struct {
	analyzer string
	reason   string
	pos      token.Position
}

// applyExemptions drops diagnostics covered by a justified exemption
// comment on the same line or the line directly above, and reports
// exemptions that name a running pass but carry no justification.
// Exemptions for passes not in the run set are left alone (running
// `-only locks` must not audit determinism exemptions it cannot
// check).
func applyExemptions(diags []Diagnostic, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	running := map[string]bool{}
	for _, a := range analyzers {
		running[a.Name] = true
	}
	// (file, line, pass) -> exemption
	type key struct {
		file string
		line int
		pass string
	}
	index := map[key]exemption{}
	var unjustified []exemption
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := exemptRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					ex := exemption{
						analyzer: m[1],
						reason:   strings.TrimSpace(m[2]),
						pos:      pkg.Fset.Position(c.Pos()),
					}
					if !running[ex.analyzer] {
						continue
					}
					if ex.reason == "" {
						unjustified = append(unjustified, ex)
						continue
					}
					index[key{ex.pos.Filename, ex.pos.Line, ex.analyzer}] = ex
				}
			}
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if _, ok := index[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}]; ok {
			continue
		}
		if _, ok := index[key{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}]; ok {
			continue
		}
		out = append(out, d)
	}
	for _, ex := range unjustified {
		out = append(out, Diagnostic{
			Pos:      ex.pos,
			Analyzer: ex.analyzer,
			Message:  fmt.Sprintf("p4:lint-exempt %s has no justification: explain why the finding does not apply", ex.analyzer),
		})
	}
	return out
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

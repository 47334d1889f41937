package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// wantRe extracts the expectation from a `// want "pattern"` comment.
// The pattern is a regular expression matched against the diagnostic
// message reported on the same line.
var wantRe = regexp.MustCompile(`//\s*want\s+"(.*)"`)

type wantComment struct {
	file    string
	line    int
	pattern string
	re      *regexp.Regexp
	matched bool
}

// sharedLoader is the one Loader every test in the package loads
// through, so the standard library and the module packages the fixtures
// import are type-checked from source once per test binary.
var sharedLoader = sync.OnceValues(func() (*Loader, error) { return NewLoader(".") })

// loadFixture type-checks testdata/src/<fixture> through the shared
// loader.
func loadFixture(t *testing.T, fixture string) []*Package {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dir := filepath.Join("testdata", "src", fixture)
	pkgs, err := loader.Load(".", dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages from %s, want 1", len(pkgs), dir)
	}
	return pkgs
}

// One test per registered analyzer, each over the fixture directory of
// the analyzer's name.
func TestTimeUnitsAnalyzer(t *testing.T)    { runFixture(t, "timeunits") }
func TestUncheckedErrAnalyzer(t *testing.T) { runFixture(t, "uncheckederr") }
func TestDocCommentAnalyzer(t *testing.T)   { runFixture(t, "doccomment") }
func TestHotPathProp(t *testing.T)          { runFixture(t, "hotpathprop") }
func TestLockOrder(t *testing.T)            { runFixture(t, "lockorder") }
func TestDeterminism(t *testing.T)          { runFixture(t, "determinism") }

// TestEveryAnalyzerHasFixture fails when a registered analyzer has no
// fixture directory, so a new pass cannot land untested.
func TestEveryAnalyzerHasFixture(t *testing.T) {
	for _, a := range All() {
		if _, err := os.Stat(filepath.Join("testdata", "src", a.Name)); err != nil {
			t.Errorf("analyzer %s has no fixture: %v", a.Name, err)
		}
	}
}

// runFixture runs the analyzer called name over testdata/src/<name> and
// requires the diagnostics to line up one-to-one with the fixture's
// want comments: every want must be matched by a diagnostic on its
// line, and every diagnostic must be claimed by a want.
func runFixture(t *testing.T, name string) {
	t.Helper()
	pkgs := loadFixture(t, name)
	pkg := pkgs[0]
	for _, e := range pkg.TypeErrors {
		t.Fatalf("fixture must type-check cleanly: %v", e)
	}

	var wants []*wantComment
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &wantComment{
					file:    pos.Filename,
					line:    pos.Line,
					pattern: m[1],
					re:      regexp.MustCompile(m[1]),
				})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", name)
	}

	analyzers, err := ByName([]string{name})
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	for _, d := range Run(pkgs, analyzers) {
		claimed := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s diagnostic matching %q", w.file, w.line, name, w.pattern)
		}
	}
}

package analysis

import (
	"go/token"
	"math/rand"
	"strings"
	"testing"
)

func diag(file string, line, col int, pass, msg string) Diagnostic {
	return Diagnostic{
		Pos:      token.Position{Filename: file, Line: line, Column: col},
		Analyzer: pass,
		Message:  msg,
	}
}

// TestDiagnosticOrdering pins the reporting order contract: file, then
// line, then pass, then column, then message — and nothing else, so
// the order never depends on analyzer registration or traversal order.
func TestDiagnosticOrdering(t *testing.T) {
	want := []Diagnostic{
		diag("a.go", 3, 9, "locks", "b"),
		diag("a.go", 7, 1, "doccomment", "x"),
		diag("a.go", 7, 1, "locks", "x"),
		diag("a.go", 7, 2, "locks", "x"),
		diag("a.go", 7, 2, "locks", "y"),
		diag("b.go", 1, 1, "determinism", "x"),
	}
	got := make([]Diagnostic, len(want))
	copy(got, want)
	// Deterministic shuffle: the test must not depend on the input
	// already being sorted.
	r := rand.New(rand.NewSource(1))
	r.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })

	sortDiagnostics(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRenderGitHub(t *testing.T) {
	var b strings.Builder
	RenderGitHub(&b, []Diagnostic{
		diag("internal/x/x.go", 12, 4, "lockorder", "mu held across I/O: 100% stall\nsecond line"),
	})
	got := b.String()
	want := "::error file=internal/x/x.go,line=12,col=4,title=p4lint lockorder::mu held across I/O: 100%25 stall%0Asecond line\n"
	if got != want {
		t.Fatalf("GitHub annotation mismatch:\ngot  %q\nwant %q", got, want)
	}
}

// TestRenderText keeps the plain format stable: editors and the CI log
// scraper both parse file:line:col: pass: message.
func TestRenderText(t *testing.T) {
	var b strings.Builder
	RenderText(&b, []Diagnostic{diag("a.go", 3, 9, "locks", "msg")})
	if got, want := b.String(), "a.go:3:9: locks: msg\n"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadFixtureProgram loads one fixture package and builds its Program.
func loadFixtureProgram(t *testing.T, fixture string) (*Program, *Package) {
	t.Helper()
	pkgs := loadFixture(t, fixture)
	for _, e := range pkgs[0].TypeErrors {
		t.Errorf("type error: %v", e)
	}
	return NewProgram(pkgs), pkgs[0]
}

// funcNamed finds a declared function by its diagnostic name
// ("callThrough", "base.Ping").
func funcNamed(t *testing.T, prog *Program, name string) *FuncInfo {
	t.Helper()
	for _, fi := range prog.Functions() {
		if fi.Name() == name {
			return fi
		}
	}
	t.Fatalf("program has no function %q (have %d functions)", name, len(prog.Functions()))
	return nil
}

// TestCallGraphEmbeddedDispatch checks method-set resolution through
// embedding: a promoted method reached through an interface resolves to
// the embedded type's declaration, for both the embedded type itself
// and the embedding type.
func TestCallGraphEmbeddedDispatch(t *testing.T) {
	prog, _ := loadFixtureProgram(t, "callgraph")

	ping := funcNamed(t, prog, "base.Ping")
	through := funcNamed(t, prog, "callThrough")

	edges := prog.Callees(through.Obj)
	var dynamic int
	for _, e := range edges {
		if e.Callee != ping.Obj {
			t.Errorf("callThrough edge to %s, want only base.Ping", e.Callee.FullName())
			continue
		}
		if !e.Dynamic || e.Iface != "pinger" {
			t.Errorf("edge dynamic=%v iface=%q, want interface dispatch via pinger", e.Dynamic, e.Iface)
		}
		dynamic++
	}
	// base implements pinger directly and derived implements it through
	// the embedded base: conservative expansion produces an edge for
	// each, both resolving to the one promoted body.
	if dynamic != 2 {
		t.Fatalf("callThrough has %d dispatch edges to base.Ping, want 2 (base and derived)", dynamic)
	}
}

// TestCallGraphStaticPromotedSelector checks the concrete-receiver
// path: selecting a promoted method on the embedding type is a static
// edge straight to the embedded declaration.
func TestCallGraphStaticPromotedSelector(t *testing.T) {
	prog, _ := loadFixtureProgram(t, "callgraph")

	ping := funcNamed(t, prog, "base.Ping")
	direct := funcNamed(t, prog, "callDirect")

	edges := prog.Callees(direct.Obj)
	if len(edges) != 1 {
		t.Fatalf("callDirect has %d edges, want 1", len(edges))
	}
	if edges[0].Callee != ping.Obj || edges[0].Dynamic {
		t.Fatalf("callDirect edge = {callee %s, dynamic %v}, want static base.Ping",
			edges[0].Callee.FullName(), edges[0].Dynamic)
	}

	// Two-hop reachability: chainEntry -> callDirect -> base.Ping.
	entry := funcNamed(t, prog, "chainEntry")
	hops := prog.Callees(entry.Obj)
	if len(hops) != 1 || hops[0].Callee != direct.Obj {
		t.Fatalf("chainEntry edges = %v, want the single static hop to callDirect", hops)
	}
}

// TestLoaderBuildTagTwins loads the twin fixture: only the default
// configuration's file may be parsed, or Marker is a redeclaration.
func TestLoaderBuildTagTwins(t *testing.T) {
	_, pkg := loadFixtureProgram(t, "buildtags")
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (the active twin)", len(pkg.Files))
	}
	name := filepath.Base(pkg.Fset.Position(pkg.Files[0].Pos()).Filename)
	if name != "active.go" {
		t.Fatalf("loaded %s, want active.go", name)
	}
}

// TestLoaderBrokenPackageYieldsTypeErrors requires a type-broken (but
// parseable) package to load with collected TypeErrors — a diagnostic,
// not a panic and not a hard failure that would abort the whole run.
func TestLoaderBrokenPackageYieldsTypeErrors(t *testing.T) {
	dir := filepath.Join("testdata", "src", "broken")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(".", dir)
	if err != nil {
		t.Fatalf("Load must not hard-fail on a type-broken package: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("broken fixture produced no TypeErrors")
	}
	found := false
	for _, e := range pkg.TypeErrors {
		if strings.Contains(e.Error(), "undefinedIdentifier") {
			found = true
		}
	}
	if !found {
		t.Fatalf("TypeErrors do not mention the undefined identifier: %v", pkg.TypeErrors)
	}

	// The analyzers must run over what was recovered without panicking.
	diags := Run(pkgs, All())
	_ = diags
}

// TestRunReportsTypeErrors requires a package that did not type-check
// to fail the run whichever analyzers were selected — here none: the
// passes miss bugs where type information is incomplete, so a clean
// report on such a package would be a false all-clear.
func TestRunReportsTypeErrors(t *testing.T) {
	diags := Run(loadFixture(t, "broken"), nil)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want the one type error: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "typecheck" || !strings.Contains(d.Message, "undefinedIdentifier") ||
		filepath.Base(d.Pos.Filename) != "broken.go" || d.Pos.Line != 8 {
		t.Fatalf("got %v, want a typecheck finding naming undefinedIdentifier at broken.go:8", d)
	}
}

package analysis

import (
	"path/filepath"
	"testing"
)

func TestLoaderResolvesModuleInternalImports(t *testing.T) {
	pkg := loadFixture(t, "timeunits")[0]
	// The fixture imports repro/internal/simtime; a clean type-check
	// proves the loader resolved it through the module, not GOPATH.
	for _, e := range pkg.TypeErrors {
		t.Errorf("type error: %v", e)
	}
	want := "repro/internal/analysis/testdata/src/timeunits"
	if pkg.Path != want {
		t.Errorf("import path = %q, want %q", pkg.Path, want)
	}
}

func TestLoadRecursiveSkipsTestdata(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	// Walking the analysis package itself must not descend into
	// testdata: fixtures are inputs, not packages under analysis.
	pkgs, err := loader.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if filepath.Base(filepath.Dir(p.Dir)) == "testdata" || filepath.Base(p.Dir) == "testdata" {
			t.Errorf("recursive load descended into testdata: %s", p.Dir)
		}
	}
	if len(pkgs) != 1 {
		t.Errorf("got %d packages under internal/analysis, want 1 (testdata skipped)", len(pkgs))
	}
}

func TestLoadHonorsBuildConstraints(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	// internal/packet carries a //go:build race twin of pool_norace.go;
	// the loader must pick the same file go build does, or the pair
	// type-checks as a redeclaration.
	pkgs, err := loader.Load(".", "../packet")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	for _, e := range pkg.TypeErrors {
		t.Errorf("type error: %v", e)
	}
	for _, f := range pkg.Files {
		name := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		if name == "pool_race.go" {
			t.Error("loader included the race-tagged pool_race.go")
		}
	}
}

func TestByNameRejectsUnknownAnalyzer(t *testing.T) {
	if _, err := ByName([]string{"nosuchpass"}); err == nil {
		t.Fatal("ByName must reject unknown analyzer names")
	}
	got, err := ByName([]string{"lockorder", "timeunits"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "lockorder" || got[1].Name != "timeunits" {
		t.Fatalf("ByName resolved %v", got)
	}
}

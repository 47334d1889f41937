package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// ciFederation is the CI-sized fleet: small flow population, default
// 2×2 topology, still running the full chaos timeline.
func ciFederation(t *testing.T) FederationConfig {
	t.Helper()
	return FederationConfig{
		FlowsPerSite:   96,
		PacketsPerFlow: 4,
		SampleFlows:    24,
		SpoolRoot:      t.TempDir(),
	}
}

func TestRunFederationAccounting(t *testing.T) {
	t.Parallel()
	r, err := RunFederation(ciFederation(t))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Balanced() {
		t.Fatalf("fleet out of balance:\n%s", r.Render())
	}
	if !r.Pass() {
		t.Fatalf("federation gate failed:\n%s", r.Render())
	}
	if len(r.Members) != 4 {
		t.Fatalf("members: %d", len(r.Members))
	}
	// Global archived == Σ per-member (emitted − dropped − fallback),
	// member by member, and the store total matches.
	var sum uint64
	for _, m := range r.Members {
		if !m.Balanced() {
			t.Fatalf("member %s/%s out of balance: %+v", m.Site, m.Switch, m)
		}
		sum += m.Archived
	}
	if sum != uint64(r.Fleet.Documents) || r.Fleet.Unstamped != 0 {
		t.Fatalf("archived sum %d != fleet documents %d (unstamped %d)", sum, r.Fleet.Documents, r.Fleet.Unstamped)
	}
	// Chaos phase actually happened and healed.
	if r.VictimSpilled == 0 || r.VictimReplayed == 0 {
		t.Fatalf("victim never spilled/replayed: %+v", r)
	}
	// Same-site tap points joined into paths with zero spread.
	if len(r.Fleet.Paths) == 0 || !r.PathsConsistent {
		t.Fatalf("path join: paths=%d consistent=%v", len(r.Fleet.Paths), r.PathsConsistent)
	}
}

func TestRunFederationWitnessStable(t *testing.T) {
	t.Parallel()
	a, err := RunFederation(ciFederation(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFederation(ciFederation(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Witness() != b.Witness() {
		t.Fatalf("witness not byte-stable at seed 42:\n--- run A ---\n%s\n--- run B ---\n%s", a.Witness(), b.Witness())
	}
	if !strings.Contains(a.Witness(), "fleet docs=") {
		t.Fatalf("witness shape: %s", a.Witness())
	}
	// This file pins CrossSite's answer on the CI-sized fleet (`make
	// witness` pins the paper-scale CSVs): a deterministic change to it
	// fails here.
	want, err := os.ReadFile(filepath.Join("testdata", "federation_seed42.witness"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Witness() != string(want) {
		t.Fatalf("witness differs from testdata/federation_seed42.witness:\n--- got ---\n%s--- want ---\n%s", a.Witness(), want)
	}
}

func TestRunFederationObsAndRender(t *testing.T) {
	t.Parallel()
	cfg := ciFederation(t)
	cfg.Obs = obs.NewRegistry()
	r, err := RunFederation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	cfg.Obs.WritePrometheus(&buf)
	scrape := buf.String()
	for _, want := range []string{
		"p4_shipper_alpha_sw2_emitted",
		"p4_archiver_pipeline_received",
		fmt.Sprintf("p4_archiver_store_documents %d\n", r.Fleet.Documents),
		"p4_archiver_store_bytes",
	} {
		if !strings.Contains(scrape, want) {
			t.Fatalf("scrape missing %q", want)
		}
	}
	out := r.Render()
	for _, want := range []string{"fleet federation", "victim", "paths"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	dir := t.TempDir()
	if err := r.SaveCSV(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"federation_members.csv", "federation_sites.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(data), "\n"); lines < 3 {
			t.Fatalf("%s too short: %d lines", name, lines)
		}
	}
}

func TestRunFederationRequiresSpool(t *testing.T) {
	t.Parallel()
	if _, err := RunFederation(FederationConfig{}); err == nil {
		t.Fatal("missing SpoolRoot must fail")
	}
}

func TestFederationPaperTopology(t *testing.T) {
	t.Parallel()
	cfg := FederationPaper("/tmp/x").withDefaults()
	var switches int
	for _, s := range cfg.Sites {
		switches += s.Switches
	}
	if switches != 10 || len(cfg.Sites) != 3 {
		t.Fatalf("paper topology: %d sites, %d switches", len(cfg.Sites), switches)
	}
	if cfg.FlowsPerSite*len(cfg.Sites) < 200_000 {
		t.Fatalf("paper fleet too small: %d flows", cfg.FlowsPerSite*len(cfg.Sites))
	}
}

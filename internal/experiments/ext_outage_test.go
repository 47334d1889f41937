package experiments

import "testing"

// TestExtOutageExactAccounting is the end-to-end chaos scenario of the
// shipping path: archiver down at startup, recovery with replay, a
// mid-run kill, and a final recovery — with every count asserted
// exactly, not approximately. Faults are scripted (faultnet) and the
// jitter RNG is seeded, so the scenario is deterministic in its
// accounting on every run.
func TestExtOutageExactAccounting(t *testing.T) {
	t.Parallel()
	res, err := RunExtOutage(OutageConfig{SpoolDir: t.TempDir(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Render())

	if res.Ship.Emitted == 0 {
		t.Fatal("scenario emitted nothing — no traffic reached the control plane")
	}
	// The invariant, spelled out so a failure names the leak:
	if res.Archived != res.Ship.Delivered() {
		t.Fatalf("archiver received %d but shipper claims %d delivered", res.Archived, res.Ship.Delivered())
	}
	if got, want := res.Archived, res.Ship.Emitted-res.Ship.Dropped-res.Ship.Fallback; got != want {
		t.Fatalf("archived=%d, want emitted−dropped−fallback=%d (%s)", got, want, res.Ship)
	}
	if res.Ship.Queued != 0 || res.Ship.SpoolPending != 0 {
		t.Fatalf("records left behind after shutdown: %s", res.Ship)
	}
	if !res.Balanced() {
		t.Fatalf("accounting unbalanced: %s", res.Ship)
	}

	// The scenario must actually have exercised the machinery it
	// claims to: an opened breaker, disk spill, and in-order replay.
	if res.Ship.BreakerOpens < 2 {
		t.Fatalf("breaker opened %d times, want ≥2 (startup outage + mid-run kill)", res.Ship.BreakerOpens)
	}
	if res.Ship.Spilled == 0 || res.Ship.Replayed == 0 {
		t.Fatalf("disk tier not exercised: %s", res.Ship)
	}
	if res.Ship.Reconnects == 0 {
		t.Fatalf("no reconnects recorded: %s", res.Ship)
	}
}

// TestExtOutageRequiresSpoolDir pins the config contract.
func TestExtOutageRequiresSpoolDir(t *testing.T) {
	t.Parallel()
	if _, err := RunExtOutage(OutageConfig{}); err == nil {
		t.Fatal("missing SpoolDir must error")
	}
}

package experiments

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestReconfigUnderLoad runs the reconfiguration harness at reduced
// scale: a wire-channel storm against the witness and the
// generation-boundary escalation check. The name matches the chaos CI
// job's -run pattern. It is not parallel, so the goroutine count it
// takes around the run is its own: the storm goroutine and the config
// server it starts must both be gone once the run returns.
func TestReconfigUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()
	res, err := RunReconfigUnderLoad(ReconfigConfig{StormCommands: 60})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline=%d now=%d", baseline, runtime.NumGoroutine())
		}
	}
	t.Logf("\n%s", res.Render())

	if !res.WitnessIdentical {
		t.Errorf("witness diverged under a no-op config storm (%d reports)", res.WitnessReports)
	}
	if res.StormAccepted == 0 || res.StormRejected == 0 || res.StormFaulted == 0 || res.StormMalformed == 0 {
		t.Errorf("storm missed a command class: %d ok / %d rejected / %d faulted / %d malformed",
			res.StormAccepted, res.StormRejected, res.StormFaulted, res.StormMalformed)
	}
	if res.StormSeqDelta != res.StormAccepted {
		t.Errorf("generation seq advanced %d for %d accepted commands", res.StormSeqDelta, res.StormAccepted)
	}
	if res.AlertsControl != 1 || res.AlertsRetuned != 1 {
		t.Errorf("each run must raise exactly one alert: control=%d retuned=%d",
			res.AlertsControl, res.AlertsRetuned)
	}
	if res.EscalatedWindowRetuned >= res.EscalatedWindowControl {
		t.Errorf("threshold raise did not de-escalate at the generation boundary: window reports control=%d retuned=%d",
			res.EscalatedWindowControl, res.EscalatedWindowRetuned)
	}
	if !res.Passed() {
		t.Error("Passed() must agree with the individual invariants")
	}
}

// TestReconfigWireStormCountIsStable is the regression for the
// seed-42 storm line flipping 80/79/78 accepted between runs: 64
// default-size storms, eight at a time so the runs contend for the CPU
// the way a busy host does, must each accept exactly the two no-op
// commands in every five.
func TestReconfigWireStormCountIsStable(t *testing.T) {
	t.Parallel()
	cfg := ReconfigConfig{}.withDefaults()
	want := uint64(2 * cfg.StormCommands / 5)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res := &ReconfigResult{Config: cfg}
				_, cp := reconfigScenario(cfg, 0, runWireStorm(cfg, res))
				if res.StormAccepted != want || cp.ConfigSeq() != want {
					t.Errorf("storm accepted %d commands (seq %d), want %d: %d rejected / %d faulted / %d malformed",
						res.StormAccepted, cp.ConfigSeq(), want,
						res.StormRejected, res.StormFaulted, res.StormMalformed)
				}
			}
		}()
	}
	wg.Wait()
}

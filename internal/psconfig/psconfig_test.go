package psconfig

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/controlplane"
)

// fakeTarget implements Target with the same transactional contract
// as the real control plane: the mutation runs on a scratch copy and
// an error publishes nothing.
type fakeTarget struct {
	rc controlplane.RuntimeConfig
}

func newFakeTarget() *fakeTarget { return &fakeTarget{} }

func (f *fakeTarget) Update(mut func(*controlplane.RuntimeConfig) error) error {
	next := f.rc
	if err := mut(&next); err != nil {
		return err
	}
	f.rc = next
	return nil
}

func (f *fakeTarget) rate(m controlplane.Metric) float64 {
	return f.rc.MetricConfig(m).SamplesPerSecond
}

func (f *fakeTarget) alert(m controlplane.Metric) [2]float64 {
	mc := f.rc.MetricConfig(m)
	return [2]float64{mc.AlertThreshold, mc.AlertSamplesPerSecond}
}

// TestFigure6Line1 parses `config-P4 --metric throughput
// --samples_per_second 1` — the first command of Figure 6.
func TestFigure6Line1(t *testing.T) {
	cmd, err := ParseConfigP4([]string{"--metric", "throughput", "--samples_per_second", "1"})
	if err != nil {
		t.Fatal(err)
	}
	tgt := newFakeTarget()
	if err := cmd.Apply(tgt); err != nil {
		t.Fatal(err)
	}
	if tgt.rate(controlplane.MetricThroughput) != 1 {
		t.Fatalf("config: %+v", tgt.rc)
	}
	for _, m := range controlplane.AllMetrics() {
		if m != controlplane.MetricThroughput && tgt.rate(m) != 0 {
			t.Fatalf("metric %s configured unexpectedly: %+v", m, tgt.rc)
		}
		if tgt.alert(m) != [2]float64{} {
			t.Fatalf("alert for %s configured unexpectedly: %+v", m, tgt.rc)
		}
	}
}

// TestFigure6Line2 parses the RTT command of Figure 6.
func TestFigure6Line2(t *testing.T) {
	cmd, err := ParseConfigP4([]string{"--metric", "RTT", "--samples_per_second", "2"})
	if err == nil {
		_ = cmd
		t.Fatal("uppercase RTT is not a valid metric name; the CLI uses rtt")
	}
	cmd, err = ParseConfigP4([]string{"--metric", "rtt", "--samples_per_second", "2"})
	if err != nil {
		t.Fatal(err)
	}
	tgt := newFakeTarget()
	cmd.Apply(tgt)
	if tgt.rate(controlplane.MetricRTT) != 2 {
		t.Fatalf("config: %+v", tgt.rc)
	}
}

// TestFigure6Line3 parses the alert command of Figure 6: queue
// occupancy alerts at 30% and escalates to 10 samples/second.
func TestFigure6Line3(t *testing.T) {
	cmd, err := ParseConfigP4([]string{
		"--metric", "queue_occupancy", "--alert", "--threshold", "30", "--samples_per_second", "10"})
	if err != nil {
		t.Fatal(err)
	}
	tgt := newFakeTarget()
	if err := cmd.Apply(tgt); err != nil {
		t.Fatal(err)
	}
	if got := tgt.alert(controlplane.MetricQueueOccupancy); got[0] != 30 || got[1] != 10 {
		t.Fatalf("alert config: %v", got)
	}
}

func TestNoMetricAppliesToAll(t *testing.T) {
	cmd, err := ParseConfigP4([]string{"--samples_per_second", "5"})
	if err != nil {
		t.Fatal(err)
	}
	tgt := newFakeTarget()
	cmd.Apply(tgt)
	for _, m := range controlplane.AllMetrics() {
		if tgt.rate(m) != 5 {
			t.Fatalf("metric %s not configured", m)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := [][]string{
		{},           // nothing to configure
		{"--metric"}, // missing value
		{"--metric", "bogus", "--samples_per_second", "1"}, // bad metric
		{"--samples_per_second", "abc"},                    // bad rate
		{"--samples_per_second", "-1"},                     // negative rate
		{"--alert"},                                        // alert without threshold
		{"--threshold", "xyz", "--alert"},                  // bad threshold
		{"--unknown", "1"},                                 // unknown flag
	}
	for i, args := range cases {
		if _, err := ParseConfigP4(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestCommandString(t *testing.T) {
	cmd, _ := ParseConfigP4([]string{"--metric", "queue_occupancy", "--alert", "--threshold", "30", "--samples_per_second", "10"})
	want := "psconfig config-P4 --metric queue_occupancy --alert --threshold 30 --samples_per_second 10"
	if cmd.String() != want {
		t.Fatalf("got %q", cmd.String())
	}
}

func TestApplyAgainstRealControlPlane(t *testing.T) {
	// The Target interface must be satisfied by the actual control
	// plane; configure it end to end.
	cp := newRealControlPlane(t)
	cmd, _ := ParseConfigP4([]string{"--metric", "throughput", "--samples_per_second", "4"})
	if err := cmd.Apply(cp); err != nil {
		t.Fatal(err)
	}
	if got := cp.MetricConfigFor(controlplane.MetricThroughput).SamplesPerSecond; got != 4 {
		t.Fatalf("rate=%f", got)
	}
	alert, _ := ParseConfigP4([]string{"--metric", "rtt", "--alert", "--threshold", "90", "--samples_per_second", "20"})
	if err := alert.Apply(cp); err != nil {
		t.Fatal(err)
	}
	mc := cp.MetricConfigFor(controlplane.MetricRTT)
	if mc.AlertThreshold != 90 || mc.AlertSamplesPerSecond != 20 {
		t.Fatalf("alert config: %+v", mc)
	}
}

// TestApplyFailingAllMetricsChangesNothing pins the transactional
// contract at the psconfig layer: an all-metrics command that fails
// validation (rate above the control plane's hard cap, which parses
// fine client-side) leaves the runtime config byte-identical and
// publishes no generation. Under the old per-metric Target this was
// the partial-application bug: metrics before the failing one kept
// the new rate.
func TestApplyFailingAllMetricsChangesNothing(t *testing.T) {
	cp := newRealControlPlane(t)
	// Give each metric a distinct rate so partial application would be
	// visible on whichever prefix got written.
	for i, m := range controlplane.AllMetrics() {
		if err := cp.SetRate(m, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := json.Marshal(cp.RuntimeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	gens := cp.ConfigSeq()

	over := fmt.Sprintf("%g", controlplane.MaxSamplesPerSecond*2)
	cmd, err := ParseConfigP4([]string{"--samples_per_second", over})
	if err != nil {
		t.Fatalf("over-cap rate must parse client-side: %v", err)
	}
	if err := cmd.Apply(cp); err == nil {
		t.Fatal("over-cap all-metrics command must be rejected")
	}

	after, err := json.Marshal(cp.RuntimeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed command mutated config:\nbefore %s\nafter  %s", before, after)
	}
	if got := cp.ConfigSeq(); got != gens {
		t.Fatalf("failed command published a generation: %d -> %d", gens, got)
	}
}

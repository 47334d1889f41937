package core

import (
	"strings"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/psconfig"
	"repro/internal/simtime"
)

const agentTemplate = `{
  "archives": {
    "opensearch": {"archiver": "opensearch"}
  },
  "tasks": {
    "p4-monitoring": {"type": "p4", "spec": {"metric": "throughput", "samples_per_second": "2"}},
    "p4-qocc-alert": {"type": "p4", "spec": {"metric": "queue_occupancy", "alert": "true", "threshold": "30", "samples_per_second": "10"}},
    "mesh-throughput": {"type": "throughput", "interval": "PT20S",
      "spec": {"src": "ps-local", "dst": "ps1", "duration": "PT3S"}},
    "mesh-latency": {"type": "latency", "interval": "PT15S",
      "spec": {"src": "ps-local", "dst": "ps2", "count": "5"}},
    "mesh-trace": {"type": "trace", "interval": "PT30S",
      "spec": {"src": "dtn-internal", "dst": "dtn3", "count": "6"}}
  }
}`

func TestApplyPSConfigTemplate(t *testing.T) {
	s := NewSystem(scaledOptions())
	tpl, err := psconfig.ParseTemplate([]byte(agentTemplate))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyPSConfigTemplate(tpl); err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(40 * simtime.Second)

	// The p4 tasks configured the control plane.
	if got := s.ControlPlane.MetricConfigFor(controlplane.MetricThroughput).SamplesPerSecond; got != 2 {
		t.Fatalf("throughput rate %f, want 2", got)
	}
	mc := s.ControlPlane.MetricConfigFor(controlplane.MetricQueueOccupancy)
	if mc.AlertThreshold != 30 || mc.AlertSamplesPerSecond != 10 {
		t.Fatalf("alert config %+v", mc)
	}

	// The classic tasks ran on schedule: throughput at 1,21s -> 2 runs;
	// latency at 1,16,31 -> 3; trace at 1,31 -> 2.
	if got := len(s.Scheduler.Throughput); got != 2 {
		t.Fatalf("throughput runs %d, want 2", got)
	}
	if got := len(s.Scheduler.Latency); got != 3 {
		t.Fatalf("latency runs %d, want 3", got)
	}
	if got := len(s.Scheduler.Traces); got != 2 {
		t.Fatalf("trace runs %d, want 2", got)
	}
	if !s.Scheduler.Traces[0].Reached {
		t.Fatal("trace did not reach dtn3")
	}
}

func TestApplyTemplateErrors(t *testing.T) {
	s := NewSystem(scaledOptions())
	cases := []string{
		`{"tasks": {"x": {"type": "warp-drive"}}}`,
		`{"tasks": {"x": {"type": "throughput", "spec": {"src": "nope", "dst": "ps1"}}}}`,
		`{"tasks": {"x": {"type": "throughput", "interval": "whenever", "spec": {"src": "ps-local", "dst": "ps1"}}}}`,
		`{"tasks": {"x": {"type": "p4", "spec": {"metric": "bogus"}}}}`,
	}
	for i, raw := range cases {
		tpl, err := psconfig.ParseTemplate([]byte(raw))
		if err != nil {
			t.Fatalf("case %d: template parse: %v", i, err)
		}
		if err := s.ApplyPSConfigTemplate(tpl); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

// TestApplyTemplateCounts pins the "count" contract: a missing key is
// 10, anything that is not an integer the probe header can number is an
// error naming the task. The 2⁶³ row overflows int64.
func TestApplyTemplateCounts(t *testing.T) {
	s := NewSystem(scaledOptions())
	cases := []struct {
		typ, count string
		ok         bool
	}{
		{"trace", "", true},
		{"trace", "1", true},
		{"trace", "255", true},
		{"trace", "256", false},
		{"trace", "0", false},
		{"trace", "-3", false},
		{"trace", "ten", false},
		{"trace", "9223372036854775808", false},
		{"latency", "65535", true},
		{"latency", "65536", false},
		{"latency", "0", false},
		{"latency", "5x", false},
	}
	for _, c := range cases {
		spec := `"src": "ps-local", "dst": "ps2"`
		if c.count != "" {
			spec += `, "count": "` + c.count + `"`
		}
		raw := `{"tasks": {"probe": {"type": "` + c.typ + `", "spec": {` + spec + `}}}}`
		tpl, err := psconfig.ParseTemplate([]byte(raw))
		if err != nil {
			t.Fatalf("%s count %q: template parse: %v", c.typ, c.count, err)
		}
		err = s.ApplyPSConfigTemplate(tpl)
		if c.ok && err != nil {
			t.Errorf("%s count %q: %v", c.typ, c.count, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), `task "probe"`)) {
			t.Errorf("%s count %q: error %v, want one naming the task", c.typ, c.count, err)
		}
	}
}

func TestHostByName(t *testing.T) {
	s := NewSystem(scaledOptions())
	for _, name := range []string{"dtn-internal", "ps-local", "dtn1", "dtn3", "ps2"} {
		h, err := s.HostByName(name)
		if err != nil || h.Name() != name {
			t.Fatalf("lookup %q: %v", name, err)
		}
	}
	if _, err := s.HostByName("nonexistent"); err == nil {
		t.Fatal("unknown host must error")
	}
}

package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/psconfig"
	"repro/internal/simtime"
	"repro/internal/tcp"
)

// ApplyPSConfigTemplate plays the role of the pSConfig agent on the
// local perfSONAR node: it consumes a template document and turns its
// tasks into running configuration — "p4" tasks program the switch
// control plane (the paper's extension), and classic "throughput",
// "latency" and "trace" tasks schedule the corresponding active tests
// on pScheduler.
//
// Task spec fields for active tests:
//
//	src, dst   host names ("ps-local", "ps1", "dtn2", ...)
//	interval   ISO-8601 duration between runs (task.Interval)
//	duration   throughput test length (default PT5S)
//	count      latency probe count (1–65535) / trace max hops (1–255);
//	           default 10
func (s *System) ApplyPSConfigTemplate(tpl *psconfig.Template) error {
	// The paper's config-P4 tasks first.
	cmds, err := tpl.P4Commands()
	if err != nil {
		return err
	}
	for _, cmd := range cmds {
		if err := cmd.Apply(s.ControlPlane); err != nil {
			return err
		}
	}

	// Classic scheduled tests, in sorted task order: template maps are
	// unordered, and the scheduler's event sequence (and therefore the
	// witness output) must not depend on Go's map iteration order.
	names := make([]string, 0, len(tpl.Tasks))
	for name := range tpl.Tasks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		task := tpl.Tasks[name]
		switch task.Type {
		case "p4":
			continue // handled above
		case "throughput", "latency", "trace":
		default:
			return fmt.Errorf("core: task %q: unsupported type %q", name, task.Type)
		}

		src, err := s.HostByName(task.Spec["src"])
		if err != nil {
			return fmt.Errorf("core: task %q: %w", name, err)
		}
		dst, err := s.HostByName(task.Spec["dst"])
		if err != nil {
			return fmt.Errorf("core: task %q: %w", name, err)
		}
		interval := simtime.Time(0)
		if task.Interval != "" {
			interval, err = psconfig.ParseISODuration(task.Interval)
			if err != nil {
				return fmt.Errorf("core: task %q: %w", name, err)
			}
		} else {
			interval = 60 * simtime.Second
		}

		switch task.Type {
		case "throughput":
			dur := 5 * simtime.Second
			if v := task.Spec["duration"]; v != "" {
				dur, err = psconfig.ParseISODuration(v)
				if err != nil {
					return fmt.Errorf("core: task %q: %w", name, err)
				}
			}
			s.Scheduler.ScheduleThroughput(src, dst, simtime.Second, interval, dur,
				tcp.Config{MSS: 1448})
		case "latency":
			count, err := specCount(task.Spec, math.MaxUint16)
			if err != nil {
				return fmt.Errorf("core: task %q: %w", name, err)
			}
			s.Scheduler.ScheduleLatency(src, dst, simtime.Second, interval,
				count, 200*simtime.Millisecond)
		case "trace":
			hops, err := specCount(task.Spec, math.MaxUint8)
			if err != nil {
				return fmt.Errorf("core: task %q: %w", name, err)
			}
			s.Scheduler.ScheduleTrace(src, dst, simtime.Second, interval, hops)
		}
	}
	return nil
}

// specCount reads a task's "count": 10 when the key is absent, else a
// decimal in [1, hi]. hi is what the probe header can number: a
// trace's TTL is 8 bits, a latency probe's IP ID 16.
func specCount(spec map[string]string, hi int) (int, error) {
	v, ok := spec["count"]
	if !ok {
		return 10, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 || n > hi {
		return 0, fmt.Errorf("count %q: want an integer in 1–%d", v, hi)
	}
	return n, nil
}

// HostByName resolves a topology host by its name ("dtn-internal",
// "ps-local", "dtn1", "ps3", ...).
func (s *System) HostByName(name string) (*tcp.Host, error) {
	switch name {
	case s.InternalDTN.Name():
		return s.InternalDTN, nil
	case s.LocalPerfNode.Name():
		return s.LocalPerfNode, nil
	}
	for i := 0; i < ExternalNetworks; i++ {
		if s.ExternalDTNs[i].Name() == name {
			return s.ExternalDTNs[i], nil
		}
		if s.ExternalPerf[i].Name() == name {
			return s.ExternalPerf[i], nil
		}
	}
	return nil, fmt.Errorf("core: unknown host %q", name)
}

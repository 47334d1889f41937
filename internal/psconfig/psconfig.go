// Package psconfig models what the paper adds to the perfSONAR
// configuration layer: the `config-P4` command (Figure 6) through which
// a perfSONAR node configures the programmable switch's control plane
// at run time — reporting rates per metric and alert thresholds with
// escalated rates — and the TCP wire protocol that carries it from
// cmd/psconfig to the collector.
package psconfig

import (
	"fmt"
	"strconv"

	"repro/internal/controlplane"
)

// Target is what config-P4 configures: the switch control plane (or a
// remote proxy speaking to one). Update must be transactional — the
// mutation runs against a scratch copy of the runtime config and an
// error publishes nothing — so a config-P4 command either applies to
// every metric it names or to none of them.
type Target interface {
	Update(mut func(*controlplane.RuntimeConfig) error) error
}

// Command is one parsed `psconfig config-P4 ...` invocation.
type Command struct {
	// Metric the configuration applies to; empty applies to all four
	// metrics ("The configuration will be applied to all metrics if the
	// administrator does not use the --metric parameter").
	Metric string
	// SamplesPerSecond is the reporting rate. Without --alert it is the
	// base rate; with --alert it is the escalated rate applied once the
	// threshold trips (Figure 6, line 3).
	SamplesPerSecond float64
	// Alert marks an alert-threshold configuration.
	Alert bool
	// Threshold is the alerting threshold (--threshold), in the
	// metric's units.
	Threshold float64

	hasSamples bool
}

// ParseConfigP4 parses the argument list following `config-P4`.
// Supported flags (Figure 6): --metric <name>, --samples_per_second
// <rate>, --alert, --threshold <value>.
func ParseConfigP4(args []string) (Command, error) {
	var cmd Command
	i := 0
	next := func(flag string) (string, error) {
		i++
		if i >= len(args) {
			return "", fmt.Errorf("psconfig: %s requires a value", flag)
		}
		return args[i], nil
	}
	for ; i < len(args); i++ {
		switch args[i] {
		case "--metric":
			v, err := next("--metric")
			if err != nil {
				return cmd, err
			}
			if !controlplane.ValidMetric(v) {
				return cmd, fmt.Errorf("psconfig: unknown metric %q (valid: throughput, packet_loss, rtt, queue_occupancy)", v)
			}
			cmd.Metric = v
		case "--samples_per_second":
			v, err := next("--samples_per_second")
			if err != nil {
				return cmd, err
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 {
				return cmd, fmt.Errorf("psconfig: invalid samples_per_second %q", v)
			}
			cmd.SamplesPerSecond = f
			cmd.hasSamples = true
		case "--alert":
			cmd.Alert = true
		case "--threshold":
			v, err := next("--threshold")
			if err != nil {
				return cmd, err
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 {
				return cmd, fmt.Errorf("psconfig: invalid threshold %q", v)
			}
			cmd.Threshold = f
		default:
			return cmd, fmt.Errorf("psconfig: unknown flag %q", args[i])
		}
	}
	if cmd.Alert && cmd.Threshold <= 0 {
		return cmd, fmt.Errorf("psconfig: --alert requires --threshold")
	}
	if !cmd.Alert && !cmd.hasSamples {
		return cmd, fmt.Errorf("psconfig: nothing to configure (need --samples_per_second and/or --alert --threshold)")
	}
	return cmd, nil
}

// metricsFor expands the command's target metric list.
func (c Command) metricsFor() []controlplane.Metric {
	if c.Metric != "" {
		return []controlplane.Metric{controlplane.Metric(c.Metric)}
	}
	return controlplane.AllMetrics()
}

// Apply pushes the configuration into the target as one transaction:
// all metrics the command names change together, and any per-metric
// error (even on the last of four metrics) leaves the target's config
// exactly as it was.
func (c Command) Apply(t Target) error {
	return t.Update(func(rc *controlplane.RuntimeConfig) error {
		for _, m := range c.metricsFor() {
			if c.Alert {
				if err := rc.SetAlert(m, c.Threshold, c.SamplesPerSecond); err != nil {
					return err
				}
			} else if c.hasSamples {
				if err := rc.SetRate(m, c.SamplesPerSecond); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// String renders the command back in Figure 6 syntax.
func (c Command) String() string {
	s := "psconfig config-P4"
	if c.Metric != "" {
		s += " --metric " + c.Metric
	}
	if c.Alert {
		s += fmt.Sprintf(" --alert --threshold %g", c.Threshold)
	}
	if c.hasSamples {
		s += fmt.Sprintf(" --samples_per_second %g", c.SamplesPerSecond)
	}
	return s
}

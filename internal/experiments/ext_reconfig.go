package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/faultnet"
	"repro/internal/packet"
	"repro/internal/psconfig"
	"repro/internal/simtime"
)

// This file implements the reconfigure-under-load robustness
// experiment: the paper's config-P4 channel (Figure 6) exercised
// *while* the control plane extracts reports, proving the
// generation-based reconfiguration model of DESIGN.md §5.7:
//
//	phase B  no-op config storm vs witness — the same control-plane
//	         scenario runs twice, once quiet and once under a config
//	         storm of no-op, invalid, malformed and fault-injected
//	         commands over the real wire protocol; the emitted report
//	         stream must be byte-identical, and the generation
//	         sequence must advance by exactly the accepted commands.
//	phase C  generation boundary semantics — raising the rtt alert
//	         threshold mid-escalation must de-escalate the reporting
//	         rate at the next tick that reads the new generation, not
//	         at the next natural rtt transition.
type ReconfigConfig struct {
	// StormCommands is the phase B wire-command count (default 200,
	// cycling no-op / invalid / fault-injected / malformed).
	StormCommands int
	Seed          uint64
}

// reconfigDuration is the phase B/C virtual scenario length: rtt
// degrades at 3s and recovers at 6s.
const reconfigDuration = 9 * simtime.Second

func (c ReconfigConfig) withDefaults() ReconfigConfig {
	if c.StormCommands <= 0 {
		c.StormCommands = 200
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// ReconfigResult carries the outcome of both phases.
type ReconfigResult struct {
	Config ReconfigConfig

	// Phase B: witness determinism under a wire-channel storm.
	StormAccepted    uint64
	StormRejected    uint64
	StormFaulted     uint64
	StormMalformed   uint64
	StormSeqDelta    uint64
	WitnessReports   int
	WitnessIdentical bool

	// Phase C: escalation transitions at generation boundaries.
	AlertsControl          int
	AlertsRetuned          int
	EscalatedWindowControl int
	EscalatedWindowRetuned int

	Log []string
}

// Passed reports whether every reconfiguration invariant held.
func (r *ReconfigResult) Passed() bool {
	return r.WitnessIdentical &&
		r.StormSeqDelta == r.StormAccepted &&
		r.AlertsControl == 1 && r.AlertsRetuned == 1 &&
		r.EscalatedWindowRetuned < r.EscalatedWindowControl
}

// Render draws the scenario summary.
func (r *ReconfigResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: reconfiguration under load (config-P4 generations, DESIGN.md §5.7)\n")
	for _, l := range r.Log {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	fmt.Fprintf(&b, "phase B: storm %d ok / %d rejected / %d faulted / %d malformed, seq advanced %d, witness identical %v (%d reports)\n",
		r.StormAccepted, r.StormRejected, r.StormFaulted, r.StormMalformed, r.StormSeqDelta, r.WitnessIdentical, r.WitnessReports)
	fmt.Fprintf(&b, "phase C: alerts %d/%d, escalated-window reports control=%d retuned=%d\n",
		r.AlertsControl, r.AlertsRetuned, r.EscalatedWindowControl, r.EscalatedWindowRetuned)
	fmt.Fprintf(&b, "all invariants held: %v\n", r.Passed())
	return b.String()
}

// reconfigPlane is a deterministic stand-in data plane for phases B/C:
// one tracked flow whose RTT is scripted by the scenario stepper. It
// implements dataplane.Plane, so the real control plane (tickers,
// alert policy, generation reads) runs unmodified on top of it.
type reconfigPlane struct {
	e   *simtime.Engine
	rtt simtime.Time
	lf  func(dataplane.LongFlowEvent)
	mb  func(dataplane.MicroburstEvent)
}

// ReadFlow returns a snapshot that keeps the flow alive (LastSeen =
// now) and grows deterministically with virtual time.
func (p *reconfigPlane) ReadFlow(id, revID dataplane.FlowID) dataplane.FlowSnapshot {
	now := p.e.Now()
	ms := uint64(now / simtime.Millisecond)
	return dataplane.FlowSnapshot{
		Bytes:     ms * 125_000, // 1 Gbps in bytes per ms
		Pkts:      ms * 85,
		RTT:       p.rtt,
		FirstSeen: simtime.Millisecond,
		LastSeen:  now,
	}
}

// ResetWindow implements dataplane.Plane.
func (p *reconfigPlane) ResetWindow(id dataplane.FlowID) {}

// ReleaseFlow implements dataplane.Plane.
func (p *reconfigPlane) ReleaseFlow(id dataplane.FlowID) {}

// ReadRTTHist implements dataplane.Plane; the scripted plane reports
// no histogram samples, so extraction falls back to the scalar RTT.
func (p *reconfigPlane) ReadRTTHist(id dataplane.FlowID) dataplane.RTTHist {
	return dataplane.RTTHist{}
}

// AgeFlows implements dataplane.Plane; the scripted plane has no flow
// table to age.
func (p *reconfigPlane) AgeFlows(now, window simtime.Time) int { return 0 }

// ClearCMS implements dataplane.Plane.
func (p *reconfigPlane) ClearCMS() {}

// Flush implements dataplane.Plane.
func (p *reconfigPlane) Flush() {}

// SetLongFlowHandler implements dataplane.Plane.
func (p *reconfigPlane) SetLongFlowHandler(fn func(dataplane.LongFlowEvent)) { p.lf = fn }

// SetMicroburstHandler implements dataplane.Plane.
func (p *reconfigPlane) SetMicroburstHandler(fn func(dataplane.MicroburstEvent)) { p.mb = fn }

// reconfigScenario runs one deterministic control-plane scenario: one
// long flow reporting rtt at 2 samples/s with a 30ms alert threshold
// escalating to 5 samples/s; rtt degrades to 50ms at 3s and recovers
// to 10ms at 6s. retuneAt > 0 raises the threshold to 100ms at that
// virtual time (phase C); storm != nil is invoked once the scenario is
// wired, concurrently with the stepping (phase B).
func reconfigScenario(cfg ReconfigConfig, retuneAt simtime.Time, storm func(cp *controlplane.ControlPlane, done func())) (*controlplane.MemorySink, *controlplane.ControlPlane) {
	e := simtime.NewEngine()
	plane := &reconfigPlane{e: e, rtt: 10 * simtime.Millisecond}
	sink := &controlplane.MemorySink{}
	cp := controlplane.New(e, plane, sink, controlplane.Config{
		LinkCapacityBps: 1e9,
		Metrics: map[controlplane.Metric]controlplane.MetricConfig{
			controlplane.MetricRTT: {
				SamplesPerSecond:      2,
				AlertThreshold:        30,
				AlertSamplesPerSecond: 5,
			},
		},
	})
	cp.Start()
	plane.lf(dataplane.LongFlowEvent{
		ID:    1,
		RevID: 2,
		Tuple: packet.FiveTuple{
			SrcIP:   packet.MustAddr("172.16.0.10"),
			DstIP:   packet.MustAddr("192.168.1.10"),
			SrcPort: 40001,
			DstPort: 5201,
			Proto:   packet.ProtoTCP,
		},
	})

	var stormDone sync.WaitGroup
	if storm != nil {
		stormDone.Add(1)
		go storm(cp, stormDone.Done)
	}
	step := 100 * simtime.Millisecond
	for vt := step; vt <= reconfigDuration; vt += step {
		// Scripted rtt transitions land exactly on tick boundaries so
		// every run observes them at the same virtual instant.
		switch vt {
		case 3 * simtime.Second:
			plane.rtt = 50 * simtime.Millisecond
		case 6 * simtime.Second:
			plane.rtt = 10 * simtime.Millisecond
		}
		if retuneAt > 0 && vt == retuneAt {
			// The mid-escalation threshold raise of phase C, published
			// as one generation between engine quanta.
			if err := cp.SetAlert(controlplane.MetricRTT, 100, 5); err != nil {
				panic(err) // scripted valid command cannot fail
			}
		}
		e.Run(vt)
	}
	// Storm commands that arrive after the last quantum can only touch
	// config, never reports; wait so accounting is stable.
	stormDone.Wait()
	return sink, cp
}

// runWireStorm is phase B's storm callback factory: it serves the real
// wire protocol on a fault-injection listener and fires StormCommands
// commands at it — no-op reconfigurations, invalid rates, mid-record
// resets and malformed JSON.
func runWireStorm(cfg ReconfigConfig, res *ReconfigResult) func(cp *controlplane.ControlPlane, done func()) {
	return func(cp *controlplane.ControlPlane, done func()) {
		defer done()
		ln := faultnet.NewListener()
		defer ln.Close()
		serveDone := make(chan struct{})
		go func() {
			defer close(serveDone)
			// One slot per storm command: the client below never waits for
			// a handler to exit, and a handler holds its slot until it is
			// next scheduled after its response was read. Under CPU
			// contention the default 64 slots filled with finished,
			// merely-runnable handlers; the busy rejection then met the
			// client's own write on the synchronous pipe and both sat out
			// their 5 s deadlines, failing a command that must be accepted.
			psconfig.ServeConfigWith(ln, cp, psconfig.ServeOptions{MaxConns: cfg.StormCommands})
		}()

		noopRate, _ := psconfig.ParseConfigP4([]string{"--metric", "rtt", "--samples_per_second", "2"})
		noopAlert, _ := psconfig.ParseConfigP4([]string{"--metric", "rtt", "--alert", "--threshold", "30", "--samples_per_second", "5"})
		overCap, _ := psconfig.ParseConfigP4([]string{"--metric", "rtt", "--samples_per_second", "2e9"})
		opts := psconfig.SendOptions{
			Attempts: 1,
			Seed:     cfg.Seed,
			Dial:     func(string, time.Duration) (net.Conn, error) { return ln.Dial() },
		}
		for i := 0; i < cfg.StormCommands; i++ {
			switch i % 5 {
			case 0:
				if err := noopRate.SendWith("collector", opts); err == nil {
					res.StormAccepted++
				}
			case 1:
				if err := noopAlert.SendWith("collector", opts); err == nil {
					res.StormAccepted++
				}
			case 2:
				// Parses client-side, rejected by the control plane's
				// rate cap: the reject must not publish a generation.
				if err := overCap.SendWith("collector", opts); err != nil {
					res.StormRejected++
				}
			case 3:
				// Mid-record connection reset: the torn command must
				// not be applied.
				ln.ScriptNext(faultnet.Script{{AfterBytes: 10, Kind: faultnet.Reset}})
				if err := noopRate.SendWith("collector", opts); err != nil {
					res.StormFaulted++
				}
			case 4:
				// Malformed JSON, fire-and-forget.
				if c, err := ln.Dial(); err == nil {
					_, _ = c.Write([]byte("{nope"))
					_ = c.Close()
					res.StormMalformed++
				}
			}
		}
		_ = ln.Close()
		<-serveDone // graceful drain before the scenario reads counters
	}
}

// rttReportsIn counts the rtt metric reports with timestamps in
// (from, to].
func rttReportsIn(sink *controlplane.MemorySink, from, to simtime.Time) int {
	n := 0
	for _, r := range sink.MetricReports(controlplane.MetricRTT, "") {
		if r.Time() > from && r.Time() <= to {
			n++
		}
	}
	return n
}

// RunReconfigUnderLoad runs both reconfiguration phases and returns
// their combined invariants.
func RunReconfigUnderLoad(cfg ReconfigConfig) (*ReconfigResult, error) {
	cfg = cfg.withDefaults()
	res := &ReconfigResult{Config: cfg}

	// Phase B: identical scenario, quiet vs under storm. Every storm
	// command is a no-op, a reject or a fault, so the report stream —
	// the witness — must not change by a single byte.
	quietSink, _ := reconfigScenario(cfg, 0, nil)
	stormSink, stormCP := reconfigScenario(cfg, 0, runWireStorm(cfg, res))
	quiet, err := json.Marshal(quietSink.Reports)
	if err != nil {
		return res, fmt.Errorf("experiments: encoding witness: %w", err)
	}
	stormed, err := json.Marshal(stormSink.Reports)
	if err != nil {
		return res, fmt.Errorf("experiments: encoding witness: %w", err)
	}
	res.WitnessReports = len(quietSink.Reports)
	res.WitnessIdentical = bytes.Equal(quiet, stormed)
	// A fresh control plane starts at generation 0.
	res.StormSeqDelta = stormCP.ConfigSeq()
	res.Log = append(res.Log, fmt.Sprintf(
		"phase B: %d reports under a %d-command storm", len(stormSink.Reports), cfg.StormCommands))

	// Phase C: the escalated window after the threshold raise. The
	// control run keeps threshold 30 and stays escalated until rtt
	// recovers at 6s; the retuned run publishes threshold 100 at 5s
	// and must de-escalate at the first tick reading that generation.
	retunedSink, _ := reconfigScenario(cfg, 5*simtime.Second, nil)
	res.AlertsControl = len(quietSink.ByKind(controlplane.KindAlert))
	res.AlertsRetuned = len(retunedSink.ByKind(controlplane.KindAlert))
	res.EscalatedWindowControl = rttReportsIn(quietSink, 5400*simtime.Millisecond, 6400*simtime.Millisecond)
	res.EscalatedWindowRetuned = rttReportsIn(retunedSink, 5400*simtime.Millisecond, 6400*simtime.Millisecond)
	res.Log = append(res.Log, fmt.Sprintf(
		"phase C: escalated-window rtt reports %d (threshold 30) vs %d (raised to 100 at 5s)",
		res.EscalatedWindowControl, res.EscalatedWindowRetuned))
	return res, nil
}

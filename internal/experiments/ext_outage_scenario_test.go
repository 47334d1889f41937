package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/psarchiver"
	"repro/internal/resilient"
	"repro/internal/simtime"
	"repro/internal/tcp"
)

// This file implements a robustness extension experiment: the Figure 7
// shipping path (control plane → Report_v1 over TCP → Logstash input →
// OpenSearch) subjected to archiver outages. The paper's measurement
// architecture assumes the archiver stays up; this scenario measures
// what the resilient shipper guarantees when it does not:
//
//	phase 1  archiver down at startup   → breaker opens, reports spill
//	                                      to the disk spool
//	phase 2  archiver recovers          → spool replays in order, live
//	                                      reports resume
//	phase 3  archiver dies mid-run      → in-flight connection cut,
//	                                      possibly mid-record; spill
//	phase 4  final recovery             → replay, drain, clean shutdown
//
// The outage boundaries are driven by virtual time (the simulation is
// paused while the fault state toggles), and all faults are scripted
// through faultnet, so the accounting assertion is exact on every run:
//
//	archived == emitted − dropped
//
// with zero unaccounted records, and any mid-record teardown visible
// archiver-side as a counted undecodable fragment rather than silent
// corruption.

// OutageConfig parameterises the archiver-outage scenario.
type OutageConfig struct {
	Scale Scale
	// Duration of the run; default 12 s (split into outage phases).
	Duration simtime.Time
	// SpoolDir is where the shipper spills during outages. Required —
	// the scenario exercises the disk tier.
	SpoolDir string
	Seed     uint64
	// MemSpool bounds the shipper's in-memory queue; default 4096.
	MemSpool int
	// Obs, when set, receives the shipping path's self-telemetry: the
	// shipper's ladder gauges and trace ring plus the archiver input
	// and pipeline counters. Scraping it mid-scenario is safe — the
	// ladder gauges come from one locked snapshot per scrape.
	Obs *obs.Registry
}

func (c OutageConfig) withDefaults() OutageConfig {
	if c.Scale.Factor == 0 {
		c.Scale = Fast()
	}
	if c.Duration <= 0 {
		c.Duration = 12 * simtime.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.MemSpool <= 0 {
		c.MemSpool = 4096
	}
	return c
}

// OutageResult carries the end-to-end accounting of one scenario run.
type OutageResult struct {
	Config OutageConfig

	// Archived is the number of documents the archiver pipeline
	// received; TornLines the undecodable fragments from mid-record
	// connection cuts.
	Archived  uint64
	TornLines uint64

	// Ship is the shipper's final counter snapshot; its Emitted is
	// the control-plane side count.
	Ship resilient.Stats

	// Log records the phase transitions and per-phase counters.
	Log []string
}

// Balanced reports whether the exact accounting invariant held:
// every emitted record is either archived or counted as dropped, and
// nothing is left queued or spooled after shutdown.
func (r *OutageResult) Balanced() bool {
	return r.Archived == r.Ship.Delivered() &&
		r.Archived == r.Ship.Emitted-r.Ship.Dropped-r.Ship.Fallback &&
		r.Ship.Queued == 0 && r.Ship.SpoolPending == 0
}

// Render draws the scenario summary.
func (r *OutageResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: archiver-outage resilience (Fig. 7 shipping path)\n")
	for _, l := range r.Log {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	fmt.Fprintf(&b, "emitted=%d archived=%d torn_lines=%d\n", r.Ship.Emitted, r.Archived, r.TornLines)
	fmt.Fprintf(&b, "shipper: %s\n", r.Ship)
	fmt.Fprintf(&b, "accounting balanced: %v\n", r.Balanced())
	return b.String()
}

// RunExtOutage runs the archiver-outage scenario and returns the exact
// accounting. It returns an error only if a phase fails to converge
// (a harness bug, not a measured outcome).
func RunExtOutage(cfg OutageConfig) (*OutageResult, error) {
	cfg = cfg.withDefaults()
	if cfg.SpoolDir == "" {
		return nil, fmt.Errorf("experiments: outage scenario requires SpoolDir")
	}

	// Down at startup: refusal is armed before the shipper exists, so
	// even its very first dial fails.
	ln := faultnet.NewListener()
	ln.Refuse(true)
	pipeline := psarchiver.NewPipeline()
	store := psarchiver.NewStore()
	pipeline.OpenSearchOutput(store)
	leg, err := newShipLeg(ln, pipeline, cfg.MemSpool, cfg.SpoolDir, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		leg.shipper.RegisterObs(cfg.Obs)
		leg.input.RegisterObs(cfg.Obs)
		pipeline.RegisterObs(cfg.Obs)
		store.RegisterObs(cfg.Obs)
	}

	sys := core.NewSystem(core.Options{
		BottleneckBps: cfg.Scale.Bottleneck(),
		RTTs:          RTTs(),
		Seed:          cfg.Seed,
		Sink:          leg.shipper,
		Shards:        cfg.Scale.Shards,
	})
	sys.Start()
	sender := tcp.Config{MSS: cfg.Scale.MSS}
	sys.TransferToExternal(0, 0, 0, cfg.Duration, sender, tcp.Config{})
	sys.TransferToExternal(1, 0, 0, cfg.Duration, sender, tcp.Config{})

	res := &OutageResult{Config: cfg}
	logf := func(format string, args ...interface{}) {
		res.Log = append(res.Log, fmt.Sprintf(format, args...))
	}
	third := cfg.Duration / 3

	// Phase 1: the archiver is down before the collector starts — the
	// situation a fail-fast exporter cannot survive at all.
	sys.Run(third)
	logf("phase 1 [0s, %v): archiver down at startup, emitted=%d", third, leg.shipper.Stats().Emitted)
	if err := leg.wait("outage phase 1", func(s resilient.Stats) bool {
		return s.BreakerOpens >= 1 && s.Queued == 0
	}); err != nil {
		return nil, err
	}
	logf("phase 1 settled: %s", leg.shipper.Stats())

	// Phase 2: recovery — the disk spool must replay before new
	// records, preserving emission order.
	ln.Refuse(false)
	if err := leg.wait("outage phase 2", func(s resilient.Stats) bool {
		return s.Queued == 0 && s.SpoolPending == 0 && s.Replayed > 0
	}); err != nil {
		return nil, err
	}
	logf("phase 2 recovered: %s", leg.shipper.Stats())

	// Phase 3: healthy running, then the archiver process dies mid-run:
	// every live connection is cut (possibly mid-record) and the port
	// refuses.
	sys.Run(2 * third)
	ln.Refuse(true)
	ln.CutAll()
	logf("phase 3 [%v, %v): archiver killed mid-run, emitted=%d", third, 2*third, leg.shipper.Stats().Emitted)
	sys.Run(cfg.Duration)
	if err := leg.wait("outage phase 3", func(s resilient.Stats) bool { return s.Queued == 0 }); err != nil {
		return nil, err
	}
	logf("phase 3 settled: %s", leg.shipper.Stats())

	// Phase 4: final recovery and clean shutdown.
	ln.Refuse(false)
	if err := leg.drainClose("outage phase 4"); err != nil {
		return nil, err
	}

	res.Ship = leg.shipper.Stats()
	res.Archived = pipeline.Stats().Received
	res.TornLines = leg.input.Errors()
	logf("phase 4 shut down: %s", res.Ship)
	return res, nil
}

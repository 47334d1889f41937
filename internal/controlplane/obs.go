package controlplane

import (
	"time"

	"repro/internal/obs"
)

// cpObs is the control plane's optional self-telemetry: extraction
// round timing, per-interval flow counts, and per-kind report volume.
type cpObs struct {
	extractNs    *obs.Histogram
	flowsPerTick *obs.Histogram
	reports      *obs.Counter
	byKind       map[string]*obs.Counter
}

// RegisterObs wires the control plane's self-telemetry into r: a
// wall-clock histogram of each extraction round (register reads +
// report build + emit), a histogram of tracked-flow counts per round,
// per-kind report counters (the sink is wrapped, so every emission
// path — metric ticks, microburst events, alerts, flow summaries — is
// counted), and a live active-flow gauge. Call before Start and not
// concurrently with the engine; the gauge reads engine-owned state, so
// scrapes must run under the registry's Sync hook when the engine is
// stepped from another goroutine.
func (cp *ControlPlane) RegisterObs(r *obs.Registry) {
	o := &cpObs{
		extractNs:    r.NewHistogram("p4_controlplane_extract_wall_ns", "Wall-clock latency of one extraction round (ns)."),
		flowsPerTick: r.NewHistogram("p4_controlplane_flows_per_tick", "Tracked flows visited per extraction round."),
		reports:      r.NewCounter("p4_controlplane_reports_total", "Report_v1 records emitted to the sink."),
		byKind:       make(map[string]*obs.Counter),
	}
	for _, kind := range []string{
		KindMetric, KindAggregate, KindFlowSummary,
		KindMicroburst, KindAlert, KindLimitation,
	} {
		o.byKind[kind] = r.NewCounter("p4_controlplane_reports_"+kind+"_total",
			"Report_v1 records of kind "+kind+".")
	}
	r.NewGaugeFunc("p4_controlplane_active_flows", "Long flows currently tracked in the directory.",
		func() uint64 { return uint64(len(cp.flows)) })
	// The live runtime-config generation (DESIGN.md §5.7): one atomic
	// load, safe whether or not the scrape holds the engine.
	r.NewGaugeFunc("p4_config_generation_seq", "Sequence number of the live runtime-config generation.", cp.runtime.Seq)
	cp.obs = o
	cp.sink = &obsSink{next: cp.sink, o: o}
}

// obsSink counts every report on its way to the real sink.
type obsSink struct {
	next Sink
	o    *cpObs
}

// Emit implements Sink.
func (s *obsSink) Emit(r Report) {
	s.o.reports.Inc()
	if c := s.o.byKind[r.Kind]; c != nil {
		c.Inc()
	}
	s.next.Emit(r)
}

// observeExtract records one extraction round's wall-clock cost and
// flow count.
func (cp *ControlPlane) observeExtract(start time.Time, flows int) {
	cp.obs.extractNs.Observe(uint64(time.Since(start)))
	cp.obs.flowsPerTick.Observe(uint64(flows))
}

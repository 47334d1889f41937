package core

import (
	"sort"

	"repro/internal/controlplane"
	"repro/internal/metrics"
	"repro/internal/psarchiver"
)

// Archived returns the archived reports of one kind whose string fields
// equal terms (nil for all), in emission order: the archive keeps each
// index in insertion order.
func (s *System) Archived(kind string, terms map[string]string) []controlplane.Report {
	docs := s.Store.Search(psarchiver.Query{Index: psarchiver.IndexName(kind), Terms: terms})
	out := make([]controlplane.Report, len(docs))
	for i := range docs {
		out[i] = docs[i].Report
	}
	return out
}

// SeriesByDestination groups one metric's reports into per-destination
// time series, exactly how the paper's Grafana dashboard groups the
// figures ("Grafana will group the reported measurements by their
// destination IP address", §5.1). Only flows toward external networks
// are included (the data direction); reverse ACK flows are skipped.
func (s *System) SeriesByDestination(metric controlplane.Metric) map[string]*metrics.Series {
	out := make(map[string]*metrics.Series)
	for _, r := range s.Archived(controlplane.KindMetric, map[string]string{"metric": string(metric)}) {
		if !IsExternal(r.DstIP) {
			continue
		}
		ser, ok := out[r.DstIP]
		if !ok {
			ser = metrics.NewSeries(string(metric) + "->" + r.DstIP)
			out[r.DstIP] = ser
		}
		ser.Append(r.Time(), r.Value)
	}
	return out
}

// IsExternal reports whether ip belongs to one of the external
// networks (192.168.0.0/16 in the addressing plan).
func IsExternal(ip string) bool {
	return len(ip) >= 8 && ip[:8] == "192.168."
}

// AggregateSeries extracts the control plane's aggregate reports as
// (utilization, fairness, activeFlows) series — the Figure 10 data.
func (s *System) AggregateSeries() (util, fairness, active *metrics.Series) {
	util = metrics.NewSeries("utilization")
	fairness = metrics.NewSeries("fairness")
	active = metrics.NewSeries("active_flows")
	for _, r := range s.Archived(controlplane.KindAggregate, nil) {
		util.Append(r.Time(), r.Utilization)
		fairness.Append(r.Time(), r.Fairness)
		active.Append(r.Time(), float64(r.ActiveFlows))
	}
	return util, fairness, active
}

// MicroburstReports returns the burst events, ordered by start time.
func (s *System) MicroburstReports() []controlplane.Report {
	reps := s.Archived(controlplane.KindMicroburst, nil)
	sort.Slice(reps, func(i, j int) bool { return reps[i].TimeNs < reps[j].TimeNs })
	return reps
}

// FlowSummaries returns the terminated-long-flow reports.
func (s *System) FlowSummaries() []controlplane.Report {
	return s.Archived(controlplane.KindFlowSummary, nil)
}

// Package inband implements In-band Network Telemetry (INT), the
// per-packet telemetry mechanism the paper's related work deploys at
// AmLight (Bezerra et al. [3]): INT-capable switches append per-hop
// metadata — switch ID, ingress/egress timestamps, queue depth — to
// transit packets, and a sink at the path's edge strips the stack and
// ships it to a collector. Where the paper's own system observes one
// tapped switch passively, INT extends visibility to every hop of an
// instrumented path; the two are complementary, and this package lets
// the testbed reproduce INT-style per-hop measurements alongside the
// TAP-based ones.
package inband

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// HopMetadata is one INT stack entry, the standard INT-MD fields this
// model carries. It aliases the packet-level type so that packets can
// transport stacks without an import cycle.
type HopMetadata = packet.INTHop

// HopLatency is the packet's time through a hop.
func HopLatency(h HopMetadata) simtime.Time { return h.EgressAt - h.IngressAt }

// Source marks packets for telemetry collection: an INT source embeds
// instructions; this model flags packets via the FlowTag convention
// plus a stack slice carried in simulator metadata.
//
// Stack manipulation helpers operate on the packet's INT field.

// Extract removes and returns the packet's INT stack (the sink
// operation: telemetry leaves the packet before delivery).
func Extract(pkt *packet.Packet) []HopMetadata {
	st := pkt.INTStack
	pkt.INTStack = nil
	return st
}

// Report is one collected telemetry record: the packet's flow plus its
// full path stack.
type Report struct {
	Flow packet.FiveTuple
	At   simtime.Time
	Path []HopMetadata
}

// Collector aggregates INT reports into per-hop series, the AmLight
// -style "instantaneous utilisation / per-hop delay" view.
type Collector struct {
	// Reports retains every record in arrival order.
	Reports []Report

	// perHopLatency and perHopQueue accumulate series per switch ID.
	perHopLatency map[string]*metrics.Series
	perHopQueue   map[string]*metrics.Series
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{
		perHopLatency: make(map[string]*metrics.Series),
		perHopQueue:   make(map[string]*metrics.Series),
	}
}

// Ingest consumes one report.
func (c *Collector) Ingest(r Report) {
	c.Reports = append(c.Reports, r)
	for _, hop := range r.Path {
		lat, ok := c.perHopLatency[hop.SwitchID]
		if !ok {
			lat = metrics.NewSeries("hop-latency-" + hop.SwitchID)
			c.perHopLatency[hop.SwitchID] = lat
		}
		lat.Append(r.At, HopLatency(hop).Seconds()*1e6) // microseconds

		q, ok := c.perHopQueue[hop.SwitchID]
		if !ok {
			q = metrics.NewSeries("hop-queue-" + hop.SwitchID)
			c.perHopQueue[hop.SwitchID] = q
		}
		q.Append(r.At, float64(hop.QueueBytes))
	}
}

// HopLatencySeries returns the per-hop latency series for a switch, or
// nil.
func (c *Collector) HopLatencySeries(switchID string) *metrics.Series {
	return c.perHopLatency[switchID]
}

// HopQueueSeries returns the per-hop queue series for a switch, or nil.
func (c *Collector) HopQueueSeries(switchID string) *metrics.Series {
	return c.perHopQueue[switchID]
}

// Hops lists the switch IDs seen, sorted.
func (c *Collector) Hops() []string {
	out := make([]string, 0, len(c.perHopLatency))
	for id := range c.perHopLatency {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// PathOf reconstructs the hop sequence of the most recent report for a
// flow, or nil.
func (c *Collector) PathOf(ft packet.FiveTuple) []string {
	for i := len(c.Reports) - 1; i >= 0; i-- {
		if c.Reports[i].Flow == ft {
			path := make([]string, len(c.Reports[i].Path))
			for j, hop := range c.Reports[i].Path {
				path[j] = hop.SwitchID
			}
			return path
		}
	}
	return nil
}

// Summary renders per-hop statistics.
func (c *Collector) Summary() string {
	out := fmt.Sprintf("INT collector: %d reports\n", len(c.Reports))
	for _, id := range c.Hops() {
		lat := c.perHopLatency[id]
		q := c.perHopQueue[id]
		out += fmt.Sprintf("  hop %-12s latency mean %8.1fus max %8.1fus | queue mean %9.0fB max %9.0fB\n",
			id, lat.Mean(), lat.Max(), q.Mean(), q.Max())
	}
	return out
}

package dataplane

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// dpObs is the pipeline's optional self-telemetry: per-packet counters
// mirror Stats with atomic (scrape-safe) semantics, the RTT and
// queuing-delay histograms record every per-packet sample the way
// P4TG's histogram monitoring does, and the extraction histogram
// measures the wall-clock cost of each control-plane register read.
// Every mutation is an atomic add — the per-packet path stays
// zero-allocation with instrumentation enabled (bench_alloc_test.go
// asserts this) and every shard of a Pipes shares one dpObs, so the
// p4_dataplane_* series mean the same thing at every shard count.
type dpObs struct {
	ingressCopies *obs.Counter
	egressCopies  *obs.Counter
	rttSamples    *obs.Counter
	microbursts   *obs.Counter
	skipped       *obs.Counter
	aliased       *obs.Counter
	evictions     *obs.Counter

	rttNs     *obs.Histogram
	qdelayNs  *obs.Histogram
	burstNs   *obs.Histogram
	extractNs *obs.Histogram
}

// RegisterObs wires the data plane's self-telemetry into r: the
// p4_dataplane_* pipeline series, summed over shards, and the
// p4_pipes_* batch-execution view with one gauge group per shard as
// the skew view (the registry has no label support, so shards are
// distinguished by a name infix, e.g.
// p4_pipes_shard0_ingress_copies_total). Call it before traffic starts
// and do not call it concurrently with packet processing; the
// uninstrumented pipeline pays only a nil check.
//
// Gauges read shard state under the front-end mutex without forcing a
// barrier: a scrape waits for the replay in flight and shows the world
// as of the last completed replay. It launches nothing pending and
// delivers no events — handlers mutate control-plane state and belong
// to the simulation's goroutine, and barrier points must stay driven by
// the simulation, not by wall-clock scrapes. One-shard ingest runs
// outside that mutex, so there the registry's Sync hook must serialise
// scrapes with the simulation step.
func (p *Pipes) RegisterObs(r *obs.Registry) {
	// Batch shape: how many views each drained front carried and the
	// simulated time span it covered (fill latency in simtime —
	// deterministic, unlike wall clock).
	p.frontViews = r.NewHistogram("p4_pipes_front_views",
		"Views per front drained through the batch path, power-of-two buckets.")
	p.frontSpanNs = r.NewHistogram("p4_pipes_front_span_ns",
		"Simulated fill span (last-first timestamp, ns) per drained front, power-of-two buckets.")
	o := &dpObs{
		ingressCopies: r.NewCounter("p4_dataplane_ingress_copies_total", "TAP ingress copies processed."),
		egressCopies:  r.NewCounter("p4_dataplane_egress_copies_total", "TAP egress copies processed."),
		rttSamples:    r.NewCounter("p4_dataplane_rtt_samples_total", "Algorithm 1 RTT samples produced."),
		microbursts:   r.NewCounter("p4_dataplane_microbursts_total", "Microburst events detected."),
		skipped:       r.NewCounter("p4_dataplane_skipped_packets_total", "Packets excluded by the monitor table."),
		aliased:       r.NewCounter("p4_dataplane_aliased_packets_total", "Packets the admission gate routed to the sketch tier."),
		evictions:     r.NewCounter("p4_dataplane_flow_evictions_total", "Flow-table cells evicted by the aging sweep."),
		rttNs:         r.NewHistogram("p4_dataplane_rtt_ns", "Per-sample RTT (ns), power-of-two buckets."),
		qdelayNs:      r.NewHistogram("p4_dataplane_queue_delay_ns", "Per-packet queuing delay (ns), power-of-two buckets."),
		burstNs:       r.NewHistogram("p4_dataplane_microburst_duration_ns", "Microburst duration (ns), power-of-two buckets."),
		extractNs:     r.NewHistogram("p4_dataplane_extract_wall_ns", "Wall-clock latency of one ReadFlow register extraction (ns)."),
	}
	for _, d := range p.shards {
		d.obs = o
	}
	// Occupancy is scanned at scrape time (never on the packet path).
	r.NewGaugeFunc("p4_dataplane_flow_table_occupancy", "Flow-table cells owned by a flow, summed over shards (as of the last completed replay).",
		p.lockedGauge(func() uint64 {
			var n uint64
			for _, d := range p.shards {
				n += d.OccupiedCells()
			}
			return n
		}))
	r.NewGaugeFunc("p4_dataplane_flow_table_size", "Configured per-flow register cells per shard.",
		func() uint64 { return uint64(p.Config().FlowTableSize) })
	r.NewGaugeFunc("p4_dataplane_sketch_memory_bytes", "Lean sketch tier storage footprint, summed over shards.",
		p.LeanMemoryBytes)
	r.NewGaugeFunc("p4_pipes_shards", "Configured data-plane pipes.",
		func() uint64 { return uint64(p.n) })
	r.NewGaugeFunc("p4_pipes_flushes_total", "Launches that handed at least one pending front to a shard.",
		p.lockedGauge(func() uint64 { return p.flushes }))
	r.NewGaugeFunc("p4_pipes_batched_views_total", "TAP copies batched through the partition (none at one shard).",
		p.lockedGauge(func() uint64 { return p.batchedViews }))
	for i, d := range p.shards {
		prefix := fmt.Sprintf("p4_pipes_shard%d_", i)
		help := fmt.Sprintf(" (pipe %d).", i)
		r.NewGaugeFunc(prefix+"ingress_copies_total", "TAP ingress copies processed"+help,
			p.lockedGauge(func() uint64 { return d.Stats.IngressCopies }))
		r.NewGaugeFunc(prefix+"egress_copies_total", "TAP egress copies processed"+help,
			p.lockedGauge(func() uint64 { return d.Stats.EgressCopies }))
		r.NewGaugeFunc(prefix+"rtt_samples_total", "Algorithm 1 RTT samples produced"+help,
			p.lockedGauge(func() uint64 { return d.Stats.RTTSamples }))
		r.NewGaugeFunc(prefix+"microbursts_total", "Microburst events detected"+help,
			p.lockedGauge(func() uint64 { return d.Stats.Microbursts }))
		r.NewGaugeFunc(prefix+"flow_table_occupancy", "Flow-table cells owned"+help,
			p.lockedGauge(d.OccupiedCells))
	}
}

// lockedGauge serialises a gauge read with packet batching and shard
// replay: a replay outlives the ingest call that launched it, so the
// read waits for the one in flight, and no other can start while the
// mutex is held. Waiting is all it does — see RegisterObs.
func (p *Pipes) lockedGauge(read func() uint64) func() uint64 {
	return func() uint64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.replay.Wait()
		return read()
	}
}

// OccupiedCells counts flow-table register cells currently owned by a
// flow (collision witness register non-zero). O(FlowTableSize); meant
// for scrape time, not the packet path.
func (d *DataPlane) OccupiedCells() uint64 {
	var n uint64
	for i := 0; i < d.cfg.FlowTableSize; i++ {
		if d.ownerLo.Read(uint32(i)) != 0 {
			n++
		}
	}
	return n
}

// observeExtract times one ReadFlow when instrumentation is on.
func (d *DataPlane) observeExtract(start time.Time) {
	d.obs.extractNs.Observe(uint64(time.Since(start)))
}

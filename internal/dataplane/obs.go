package dataplane

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// dpObs is the pipeline's optional sample histograms: RTT and
// queuing delay record every per-packet sample the way P4TG's
// histogram monitoring does, and the extraction histogram measures the
// wall-clock cost of each control-plane register read. They are
// observations — nothing else holds the samples — and every Observe is
// an atomic add, so the per-packet path stays zero-allocation with
// instrumentation enabled (bench_alloc_test.go asserts this) and every
// shard of a Pipes shares one dpObs. Event counts are not here: an
// event is counted once, in Stats, and a scrape reads it (RegisterObs).
type dpObs struct {
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
// uninstrumented pipeline pays only a nil check per sample.
//
// Everything but the histograms is one snapshot per scrape: a single
// Collect takes the front-end mutex once, waits for the replay in
// flight once, and copies out each shard's Stats and occupancy and the
// launch counters — the world as of the last completed replay, with
// the summed series exactly the sum of the per-shard ones. It launches
// nothing pending and delivers no events — handlers mutate
// control-plane state and belong to the simulation's goroutine, and
// barrier points must stay driven by the simulation, not by wall-clock
// scrapes. One-shard ingest runs outside that mutex, so there the
// registry's Sync hook must serialise scrapes with the simulation step.
func (p *Pipes) RegisterObs(r *obs.Registry) {
	// Batch shape: how many views each drained front carried and the
	// simulated time span it covered (fill latency in simtime —
	// deterministic, unlike wall clock).
	p.frontViews = r.NewHistogram("p4_pipes_front_views",
		"Views per front drained through the batch path, power-of-two buckets.")
	p.frontSpanNs = r.NewHistogram("p4_pipes_front_span_ns",
		"Simulated fill span (last-first timestamp, ns) per drained front, power-of-two buckets.")
	o := &dpObs{
		rttNs:     r.NewHistogram("p4_dataplane_rtt_ns", "Per-sample RTT (ns), power-of-two buckets."),
		qdelayNs:  r.NewHistogram("p4_dataplane_queue_delay_ns", "Per-packet queuing delay (ns), power-of-two buckets."),
		burstNs:   r.NewHistogram("p4_dataplane_microburst_duration_ns", "Microburst duration (ns), power-of-two buckets."),
		extractNs: r.NewHistogram("p4_dataplane_extract_wall_ns", "Wall-clock latency of one ReadFlow register extraction (ns)."),
	}
	for _, d := range p.shards {
		d.obs = o
	}
	r.Collect(func(w obs.MetricWriter) {
		// Occupancy is scanned here, at scrape time (never on the
		// packet path).
		stats := make([]Stats, p.n)
		occupied := make([]uint64, p.n)
		var sum Stats
		var cells uint64
		p.mu.Lock()
		p.replay.Wait()
		for i, d := range p.shards {
			stats[i], occupied[i] = d.Stats, d.OccupiedCells()
			sum.add(stats[i])
			cells += occupied[i]
		}
		flushes, batched := p.flushes, p.batchedViews
		p.mu.Unlock()

		w.Counter("p4_dataplane_ingress_copies_total", "TAP ingress copies processed.", sum.IngressCopies)
		w.Counter("p4_dataplane_egress_copies_total", "TAP egress copies processed.", sum.EgressCopies)
		w.Counter("p4_dataplane_rtt_samples_total", "Algorithm 1 RTT samples produced.", sum.RTTSamples)
		w.Counter("p4_dataplane_microbursts_total", "Microburst events detected.", sum.Microbursts)
		w.Counter("p4_dataplane_aliased_packets_total", "Packets the admission gate routed to the sketch tier.", sum.AliasedPackets)
		w.Counter("p4_dataplane_flow_evictions_total", "Flow-table cells evicted by the aging sweep.", sum.Evictions)
		w.Gauge("p4_dataplane_flow_table_occupancy", "Flow-table cells owned by a flow, summed over shards (as of the last completed replay).", cells)
		w.Gauge("p4_dataplane_flow_table_size", "Configured per-flow register cells per shard.", uint64(p.Config().FlowTableSize))
		w.Gauge("p4_dataplane_sketch_memory_bytes", "Lean sketch tier storage footprint, summed over shards.", p.LeanMemoryBytes())
		w.Gauge("p4_pipes_shards", "Configured data-plane pipes.", uint64(p.n))
		w.Gauge("p4_pipes_flushes_total", "Launches that handed at least one pending front to a shard.", flushes)
		w.Gauge("p4_pipes_batched_views_total", "TAP copies batched through the partition (none at one shard).", batched)
		for i, st := range stats {
			prefix := fmt.Sprintf("p4_pipes_shard%d_", i)
			help := fmt.Sprintf(" (pipe %d).", i)
			w.Gauge(prefix+"ingress_copies_total", "TAP ingress copies processed"+help, st.IngressCopies)
			w.Gauge(prefix+"egress_copies_total", "TAP egress copies processed"+help, st.EgressCopies)
			w.Gauge(prefix+"rtt_samples_total", "Algorithm 1 RTT samples produced"+help, st.RTTSamples)
			w.Gauge(prefix+"microbursts_total", "Microburst events detected"+help, st.Microbursts)
			w.Gauge(prefix+"flow_table_occupancy", "Flow-table cells owned"+help, occupied[i])
		}
	})
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

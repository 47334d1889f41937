package main

import (
	"runtime"
)

// reportSampling is the share of reports that get a cross-goroutine
// report span in the trace file: one in 64.
const reportSampling = 64

// capturedReports is how many reports a traced pass keeps for the
// isolated kernels.
const capturedReports = 4096

// reportSpans assembles report{resilient.emit, resilient.queue_write,
// psarchiver.ingest} for every reportSampling-th report of a member,
// from the stamps three goroutines took on their own: the emitter around
// Shipper.Emit, the shipper's goroutine at the return of the Write that
// carried the line (lines are counted on the wrapped connection to pair
// writes with reports), and the input goroutine in the benchmark's
// output callback.
func reportSpans(tr *tracer, m *member, from int) {
	if m.conn == nil {
		return
	}
	for k := from; k < len(m.indexedAt) && 2*k+1 < len(m.emitSpan) && k < len(m.conn.writeEnd); k++ {
		if k%reportSampling != 0 {
			continue
		}
		e0, e1, w, idx := m.emitSpan[2*k], m.emitSpan[2*k+1], m.conn.writeEnd[k], m.indexedAt[k]
		if w < e1 {
			w = e1
		}
		if idx < w {
			idx = w // the reader can finish before the writer's own stamp
		}
		root := tr.add("report", -1, e0, idx)
		tr.add("resilient.emit", root, e0, e1)
		tr.add("resilient.queue_write", root, e1, w)
		tr.add("psarchiver.ingest", root, w, idx)
	}
}

// shipperLayer fills the resilient.* metrics that come from the members'
// stamps and wrapped connections.
func shipperLayer(members []*member, values map[string]float64) {
	var emitNs, emits, calls, lines, bytes, writeNs float64
	for _, m := range members {
		for i := 0; i+1 < len(m.emitSpan); i += 2 {
			emitNs += float64(m.emitSpan[i+1] - m.emitSpan[i])
			emits++
		}
		if m.conn != nil {
			calls += float64(m.conn.calls)
			lines += float64(m.conn.lines)
			bytes += float64(m.conn.bytes)
			writeNs += float64(m.conn.writeNs)
		}
		st := m.shipper.Stats()
		values["resilient.dropped"] += float64(st.Dropped)
		values["resilient.retried"] += float64(st.Retried)
		values["resilient.spilled"] += float64(st.Spilled)
	}
	if emits > 0 {
		values["resilient.emit_ns_per_report"] = emitNs / emits
	}
	if calls > 0 {
		values["resilient.write_ns_per_call"] = writeNs / calls
		values["resilient.reports_per_write"] = lines / calls
	}
	if lines > 0 {
		values["resilient.bytes_per_report"] = bytes / lines
	}
}

func queryLayer(q *queryStats, values map[string]float64) {
	values["psarchiver.search_ms_p50"] = median(q.searchMs)
	values["psarchiver.aggregate_ms_p50"] = median(q.aggMs)
	values["psarchiver.crosssite_ms_p50"] = median(q.crossMs)
	values["psarchiver.docs_scanned_per_query"] = mean(q.scanned)
}

// headline is the workload's own throughput figure, the one the traced
// and the untraced quarter-length passes are compared on.
func (o *ingestOutcome) headline(w workload) float64 {
	if w.reports != nil {
		return o.reportsPerS
	}
	return o.ingestMpps
}

// tracedIngest produces a data-plane workload's per-layer metrics: an
// untraced quarter-length pass for reference, the traced quarter-length
// pass, on elephants a third pass with RegisterObs on every layer, and
// the isolated kernels over items items each.
func tracedIngest(w workload, res *result, values map[string]float64, outDir string, items int) error {
	records, reports := w.recordsFor(res.Seconds)/4, w.reportsFor(res.Seconds)/4
	ref := &ingestPass{w: w, seed: res.Seed, records: records, reports: reports}
	refOut, err := ref.run()
	if err != nil {
		return err
	}
	plain := refOut.headline(w)
	latencyMetrics(refOut.latencyMs, values, res.Samples)
	*ref, refOut = ingestPass{}, nil
	releaseMemory()

	tr := newTracer()
	p := &ingestPass{w: w, seed: res.Seed, records: records, reports: reports, tr: tr, capture: capturedReports}
	out, err := p.run()
	if err != nil {
		return err
	}
	res.Fingerprint = out.fp
	res.Checks = out.checks
	res.Attempted = out.records + out.emitted
	res.Failed = out.emitted - out.indexed
	values["bench.trace_overhead_pct"] = overheadPct(plain, out.headline(w))
	if out.emitted > 0 {
		values["report_loss_ratio"] = float64(out.emitted-out.indexed) / float64(out.emitted)
	}

	// The blocking path is what the result waits for: the one producer's
	// front spans, its waits on the in-flight window, and the drain after
	// it. Shares are of that path's summed self time.
	self := tr.selfByName()
	n := float64(out.records)
	values["replay.fill_ns_per_record"] = float64(self["replay.fill"]) / n
	values["dataplane.parse_ns_per_record"] = float64(self["dataplane.parse"]) / n
	values["dataplane.process_ns_per_record"] = float64(self["dataplane.process"]) / n
	values["dataplane.blocking_share"] = layerShare(self, "dataplane.")
	values["dataplane.allocs_per_record"] = median(p.allocSamples)
	values["dataplane.shard_skew"] = 1
	if w.shards > 1 {
		parallel := float64(min(w.shards, runtime.GOMAXPROCS(0)))
		if idle := float64(p.processWall) - p.processCPU*1e9/parallel; idle > 0 {
			values["dataplane.flush_wait_ns_per_front"] = idle / float64(p.fronts)
		}
		var most, all float64
		for i := 0; i < w.shards; i++ {
			st := p.pipes.Shard(i).Stats
			load := float64(st.IngressCopies + st.EgressCopies)
			all += load
			most = max(most, load)
		}
		values["dataplane.shard_skew"] = most / (all / float64(w.shards))
	}
	values["dataplane.aliased_share"] = float64(out.stats.AliasedPackets) / float64(out.stats.IngressCopies)
	values["dataplane.evictions"] = float64(out.stats.Evictions)
	values["dataplane.occupied_cells"] = float64(p.pipes.OccupiedCells())
	values["state_bytes_per_flow"] = out.stateBytes
	values["sketch.memory_bytes"] = float64(p.pipes.LeanMemoryBytes())
	values["sketch.dup_fp_rate"] = p.pipes.Shard(0).Lean().DupFPRate()
	if p.idleRun.n > 0 {
		values["simtime.idle_run_ns_per_front"] = float64(p.idleRun.ns) / float64(p.idleRun.n)
	}
	tickSelf := tr.selfMs("controlplane.tick")
	values["controlplane.tick_self_ms_p50"] = median(tickSelf)
	values["controlplane.tick_self_ms_p99"] = percentile(tickSelf, 99)
	if out.emitted > 0 && len(tickSelf) > 0 {
		values["controlplane.self_ns_per_report"] = float64(self["controlplane.tick"]) / float64(out.emitted)
		values["controlplane.reports_per_tick"] = float64(out.emitted) / float64(len(tickSelf))
	}
	values["controlplane.active_flows"] = float64(out.fp.ActiveFlows)
	shipperLayer([]*member{p.m}, values)
	values["resilient.queue_depth_p50"] = median(p.queueDepth)
	values["resilient.queue_depth_max"] = percentile(p.queueDepth, 100)
	values["resilient.window_wait_ms"] = float64(p.waitNs) / 1e6
	values["psarchiver.bytes_per_doc"] = out.heapPerDoc
	values["psarchiver.input_errors"] = float64(p.arch.input.Errors())

	reportSpans(tr, p.m, int(out.fp.ReportsEmitted-out.emitted))
	if err := tr.write(outDir, w.name, res.Seed, self); err != nil {
		return err
	}
	keyKernels(p.st.keyFlows, items, values)
	planeKernels(p, values)
	if err := reportKernels(p.m.captured, items, values); err != nil {
		return err
	}
	*p = ingestPass{}
	releaseMemory()

	if w.name == "elephants" {
		// What --obs-addr costs the packet path: the same quarter-length
		// pass with RegisterObs on the data plane, the control plane, the
		// shipper and the archiver, against the plain reference pass.
		withObs := &ingestPass{w: w, seed: res.Seed, records: records, reports: reports, withObs: true}
		obsOut, err := withObs.run()
		if err != nil {
			return err
		}
		values["obs.ingest_overhead_pct"] = overheadPct(plain, obsOut.headline(w))
	}
	return nil
}

// tracedObservatory produces the observatory's per-layer metrics: an
// untraced quarter-length pass for reference, the traced one, and the
// report kernels. No data-plane code runs.
func tracedObservatory(res *result, values map[string]float64, outDir string, items int) error {
	seconds := max(res.Seconds/4, 1)
	ref := &observatoryPass{seed: res.Seed, seconds: seconds}
	refOut, err := ref.run()
	if err != nil {
		return err
	}
	plain := float64(refOut.queries.ops) / refOut.wallS
	latencyMetrics(refOut.latencyMs, values, res.Samples)
	queryMetrics(&refOut.queries, values, res.Samples)
	*ref, refOut = observatoryPass{}, nil
	releaseMemory()

	tr := newTracer()
	p := &observatoryPass{seed: res.Seed, seconds: seconds, tr: tr, capture: capturedReports / len(obsMembers)}
	out, err := p.run()
	if err != nil {
		return err
	}
	res.Fingerprint = out.fp
	res.Checks = out.checks
	res.Attempted = out.emitted + uint64(out.queries.ops)
	res.Failed = out.emitted - out.indexed + uint64(out.queries.mismatches)
	values["bench.trace_overhead_pct"] = overheadPct(plain, float64(out.queries.ops)/out.wallS)
	values["bench.gen_late_ms_p99"] = percentile(out.lateMs, 99)
	values["report_loss_ratio"] = float64(out.emitted-out.indexed) / float64(out.emitted)
	values["dataplane.shard_skew"] = 1 // no data plane: the neutral value
	shipperLayer(p.members, values)
	values["resilient.queue_depth_p50"] = median(out.queueDepth)
	values["resilient.queue_depth_max"] = percentile(out.queueDepth, 100)
	queryLayer(&out.queries, values)
	values["psarchiver.bytes_per_doc"] = out.heapPerDoc
	values["psarchiver.input_errors"] = float64(p.arch.input.Errors())

	self := tr.selfByName()
	var captured = p.members[0].captured
	for _, m := range p.members {
		reportSpans(tr, m, 0)
		if m != p.members[0] {
			captured = append(captured, m.captured...)
		}
	}
	if err := tr.write(outDir, "observatory", res.Seed, self); err != nil {
		return err
	}
	return reportKernels(captured, items, values)
}

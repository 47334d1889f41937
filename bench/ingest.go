package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/psarchiver"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/tap"
)

// frontSize is the batch the harness hands ProcessFront: the data
// plane's native front capacity, the one cmd/replay uses.
const frontSize = 1024

// traceChunk is how many records the traced loop generates before it
// parses them.
const traceChunk = 64

// shardPrefixRecords is where a sharded run snapshots its merged
// counters for the comparison with one pipe: a whole number of fronts.
const shardPrefixRecords = 512 * frontSize

// ingestPass is one run of a data-plane workload through the whole
// production path: replay.Synth → Front.AppendCopy → Pipes.ProcessFront
// → Engine.Run firing the ControlPlane's tickers → Shipper.Emit → TCP
// loopback → TCPInput → Pipeline → Store.
type ingestPass struct {
	w       workload
	seed    uint64
	records int // stream length; 0 when the run ends on reports
	reports int // timed-phase report target (report_storm)
	tr      *tracer
	withObs bool // RegisterObs on every layer, as --obs-addr does
	capture int  // reports to keep for the isolated kernels

	arch   *archiver
	m      *member
	pipes  *dataplane.Pipes
	engine *simtime.Engine
	cp     *controlplane.ControlPlane
	st     *stream

	front  *dataplane.Front
	rec    replay.Record
	pkt    packet.Packet
	recs   []replay.Record // traced: the split fill/parse loops work a chunk at a time
	pkts   []packet.Packet
	copies []tap.Copy

	fed     uint64
	fronts  uint64
	lastAt  uint64
	idleRun struct{ n, ns int64 }

	waitNs     int64
	prefixDone bool
	prefix     dataplane.Stats

	// Traced-only accounting.
	emitSeen     int // m.emitSpan entries already turned into spans
	allocSamples []float64
	processWall  int64
	processCPU   float64
	queueDepth   []float64
}

// setup builds the whole rig and, for a warm workload, feeds the stream
// until the control plane's flow directory stops growing. Everything
// here is the set-up time a run reports.
func (p *ingestPass) setup() error {
	arch, err := newArchiver()
	if err != nil {
		return err
	}
	arch.watch()
	p.arch = arch
	m, err := newMember(arch, memberConfig{memSpool: p.w.memSpool, seed: p.seed, tr: p.tr, capture: p.capture})
	if err != nil {
		return err
	}
	p.m = m
	p.pipes = dataplane.NewPipes(dataplane.Config{}, p.w.shards)
	p.engine = simtime.NewEngine()
	p.cp = controlplane.New(p.engine, p.pipes, m.sink, controlplane.Config{
		AgingWindow: simtime.Duration(p.w.agingWindow),
	})
	if p.withObs {
		reg := obs.NewRegistry()
		p.pipes.RegisterObs(reg)
		p.cp.RegisterObs(reg)
		m.shipper.RegisterObs(reg)
		arch.input.RegisterObs(reg)
		arch.pipeline.RegisterObs(reg)
	}
	p.cp.Start()
	if p.w.rate > 0 {
		for _, metric := range controlplane.AllMetrics() {
			if err := p.cp.SetRate(metric, p.w.rate); err != nil {
				return err
			}
		}
	}
	p.st = p.w.source(p.seed, p.records)
	p.front = dataplane.NewFront(frontSize)
	if p.tr != nil {
		p.recs = make([]replay.Record, traceChunk)
		p.pkts = make([]packet.Packet, traceChunk)
		p.copies = make([]tap.Copy, traceChunk)
	}
	if err := m.waitConnected(); err != nil {
		return err
	}
	if p.w.warm {
		return p.warmUp()
	}
	return nil
}

// warmUp feeds fronts until the flow directory has not grown for a whole
// simulated second, then lets the reports it caused drain, so the timed
// phase starts from a steady state with nothing in flight.
func (p *ingestPass) warmUp() error {
	tr := p.tr
	p.tr = nil // warm-up is set-up: no spans
	defer func() { p.tr = tr }()
	active, since := -1, uint64(0)
	for {
		if p.feedFront() == 0 {
			return fmt.Errorf("warm-up: stream ended with %d active flows", p.cp.ActiveFlowCount())
		}
		p.throttle()
		if n := p.cp.ActiveFlowCount(); n != active {
			active, since = n, p.lastAt
		} else if active > 0 && p.lastAt-since >= uint64(simtime.Second) {
			break
		}
	}
	return p.m.drain()
}

// teardown closes the shipper and the archiver input.
func (p *ingestPass) teardown() error {
	err := p.m.shipper.Close()
	if cerr := p.arch.close(); err == nil {
		err = cerr
	}
	return err
}

// feedFront moves one front of records through the data plane and runs
// the engine up to the front's last timestamp. It returns the number of
// records fed; 0 means the stream is exhausted.
//
// The untraced loop is cmd/replay's: one scratch record and packet,
// Next → CopyInto → AppendCopy per record. The traced loop does the same
// work with the generator and the parser separated, so that each gets a
// span of its own beside the pipeline's.
func (p *ingestPass) feedFront() int {
	tr := p.tr
	n := 0
	if tr == nil {
		for n < frontSize && p.st.src.Next(&p.rec) {
			p.front.AppendCopy(p.rec.CopyInto(&p.pkt))
			p.lastAt = p.rec.At
			n++
		}
		if n == 0 {
			return 0
		}
		p.pipes.ProcessFront(p.front)
		p.front.Reset()
		p.engine.Run(simtime.Time(p.lastAt))
		p.fed += uint64(n)
		p.fronts++
		return n
	}

	// Allocation sampling: a stop-the-world MemStats read per front
	// would dominate the run, so one front in 256 is measured.
	var ms0, ms1 runtime.MemStats
	sample := p.fronts%256 == 0
	if sample {
		runtime.ReadMemStats(&ms0)
	}
	root := tr.begin("front", -1)
	defer tr.end(root)
	// Generator and parser alternate over traceChunk records at a time,
	// so the scratch stays in cache as the untraced loop's single record
	// does. Each gets one span per front holding its summed time, the two
	// laid end to end from the front's start.
	start := nowNs()
	var fillNs, parseNs int64
	for more := true; more && n < frontSize; {
		t0 := nowNs()
		c := 0
		for c < traceChunk && n+c < frontSize && p.st.src.Next(&p.recs[c]) {
			p.copies[c] = p.recs[c].CopyInto(&p.pkts[c])
			c++
		}
		t1 := nowNs()
		for i := 0; i < c; i++ {
			p.front.AppendCopy(p.copies[i])
		}
		fillNs += t1 - t0
		parseNs += nowNs() - t1
		more = c == traceChunk
		if c > 0 {
			p.lastAt = p.recs[c-1].At
			n += c
		}
	}
	if n == 0 {
		return 0
	}
	tr.add("replay.fill", root, start, start+fillNs)
	tr.add("dataplane.parse", root, start+fillNs, start+fillNs+parseNs)
	var cpu0 float64
	if p.w.shards > 1 {
		cpu0 = cpuSeconds()
	}
	w0 := nowNs()
	s := tr.begin("dataplane.process", root)
	p.pipes.ProcessFront(p.front)
	tr.end(s)
	p.processWall += nowNs() - w0
	if p.w.shards > 1 {
		p.processCPU += cpuSeconds() - cpu0
	}
	p.front.Reset()
	if sample {
		runtime.ReadMemStats(&ms1)
		p.allocSamples = append(p.allocSamples, float64(ms1.Mallocs-ms0.Mallocs)/float64(n))
		p.queueDepth = append(p.queueDepth, float64(p.m.shipper.Stats().Queued))
	}

	s = tr.begin("simtime.run", root)
	before := p.engine.Processed
	p.engine.Run(simtime.Time(p.lastAt))
	tr.end(s)
	p.spansForRun(s, p.engine.Processed-before)
	p.fed += uint64(n)
	p.fronts++
	return n
}

// spansForRun turns what happened inside one Engine.Run into spans. The
// engine's tickers cannot be wrapped from outside, so a Run call in
// which events fired is one controlplane.tick, parent of the
// resilient.emit spans the stamp sink timed during it; a Run call in
// which nothing fired is the engine's idle cost.
func (p *ingestPass) spansForRun(run int32, fired uint64) {
	tr := p.tr
	sp := tr.spans[run]
	if fired == 0 {
		p.idleRun.n++
		p.idleRun.ns += sp.End - sp.Start
		return
	}
	tick := tr.add("controlplane.tick", run, sp.Start, sp.End)
	p.m.mu.Lock()
	emits := p.m.emitSpan[p.emitSeen:]
	p.emitSeen = len(p.m.emitSpan)
	p.m.mu.Unlock()
	for i := 0; i+1 < len(emits); i += 2 {
		tr.add("resilient.emit", tick, emits[i], emits[i+1])
	}
	p.queueDepth = append(p.queueDepth, float64(p.m.shipper.Stats().Queued))
}

// throttle is the closed loop: the one producer waits while
// inFlightWindow reports are emitted but not yet indexed.
func (p *ingestPass) throttle() {
	if p.m.inFlight() < inFlightWindow {
		return
	}
	s := p.tr.begin("bench.window_wait", -1)
	start := nowNs()
	for p.m.inFlight() >= inFlightWindow {
		time.Sleep(100 * time.Microsecond)
	}
	p.waitNs += nowNs() - start
	p.tr.end(s)
}

// ingestOutcome is what one pass measured.
type ingestOutcome struct {
	setupS      float64
	wallS       float64
	cpuS        float64
	peakRSSMB   float64
	records     uint64
	emitted     uint64 // timed phase
	indexed     uint64 // timed phase
	ingestMpps  float64
	reportsPerS float64
	latencyMs   []float64
	stateBytes  float64
	stats       dataplane.Stats
	fp          fingerprint
	checks      []check
	heapPerDoc  float64
}

// run executes set-up, the timed phase and the drain, then checks the
// outputs. The rig is torn down before run returns.
func (p *ingestPass) run() (*ingestOutcome, error) {
	out := &ingestOutcome{}
	t0 := nowNs()
	if err := p.setup(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", p.w.name, err)
	}
	out.setupS = float64(nowNs()-t0) / 1e9

	m := p.m
	emit0, fed0 := m.emitted.Load(), p.fed
	p.emitSeen = len(m.emitSpan) // set-up's reports get no spans
	runtime.GC()                 // start every timed phase at the same point of the collector's cycle
	cpu0 := cpuSeconds()
	start := nowNs()
	for {
		if p.feedFront() == 0 {
			break
		}
		p.throttle()
		if p.w.shards > 1 && !p.prefixDone && p.fed-fed0 == shardPrefixRecords {
			p.prefix, p.prefixDone = p.pipes.StatsSnapshot(), true
		}
		if p.reports > 0 && int(m.emitted.Load()-emit0) >= p.reports {
			break
		}
	}
	p.pipes.Flush()
	// The producer is done; until the last report is stored the result
	// waits on the shipper and the archiver.
	ds := p.tr.begin("bench.drain_wait", -1)
	if err := m.drain(); err != nil {
		return nil, fmt.Errorf("%s: %w", p.w.name, err)
	}
	p.tr.end(ds)
	end := nowNs()
	out.cpuS = cpuSeconds() - cpu0
	out.peakRSSMB = peakRSSMB()
	out.wallS = float64(end-start) / 1e9
	out.records = p.fed - fed0
	out.emitted = m.emitted.Load() - emit0
	out.indexed = m.indexed.Load() - emit0

	// ingest_mpps is every record of the timed phase over the time until
	// the last report they caused was stored. The median over
	// 1-simulated-second windows the issue proposed was tried (and 0.1 s
	// windows, upper quantiles and best-of-k slices of them): run to run
	// they spread as much or more on the reference box, whose noise is a
	// level shift of the whole run, not stalls inside it.
	out.ingestMpps = float64(out.records) / out.wallS / 1e6
	if out.emitted > 0 {
		first := m.emitAt[emit0]
		if span := m.lastIndexed.Load() - first; span > 0 {
			out.reportsPerS = float64(out.indexed) / (float64(span) / 1e9)
		}
		out.latencyMs = m.latenciesMs(int(emit0), int(emit0+out.emitted))
	}
	out.stateBytes = float64(p.pipes.FlowTableMemoryBytes()+p.pipes.LeanMemoryBytes()) / float64(p.st.flowsOffered())
	out.stats = p.pipes.StatsSnapshot()
	out.fp = p.fingerprint(out)
	if p.tr != nil {
		out.heapPerDoc = heapPerDoc(p.arch.store)
	}
	if err := p.teardown(); err != nil {
		return nil, fmt.Errorf("%s: teardown: %w", p.w.name, err)
	}
	out.checks = p.check(out)
	return out, nil
}

// storeDocs counts every document in every index.
func storeDocs(s *psarchiver.Store) int {
	n := 0
	for _, idx := range s.Indices() {
		n += s.Count(idx)
	}
	return n
}

// lossCount is the pipeline's retransmission tally: the pkt_loss
// register summed over the flow table plus what aging folded into each
// shard's loss sketch.
func lossCount(p *dataplane.Pipes) uint64 {
	var total uint64
	for idx := 0; idx < p.Config().FlowTableSize; idx++ {
		v, _ := p.ReadRegister("pkt_loss", uint32(idx))
		total += v
	}
	for i := 0; i < p.NumShards(); i++ {
		_, _, loss := p.Shard(i).Lean().Totals()
		total += loss
	}
	return total
}

func (p *ingestPass) fingerprint(out *ingestOutcome) fingerprint {
	return fingerprint{
		Records:        p.fed,
		RTTSamples:     out.stats.RTTSamples,
		LossCount:      lossCount(p.pipes),
		AliasedPackets: out.stats.AliasedPackets,
		Evictions:      out.stats.Evictions,
		ActiveFlows:    p.cp.ActiveFlowCount(),
		ReportsEmitted: p.m.emitted.Load(),
	}
}

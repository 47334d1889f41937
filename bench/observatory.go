package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/controlplane"
	"repro/internal/psarchiver"
	"repro/internal/simtime"
)

// The observatory's fleet: 2 sites × 2 switches. Both switches of a
// site tap the same flows (as in the federation scenario), so every flow
// is a two-tap path for CrossSite to join.
const (
	obsFlowsPerSite = 50
	obsStepNs       = int64(200 * time.Millisecond) // 5 samples/s per metric
)

var obsMembers = []struct{ site, sw string }{
	{"site-a", "a1"}, {"site-a", "a2"}, {"site-b", "b1"}, {"site-b", "b2"},
}

// observatoryPass is one run of the observatory workload: no data plane,
// a preloaded shared store, four members writing through their shippers
// at a fixed open-loop rate, one reader querying in a closed loop.
type observatoryPass struct {
	seed    uint64
	seconds int
	tr      *tracer
	capture int

	arch    *archiver
	members []*member
	flows   [][]string // per site
	steps   int        // preloaded time steps
	preload int        // preloaded documents
	reports []controlplane.Report
}

// docsPerStep is one metric sample per metric, flow and member.
func docsPerStep() int {
	return len(obsMembers) * obsFlowsPerSite * controlplane.NumMetrics
}

// setup starts the archiver, preloads the store through Pipeline.Emit
// (each member behind its IdentitySink), connects the four shippers and
// pre-builds the writer's reports.
func (p *observatoryPass) setup() error {
	rng := simtime.NewRNG(p.seed)
	p.flows = make([][]string, 2)
	seen := map[string]bool{}
	for s := range p.flows {
		for len(p.flows[s]) < obsFlowsPerSite {
			id := fmt.Sprintf("%08x", uint32(rng.Uint64()))
			if !seen[id] {
				seen[id] = true
				p.flows[s] = append(p.flows[s], id)
			}
		}
	}
	arch, err := newArchiver()
	if err != nil {
		return err
	}
	p.arch = arch

	p.steps = p.seconds * preloadDocsPerSecond / docsPerStep()
	if p.steps < 2 {
		p.steps = 2
	}
	for mi, mem := range obsMembers {
		sink := controlplane.IdentitySink{SiteID: mem.site, SwitchID: mem.sw, Next: arch.pipeline}
		for _, flow := range p.flows[mi/2] {
			for t := 1; t <= p.steps; t++ {
				for _, metric := range controlplane.AllMetrics() {
					sink.Emit(controlplane.Report{
						Kind: controlplane.KindMetric, TimeNs: int64(t) * obsStepNs,
						Metric: metric, Value: 1 + float64(rng.Uint64()%1_000_000)/1000, Unit: "u",
						FlowID: flow, SrcIP: "10.0.0.1", DstIP: "10.1.0.1", SrcPort: 40000, DstPort: 5201, Proto: "tcp",
					})
				}
			}
			// One summary per flow and tap: the same totals at both of a
			// site's switches, so every path joins with zero spread.
			h := reportKey(0, "", "", flow)
			sink.Emit(controlplane.Report{
				Kind: controlplane.KindFlowSummary, TimeNs: int64(p.steps) * obsStepNs,
				FlowID: flow, Packets: 1000 + h%1000, Bytes: 1_000_000 + h%1_000_000,
			})
		}
	}
	p.preload = storeDocs(arch.store)
	arch.watch()

	for _, mem := range obsMembers {
		m, err := newMember(arch, memberConfig{site: mem.site, sw: mem.sw, memSpool: 4096, seed: p.seed, tr: p.tr, capture: p.capture})
		if err != nil {
			return err
		}
		p.members = append(p.members, m)
	}
	n := p.seconds * observatoryWriteRate
	p.reports = make([]controlplane.Report, n)
	metrics := controlplane.AllMetrics()
	per := docsPerStep()
	for i := range p.reports {
		mi := i % len(obsMembers)
		p.reports[i] = controlplane.Report{
			Kind: controlplane.KindMetric, TimeNs: int64(p.steps+1+i/per) * obsStepNs,
			Metric: metrics[(i/(len(obsMembers)*obsFlowsPerSite))%len(metrics)],
			Value:  1 + float64(rng.Uint64()%1_000_000)/1000, Unit: "u",
			FlowID: p.flows[mi/2][(i/len(obsMembers))%obsFlowsPerSite],
			SrcIP:  "10.0.0.1", DstIP: "10.1.0.1", SrcPort: 40000, DstPort: 5201, Proto: "tcp",
		}
	}
	for _, m := range p.members {
		if err := m.waitConnected(); err != nil {
			return err
		}
	}
	return nil
}

func (p *observatoryPass) teardown() error {
	var err error
	for _, m := range p.members {
		if cerr := m.shipper.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := p.arch.close(); err == nil {
		err = cerr
	}
	return err
}

// observatoryOutcome is what one pass measured.
type observatoryOutcome struct {
	setupS      float64
	wallS       float64
	cpuS        float64
	peakRSSMB   float64
	emitted     uint64
	indexed     uint64
	reportsPerS float64
	latencyMs   []float64 // by due time
	lateMs      []float64 // generator lateness per report
	queueDepth  []float64 // traced: shipper queue depth, sampled at emit
	queries     queryStats
	fp          fingerprint
	checks      []check
	heapPerDoc  float64
}

// run executes set-up, the timed phase and the drain, and checks the
// outputs.
func (p *observatoryPass) run() (*observatoryOutcome, error) {
	out := &observatoryOutcome{}
	t0 := nowNs()
	if err := p.setup(); err != nil {
		return nil, fmt.Errorf("observatory: set-up: %w", err)
	}
	out.setupS = float64(nowNs()-t0) / 1e9

	// The reader's queries stay inside the preloaded time range, so what
	// they must return is known exactly whatever the writer has stored
	// by then; what the writer adds still has to be scanned past.
	rng := simtime.NewRNG(p.seed ^ 0x51ed270b)
	rd := &reader{
		store: p.arch.store,
		tr:    p.tr,
		next: func() (psarchiver.Query, int, int) {
			site := rng.Intn(2)
			a := 1 + rng.Intn(p.steps)
			b := 1 + rng.Intn(p.steps)
			if a > b {
				a, b = b, a
			}
			q := psarchiver.Query{
				Index: metricIndex, TimeField: "time_ns",
				Terms:  map[string]string{"flow_id": p.flows[site][rng.Intn(obsFlowsPerSite)]},
				FromNs: int64(a) * obsStepNs, ToNs: int64(b+1) * obsStepNs,
			}
			taps := 2
			if rng.Intn(2) == 0 {
				q.Terms["switch_id"] = obsMembers[2*site+rng.Intn(2)].sw
				taps = 1
			}
			hits := taps * controlplane.NumMetrics * (b + 1 - a)
			return q, hits, hits // every generated sample has a non-zero value
		},
		fleetOK: func(f psarchiver.FleetAggregate, before, after int) bool {
			if f.Unstamped != 0 || len(f.Sites) != 2 || len(f.Paths) != 2*obsFlowsPerSite ||
				f.Documents < before || f.Documents > after {
				return false
			}
			for _, path := range f.Paths {
				if path.DeltaBytes != 0 || len(path.Switches) != 2 {
					return false
				}
			}
			return true
		},
	}

	runtime.GC() // start every timed phase at the same point of the collector's cycle
	cpu0 := cpuSeconds()
	start := nowNs()
	interval := int64(time.Second) / observatoryWriteRate
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	// The writer: open loop. Report i is due at start + i×interval
	// whatever happened to the ones before it, and its latency counts
	// from that due time.
	go func() {
		defer wg.Done()
		defer close(done)
		for i, r := range p.reports {
			due := start + int64(i)*interval
			if wait := due - nowNs(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			out.lateMs = append(out.lateMs, float64(nowNs()-due)/1e6)
			m := p.members[i%len(p.members)]
			m.nextDue = due
			m.sink.Emit(r)
			if p.tr != nil && i%reportSampling == 0 {
				out.queueDepth = append(out.queueDepth, float64(m.shipper.Stats().Queued))
			}
		}
	}()
	// The reader: closed loop, one rotation after another until the
	// writer's schedule ends.
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				rd.rotation()
			}
		}
	}()
	wg.Wait()
	for _, m := range p.members {
		if err := m.drain(); err != nil {
			return nil, fmt.Errorf("observatory: %w", err)
		}
	}
	end := nowNs()
	out.cpuS = cpuSeconds() - cpu0
	out.peakRSSMB = peakRSSMB()
	out.wallS = float64(end-start) / 1e9
	out.queries = rd.stats

	type sample struct {
		due int64
		ms  float64
	}
	var samples []sample
	var last int64
	for _, m := range p.members {
		out.emitted += m.emitted.Load()
		out.indexed += m.indexed.Load()
		for k, ms := range m.latenciesMs(0, len(m.emitAt)) {
			samples = append(samples, sample{m.emitAt[k], ms})
		}
		if l := m.lastIndexed.Load(); l > last {
			last = l
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].due < samples[j].due })
	for _, s := range samples {
		out.latencyMs = append(out.latencyMs, s.ms)
	}
	if span := last - start; span > 0 {
		out.reportsPerS = float64(out.indexed) / (float64(span) / 1e9)
	}
	out.fp = fingerprint{ReportsEmitted: out.emitted, PreloadedDocs: p.preload}
	if p.tr != nil {
		out.heapPerDoc = heapPerDoc(p.arch.store)
	}
	if err := p.teardown(); err != nil {
		return nil, fmt.Errorf("observatory: teardown: %w", err)
	}
	out.checks = p.check(out)
	return out, nil
}

// check asserts everything a correct observatory run must satisfy.
func (p *observatoryPass) check(out *observatoryOutcome) []check {
	var cs []check
	var mismatches uint64
	for _, m := range p.members {
		cs = append(cs, ladderChecks("shipper_"+m.sw+"_", m.shipper.Stats(), m.fallback.n.Load())...)
		mismatches += m.mismatches
	}
	docs := storeDocs(p.arch.store)
	ps := p.arch.pipeline.Stats()
	want := uint64(p.preload) + out.emitted
	q := &out.queries
	cs = append(cs,
		checkf("store_docs_eq_preload_plus_emitted", uint64(docs) == want, "store holds %d documents, %d preloaded + %d emitted", docs, p.preload, out.emitted),
		checkf("pipeline_balanced", ps.Received == want && ps.Shipped == want && ps.Dropped == 0, "%+v, want %d", ps, want),
		checkf("input_errors_zero", p.arch.input.Errors() == 0, "%d undecodable lines", p.arch.input.Errors()),
		checkf("join_in_order", mismatches == 0 && p.arch.unattributed.Load() == 0,
			"%d documents out of order or altered, %d unattributed", mismatches, p.arch.unattributed.Load()),
		checkf("all_reports_sent", out.emitted == uint64(len(p.reports)), "%d of %d scheduled reports emitted", out.emitted, len(p.reports)),
		checkf("query_hits_eq_generator", q.mismatches == 0 && q.ops > 0, "%d of %d queries wrong; first: %s", q.mismatches, q.ops, q.firstMismatch),
	)
	return cs
}

package controlplane

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/dataplane"
	"repro/internal/genconfig"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// MetricConfig is one metric's extraction schedule and alerting policy,
// the knobs pSConfig's config-P4 command turns (Figure 6).
type MetricConfig struct {
	// SamplesPerSecond is the base reporting rate.
	SamplesPerSecond float64
	// AlertThreshold triggers an alert when the metric value crosses
	// it (metric units: bps, %, ms, %). Zero disables alerting.
	AlertThreshold float64
	// AlertSamplesPerSecond is the escalated reporting rate applied
	// while the threshold is exceeded ("increases the rate of
	// measurement collection in order to get higher visibility", §3.2).
	// Zero keeps the base rate.
	AlertSamplesPerSecond float64
}

// Interval converts the base rate to a ticker period.
func (m MetricConfig) Interval() simtime.Time {
	return rateToInterval(m.SamplesPerSecond)
}

func rateToInterval(samplesPerSecond float64) simtime.Time {
	if samplesPerSecond <= 0 {
		samplesPerSecond = 1
	}
	return simtime.Time(float64(simtime.Second) / samplesPerSecond)
}

// MaxSamplesPerSecond caps runtime-configured reporting rates (base
// and escalated). The bound exists so a config-P4 command that parses
// can still fail validation inside the transactional mutation — and
// because a multi-megahertz extraction ticker would starve the
// simulated packet path it is meant to observe.
const MaxSamplesPerSecond = 1e6

// RuntimeConfig is the runtime-tunable slice of the control plane's
// configuration: everything a config-P4 command can change while
// packets flow. It is a pure value — a fixed-size array of scalars,
// no maps, slices or pointers — so copying one shares nothing, which
// is what lets genconfig publish it as an immutable generation
// (DESIGN.md §5.7).
type RuntimeConfig struct {
	// Metrics holds the per-metric schedules, indexed by MetricIndex.
	Metrics [NumMetrics]MetricConfig
}

// MetricConfig returns the schedule slot for m (the zero MetricConfig
// for unknown metrics).
func (rc RuntimeConfig) MetricConfig(m Metric) MetricConfig {
	if i := MetricIndex(m); i >= 0 {
		return rc.Metrics[i]
	}
	return MetricConfig{}
}

// SetRate validates and stages a new base sampling rate for m. It
// mutates only the receiver — a scratch successor generation — so a
// validation error leaves the published configuration untouched.
func (rc *RuntimeConfig) SetRate(m Metric, samplesPerSecond float64) error {
	i := MetricIndex(m)
	if i < 0 {
		return fmt.Errorf("controlplane: unknown metric %q", m)
	}
	if err := validRate("samples_per_second", samplesPerSecond); err != nil {
		return err
	}
	rc.Metrics[i].SamplesPerSecond = samplesPerSecond
	return nil
}

// SetAlert validates and stages an alert threshold and escalated rate
// for m, with the same scratch-mutation contract as SetRate.
func (rc *RuntimeConfig) SetAlert(m Metric, threshold, escalatedSamplesPerSecond float64) error {
	i := MetricIndex(m)
	if i < 0 {
		return fmt.Errorf("controlplane: unknown metric %q", m)
	}
	if threshold <= 0 || math.IsInf(threshold, 0) || math.IsNaN(threshold) {
		return fmt.Errorf("controlplane: invalid threshold %g", threshold)
	}
	if escalatedSamplesPerSecond != 0 {
		if err := validRate("escalated rate", escalatedSamplesPerSecond); err != nil {
			return err
		}
	}
	rc.Metrics[i].AlertThreshold = threshold
	rc.Metrics[i].AlertSamplesPerSecond = escalatedSamplesPerSecond
	return nil
}

func validRate(what string, samplesPerSecond float64) error {
	if samplesPerSecond <= 0 || math.IsNaN(samplesPerSecond) {
		return fmt.Errorf("controlplane: invalid %s %g", what, samplesPerSecond)
	}
	if samplesPerSecond > MaxSamplesPerSecond {
		return fmt.Errorf("controlplane: %s %g exceeds the %g/s cap", what, samplesPerSecond, float64(MaxSamplesPerSecond))
	}
	return nil
}

// Config assembles the control plane's static parameters.
type Config struct {
	// Metrics holds the per-metric schedules; missing metrics default
	// to 1 sample/second with no alerting. New turns it into generation
	// 0 of the runtime config and keeps no copy of it.
	Metrics map[Metric]MetricConfig
	// LinkCapacityBps is the monitored bottleneck capacity, needed for
	// utilisation and queue-occupancy computation.
	LinkCapacityBps float64
	// BufferBytes is the core switch's output buffer, needed to turn
	// queuing delay into queue occupancy (§4.2: occupancy = queuing
	// delay / buffer drain time).
	BufferBytes int
	// IdleTimeout declares a flow terminated when no packet was seen
	// for this long (FIN also terminates). Default 5 s.
	IdleTimeout simtime.Time
	// FairnessFloorBps excludes trickle flows (e.g. pure-ACK reverse
	// flows) from the fairness and utilisation aggregates. Default
	// 0.1% of link capacity.
	FairnessFloorBps float64
	// AgingWindow, when positive, turns on the data plane's flow-table
	// aging: the 1 Hz sweep evicts unannounced register cells idle
	// longer than this window, folding their counters into the sketch
	// tier (DESIGN.md §5.8). Zero disables aging — every cell keeps its
	// first owner until released, the pre-two-tier behaviour. Announced
	// flows are never aged; this directory's FIN/idle sweep owns them.
	AgingWindow simtime.Time
}

// staticConfig is the part of Config a running control plane reads:
// everything but Metrics, whose live values are in the generation
// store. Tick code holds no field it could read a stale schedule from.
type staticConfig struct {
	LinkCapacityBps  float64
	BufferBytes      int
	IdleTimeout      simtime.Time
	FairnessFloorBps float64
	AgingWindow      simtime.Time
}

// cmsResetInterval is the long-flow sketch's decay period.
const cmsResetInterval = 60 * simtime.Second

// flowEntry is the control plane's directory record for one announced
// long flow, joined from the data plane's LongFlowEvent digest.
type flowEntry struct {
	id    dataplane.FlowID
	revID dataplane.FlowID
	tuple packet.FiveTuple
	since simtime.Time

	// Rendered report fields, cached at announcement time: the tuple is
	// immutable for the flow's lifetime, so formatting it once keeps the
	// per-tick reporting loops free of fmt/netip allocations.
	idHex    string
	revHex   string
	srcIPStr string
	dstIPStr string
	protoStr string

	// Previous cumulative counters per derived metric, for windowed
	// deltas.
	prevBytes    uint64
	prevBytesAt  simtime.Time
	prevLoss     uint64
	prevLossPkts uint64
	prevLossAt   simtime.Time

	// Loss observed in the current limitation-classification window,
	// and when a loss was last seen (loss events on a lightly-lossy
	// path are sparser than the classification window, so the verdict
	// needs memory).
	prevLossForClass uint64
	lastLossAt       simtime.Time

	lastThroughputBps float64
	lastLimitation    string
}

// ControlPlane drives extraction and reporting. It is single-threaded
// on the simulation engine, like every simulated component — except
// Update/SetRate/SetAlert, which publish runtime-config generations
// through a lock-free store and are safe to call from any goroutine
// while the engine runs (the psconfig wire server calls them from
// connection handlers).
type ControlPlane struct {
	cfg    staticConfig
	engine *simtime.Engine
	dp     dataplane.Plane
	sink   Sink

	// runtime is the generation store for everything config-P4 can
	// change at run time. Each extraction tick loads exactly one
	// generation and reads every tunable from it (see extract).
	runtime *genconfig.Store[RuntimeConfig]

	// flows is the directory, sorted by flow ID: the order every tick
	// reports in. onLongFlow inserts in place and sweepTerminated
	// compacts in place, so no tick sorts.
	flows   []*flowEntry
	tickers map[Metric]*simtime.Ticker
	// escalated tracks which metrics currently run at the alert rate.
	escalated map[Metric]bool

	// Scratch buffers reused across extraction ticks. snapScratch[i] is
	// flows[i]'s register snapshot, read once per tick by extract and
	// reused by the throughput tick's aggregate and classification.
	snapScratch []dataplane.FlowSnapshot
	tputScratch []float64

	// obs is the optional self-telemetry hook (RegisterObs).
	obs *cpObs

	started bool
}

// New wires a control plane to a data plane — *dataplane.Pipes at any
// pipe count, or a scenario's scripted dataplane.Plane — and a report
// sink. Call Start to begin extraction.
func New(e *simtime.Engine, dp dataplane.Plane, sink Sink, cfg Config) *ControlPlane {
	var rc RuntimeConfig
	for _, m := range AllMetrics() {
		mc, ok := cfg.Metrics[m]
		if !ok {
			mc = MetricConfig{SamplesPerSecond: 1}
		}
		rc.Metrics[MetricIndex(m)] = mc
	}
	sc := staticConfig{
		LinkCapacityBps:  cfg.LinkCapacityBps,
		BufferBytes:      cfg.BufferBytes,
		IdleTimeout:      cfg.IdleTimeout,
		FairnessFloorBps: cfg.FairnessFloorBps,
		AgingWindow:      cfg.AgingWindow,
	}
	if sc.IdleTimeout <= 0 {
		sc.IdleTimeout = 5 * simtime.Second
	}
	if sc.FairnessFloorBps <= 0 {
		sc.FairnessFloorBps = sc.LinkCapacityBps / 1000
	}
	cp := &ControlPlane{
		cfg:       sc,
		engine:    e,
		dp:        dp,
		sink:      sink,
		runtime:   genconfig.NewStore(rc),
		tickers:   make(map[Metric]*simtime.Ticker),
		escalated: make(map[Metric]bool),
	}
	dp.SetLongFlowHandler(cp.onLongFlow)
	dp.SetMicroburstHandler(cp.onMicroburst)
	return cp
}

// Start launches the per-metric extraction tickers, the flow-lifecycle
// sweep and the periodic CMS reset. Initial intervals come from
// generation 0 of the runtime config.
func (cp *ControlPlane) Start() {
	if cp.started {
		return
	}
	cp.started = true
	rc := cp.runtime.Current()
	for _, m := range AllMetrics() {
		m := m
		iv := rc.MetricConfig(m).Interval()
		cp.tickers[m] = simtime.NewTicker(cp.engine, cp.engine.Now()+iv, iv, func(now simtime.Time) {
			cp.extract(m, now)
		})
	}
	simtime.NewTicker(cp.engine, cp.engine.Now()+simtime.Second, simtime.Second, cp.sweepTerminated)
	simtime.NewTicker(cp.engine, cp.engine.Now()+cmsResetInterval, cmsResetInterval,
		func(simtime.Time) { cp.dp.ClearCMS() })
}

// Update transactionally publishes a runtime-config change: mut runs
// against a scratch copy of the current generation, and either the
// whole mutation is installed as one new generation (a single CAS) or
// — on error — nothing changes. Safe to call from any goroutine while
// the engine runs; concurrent updates retry against each other's
// results. Tickers converge on the new generation at their next tick
// (and at the 1 Hz sweep), never mid-quantum.
func (cp *ControlPlane) Update(mut func(*RuntimeConfig) error) error {
	_, err := cp.runtime.Publish(func(cur RuntimeConfig) (RuntimeConfig, error) {
		next := cur
		if err := mut(&next); err != nil {
			return RuntimeConfig{}, err
		}
		return next, nil
	})
	return err
}

// SetRate reconfigures a metric's base sampling rate at run time — the
// psconfig config-P4 --samples_per_second path (Figure 6).
func (cp *ControlPlane) SetRate(m Metric, samplesPerSecond float64) error {
	return cp.Update(func(rc *RuntimeConfig) error { return rc.SetRate(m, samplesPerSecond) })
}

// SetAlert configures a metric's alert threshold and escalated rate —
// the psconfig config-P4 --alert --threshold path (Figure 6).
func (cp *ControlPlane) SetAlert(m Metric, threshold, escalatedSamplesPerSecond float64) error {
	return cp.Update(func(rc *RuntimeConfig) error {
		return rc.SetAlert(m, threshold, escalatedSamplesPerSecond)
	})
}

// MetricConfigFor returns the live configuration of one metric (from
// the current generation).
func (cp *ControlPlane) MetricConfigFor(m Metric) MetricConfig {
	return cp.runtime.Current().MetricConfig(m)
}

// RuntimeSnapshot returns a copy of the live runtime-config
// generation.
func (cp *ControlPlane) RuntimeSnapshot() RuntimeConfig { return cp.runtime.Current() }

// ConfigSeq returns the live runtime-config generation's sequence
// number: the count of config-P4 updates applied since boot.
func (cp *ControlPlane) ConfigSeq() uint64 { return cp.runtime.Seq() }

// ActiveFlowCount returns the number of flows currently tracked.
func (cp *ControlPlane) ActiveFlowCount() int { return len(cp.flows) }

// onLongFlow registers an announced flow in the directory, at its place
// in ID order.
func (cp *ControlPlane) onLongFlow(ev dataplane.LongFlowEvent) {
	i := sort.Search(len(cp.flows), func(i int) bool { return cp.flows[i].id >= ev.ID })
	if i < len(cp.flows) && cp.flows[i].id == ev.ID {
		return
	}
	cp.flows = slices.Insert(cp.flows, i, &flowEntry{
		id:       ev.ID,
		revID:    ev.RevID,
		tuple:    ev.Tuple,
		since:    ev.At,
		idHex:    fmt.Sprintf("%08x", uint32(ev.ID)),
		revHex:   fmt.Sprintf("%08x", uint32(ev.RevID)),
		srcIPStr: ev.Tuple.SrcIP.String(),
		dstIPStr: ev.Tuple.DstIP.String(),
		protoStr: ev.Tuple.Proto.String(),
	})
}

// onMicroburst forwards the data plane's nanosecond burst digest as a
// report, immediately (event-driven, not sampled — the whole point of
// §4.2's per-packet detection).
func (cp *ControlPlane) onMicroburst(ev dataplane.MicroburstEvent) {
	cp.sink.Emit(Report{
		Kind:         KindMicroburst,
		TimeNs:       int64(ev.Start),
		DurationNs:   int64(ev.Duration),
		PeakDelayNs:  int64(ev.PeakDelay),
		BurstPackets: ev.Packets,
		Value:        cp.occupancyPct(ev.PeakDelay),
		Unit:         "percent",
	})
}

// occupancyPct converts a queuing delay into percent of buffer drain
// time (§4.2: queue occupancy = queuing delay / buffer size).
func (cp *ControlPlane) occupancyPct(qdelay simtime.Time) float64 {
	if cp.cfg.BufferBytes <= 0 || cp.cfg.LinkCapacityBps <= 0 {
		return 0
	}
	drainNs := float64(cp.cfg.BufferBytes*8) / cp.cfg.LinkCapacityBps * 1e9
	return float64(qdelay) / drainNs * 100
}

// extract performs one extraction round for a metric: read the
// registers of every tracked flow once, derive the value, report it, and
// apply the alert policy.
func (cp *ControlPlane) extract(m Metric, now simtime.Time) {
	// Establish the multi-pipe barrier first: any batched packet work
	// is replayed and pending long-flow announcements land in cp.flows
	// before this tick iterates the directory (no-op on one pipe).
	cp.dp.Flush()
	// One generation read per tick: the threshold, escalated rate and
	// base interval this round uses all come from one immutable
	// snapshot, so a concurrent config-P4 publish is either entirely
	// visible to this tick or entirely invisible — never half-applied.
	mc := cp.runtime.Current().MetricConfig(m)
	if cp.obs != nil {
		defer cp.observeExtract(time.Now(), len(cp.flows))
	}
	maxValue := 0.0
	throughputs := cp.tputScratch[:0]
	snaps := cp.snapScratch[:0]

	for _, f := range cp.flows {
		snap := cp.dp.ReadFlow(f.id, f.revID)
		snaps = append(snaps, snap)
		var value float64
		var unit string
		var p50, p95, p99 float64
		report := true

		switch m {
		case MetricThroughput:
			elapsed := now - f.prevBytesAt
			if f.prevBytesAt == 0 {
				elapsed = now - f.since
			}
			if elapsed <= 0 {
				report = false
				break
			}
			if snap.Bytes < f.prevBytes {
				// The cell restarted beneath the directory (released, or
				// evicted and re-admitted): resync the baseline
				// instead of producing a wrapped-around delta.
				f.prevBytes = 0
			}
			value = float64(snap.Bytes-f.prevBytes) * 8 / elapsed.Seconds()
			unit = "bps"
			f.prevBytes = snap.Bytes
			f.prevBytesAt = now
			f.lastThroughputBps = value
			if value >= cp.cfg.FairnessFloorBps {
				throughputs = append(throughputs, value)
			}
		case MetricPacketLoss:
			if snap.PktLoss < f.prevLoss {
				f.prevLoss = 0 // cell restarted beneath the directory
			}
			if snap.Pkts < f.prevLossPkts {
				f.prevLossPkts = 0
			}
			lossDelta := snap.PktLoss - f.prevLoss
			pktsDelta := snap.Pkts - f.prevLossPkts
			f.prevLoss = snap.PktLoss
			f.prevLossPkts = snap.Pkts
			f.prevLossAt = now
			if pktsDelta == 0 {
				value = 0
			} else {
				value = float64(lossDelta) / float64(pktsDelta) * 100
			}
			unit = "percent"
		case MetricRTT:
			// The in-register histogram (data-flow cell) turns the
			// latest-sample register into a distribution: p50/p95/p99
			// ride along with every RTT report.
			hist := cp.dp.ReadRTTHist(f.id)
			if hist.Count() > 0 {
				p50 = hist.Quantile(0.50).Millis()
				p95 = hist.Quantile(0.95).Millis()
				p99 = hist.Quantile(0.99).Millis()
			}
			switch {
			case snap.RTT != 0:
				value = snap.RTT.Millis()
			case p50 != 0:
				// The scalar cell was released (eviction or flow restart)
				// but the histogram still holds the distribution: report
				// its median rather than dropping the sample.
				value = p50
			default:
				report = false
			}
			if !report {
				break
			}
			unit = "ms"
		case MetricQueueOccupancy:
			value = cp.occupancyPct(snap.QDelay)
			unit = "percent"
		}

		if !report {
			continue
		}
		if value > maxValue {
			maxValue = value
		}
		r := Report{
			Kind:     KindMetric,
			TimeNs:   int64(now),
			Metric:   m,
			Value:    value,
			Unit:     unit,
			FlowID:   f.idHex,
			RevID:    f.revHex,
			SrcIP:    f.srcIPStr,
			DstIP:    f.dstIPStr,
			SrcPort:  f.tuple.SrcPort,
			DstPort:  f.tuple.DstPort,
			Proto:    f.protoStr,
			RTTP50Ms: p50,
			RTTP95Ms: p95,
			RTTP99Ms: p99,
		}
		cp.sink.Emit(r)
	}

	cp.tputScratch, cp.snapScratch = throughputs, snaps
	if m == MetricThroughput {
		// The snapshots above serve the aggregate and the classification
		// too: the tick flushed at its top and nothing ingests before it
		// returns, and directory flows own distinct cells, so one flow's
		// ResetWindow leaves every other flow's snapshot as read.
		cp.emitAggregate(now, throughputs, snaps)
		cp.classifyLimitations(now, snaps)
	}

	cp.applyAlertPolicy(m, mc, maxValue, now)
	cp.retune(m, mc)
}

// retune re-arms a metric's extraction ticker to the interval implied
// by the generation this tick read: the escalated rate while the
// alert policy holds the metric escalated, the base rate otherwise.
// The SetInterval call is conditional so an unchanged generation (a
// no-op config storm) leaves the tick schedule — and therefore the
// witness output — byte-identical.
func (cp *ControlPlane) retune(m Metric, mc MetricConfig) {
	t := cp.tickers[m]
	if t == nil {
		return
	}
	want := mc.Interval()
	if cp.escalated[m] && mc.AlertSamplesPerSecond > 0 {
		want = rateToInterval(mc.AlertSamplesPerSecond)
	}
	if t.Interval() != want {
		t.SetInterval(want)
	}
}

// emitAggregate publishes the §5.3 control-plane statistics: link
// utilisation, Jain's fairness index, active flow count and aggregate
// totals. snaps are the tick's directory snapshots.
func (cp *ControlPlane) emitAggregate(now simtime.Time, throughputs []float64, snaps []dataplane.FlowSnapshot) {
	var totalBytes, totalPkts uint64
	for i := range snaps {
		snap := &snaps[i]
		totalBytes += snap.Bytes
		totalPkts += snap.Pkts
	}
	cp.sink.Emit(Report{
		Kind:         KindAggregate,
		TimeNs:       int64(now),
		Utilization:  metrics.Utilization(throughputs, cp.cfg.LinkCapacityBps),
		Fairness:     metrics.JainFairness(throughputs),
		ActiveFlows:  len(throughputs),
		TotalBytes:   totalBytes,
		TotalPackets: totalPkts,
	})
}

// classifyLimitations applies the §4.4 heuristic to every tracked flow:
// stable flight size with no new losses means the endpoint is the
// bottleneck; growing flight size punctuated by losses means the
// network is. snaps[i] is flows[i]'s snapshot from this tick.
func (cp *ControlPlane) classifyLimitations(now simtime.Time, snaps []dataplane.FlowSnapshot) {
	for i, f := range cp.flows {
		snap := &snaps[i]
		if !snap.HasFlightWindow() {
			continue // reverse/ACK flows and idle flows: nothing to classify
		}
		if snap.PktLoss < f.prevLossForClass {
			f.prevLossForClass = 0 // cell restarted beneath the directory
		}
		lossDelta := snap.PktLoss - f.prevLossForClass
		f.prevLossForClass = snap.PktLoss
		if lossDelta > 0 {
			f.lastLossAt = now
		}
		// A loss within the last few seconds still colours the verdict:
		// CUBIC on a lightly-lossy path loses less than once per
		// window, yet its expanding flight punctuated by those losses
		// is exactly the paper's network-limited signature.
		recentLoss := f.lastLossAt > 0 && now-f.lastLossAt <= 5*simtime.Second

		verdict := LimitedUnknown
		spread := snap.FlightMaxW - snap.FlightMinW
		stable := snap.FlightMaxW == 0 ||
			float64(spread) <= 0.25*float64(snap.FlightMaxW)
		saturated := cp.cfg.LinkCapacityBps > 0 &&
			f.lastThroughputBps >= 0.9*cp.cfg.LinkCapacityBps
		switch {
		case lossDelta > 0:
			verdict = LimitedByNetwork
		case stable && !saturated && !recentLoss:
			verdict = LimitedByEndpoint
		case saturated:
			verdict = LimitedByNetwork // pinned at capacity: path-limited
		case recentLoss && !stable:
			verdict = LimitedByNetwork // flight expanding between losses
		}

		cp.dp.ResetWindow(f.id)
		f.lastLimitation = verdict
		cp.sink.Emit(Report{
			Kind:       KindLimitation,
			TimeNs:     int64(now),
			FlowID:     f.idHex,
			SrcIP:      f.srcIPStr,
			DstIP:      f.dstIPStr,
			SrcPort:    f.tuple.SrcPort,
			DstPort:    f.tuple.DstPort,
			Proto:      f.protoStr,
			Limitation: verdict,
		})
	}
}

// applyAlertPolicy raises an alert and escalates the sampling rate when
// the metric's maximum observed value crosses the configured threshold,
// and de-escalates (with 20% hysteresis) when it falls back. mc comes
// from the generation the calling tick read — threshold and
// escalated rate are always a coherent pair — and the interval change
// itself happens in retune, from the same snapshot.
func (cp *ControlPlane) applyAlertPolicy(m Metric, mc MetricConfig, maxValue float64, now simtime.Time) {
	if mc.AlertThreshold <= 0 {
		// Alerting disabled (possibly by the generation just read):
		// any standing escalation ends and retune falls back to the
		// base rate.
		cp.escalated[m] = false
		return
	}
	switch {
	case maxValue > mc.AlertThreshold && !cp.escalated[m]:
		cp.escalated[m] = true
		cp.sink.Emit(Report{
			Kind:          KindAlert,
			TimeNs:        int64(now),
			Metric:        m,
			Value:         maxValue,
			Threshold:     mc.AlertThreshold,
			EscalatedRate: mc.AlertSamplesPerSecond,
		})
	case cp.escalated[m] && maxValue < 0.8*mc.AlertThreshold:
		cp.escalated[m] = false
	}
}

// sweepTerminated ends flows that saw a FIN or went idle, emitting the
// terminated-long-flow report of §3.3.2 and releasing the registers.
func (cp *ControlPlane) sweepTerminated(now simtime.Time) {
	cp.dp.Flush()
	// The 1 Hz sweep is also the convergence backstop for freshly
	// published generations: a metric ticking slowly (say every 60 s)
	// would otherwise not notice a rate change until its next tick.
	// One generation read covers all four retunes — the intervals a
	// sweep installs are always a coherent set.
	rc := cp.runtime.Current()
	for _, m := range AllMetrics() {
		cp.retune(m, rc.MetricConfig(m))
	}
	// Flow-table aging rides the same 1 Hz sweep: unannounced cells
	// idle past the window downgrade to the sketch tier so the exact
	// tier keeps tracking only live heavy-hitter candidates. Directory
	// flows are exempt (AgeFlows skips announced cells) and are
	// released below with a flow-summary report instead.
	if cp.cfg.AgingWindow > 0 {
		cp.dp.AgeFlows(now, cp.cfg.AgingWindow)
	}
	kept := cp.flows[:0]
	for _, f := range cp.flows {
		snap := cp.dp.ReadFlow(f.id, f.revID)
		idle := snap.LastSeen > 0 && dataplane.Elapsed(now, snap.LastSeen) > cp.cfg.IdleTimeout
		if !snap.FinSeen && !idle {
			kept = append(kept, f)
			continue
		}
		start := snap.FirstSeen
		end := snap.LastSeen
		dur := dataplane.Elapsed(end, start)
		var avg float64
		if dur > 0 {
			avg = float64(snap.Bytes) * 8 / dur.Seconds()
		}
		var rpct float64
		if snap.Pkts > 0 {
			rpct = float64(snap.PktLoss) / float64(snap.Pkts) * 100
		}
		cp.sink.Emit(Report{
			Kind:             KindFlowSummary,
			TimeNs:           int64(now),
			FlowID:           f.idHex,
			RevID:            f.revHex,
			SrcIP:            f.srcIPStr,
			DstIP:            f.dstIPStr,
			SrcPort:          f.tuple.SrcPort,
			DstPort:          f.tuple.DstPort,
			Proto:            f.protoStr,
			StartNs:          int64(start),
			EndNs:            int64(end),
			Packets:          snap.Pkts,
			Bytes:            snap.Bytes,
			Retransmissions:  snap.PktLoss,
			RetransmitPct:    rpct,
			AvgThroughputBps: avg,
		})
		cp.dp.ReleaseFlow(f.id)
	}
	clear(cp.flows[len(kept):]) // the released entries' slots
	cp.flows = kept
}

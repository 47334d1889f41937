package controlplane

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/tap"
)

func flowTuple(srcPort uint16) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   packet.MustAddr("172.16.0.10"),
		DstIP:   packet.MustAddr("192.168.1.10"),
		SrcPort: srcPort,
		DstPort: 5201,
		Proto:   packet.ProtoTCP,
	}
}

// feedFlow injects n data packets of payload bytes at the given rate
// into the data plane via TAP ingress copies, starting at start.
func feedFlow(dp *dataplane.Pipes, ft packet.FiveTuple, start simtime.Time, n int, payload int, gap simtime.Time) simtime.Time {
	at := start
	for i := 0; i < n; i++ {
		p := packet.NewTCP(ft, uint64(1+i*payload), 0, packet.FlagACK|packet.FlagPSH, payload)
		p.IPID = uint16(i + 1)
		dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Ingress, At: at})
		at += gap
	}
	return at
}

func newCP(sink Sink, cfg Config) (*simtime.Engine, *dataplane.Pipes, *ControlPlane) {
	e := simtime.NewEngine()
	dp := dataplane.NewPipes(dataplane.Config{LongFlowBytes: 10_000}, 1)
	cp := New(e, dp, sink, cfg)
	return e, dp, cp
}

func TestThroughputExtraction(t *testing.T) {
	sink := &MemorySink{}
	e, dp, cp := newCP(sink, Config{LinkCapacityBps: 1e9})
	cp.Start()

	ft := flowTuple(40001)
	// 1000 packets x 1000B payload over ~1s: ~8.3 Mbps including headers.
	e.Schedule(0, func() {
		feedFlow(dp, ft, simtime.Millisecond, 1000, 1000, simtime.Millisecond)
	})
	e.Run(3 * simtime.Second)

	reps := sink.MetricReports(MetricThroughput, "")
	if len(reps) == 0 {
		t.Fatal("no throughput reports")
	}
	// The first full-window report (t=2s window covers traffic ending
	// ~1s; find the max-value report).
	var best float64
	for _, r := range reps {
		if r.Value > best {
			best = r.Value
		}
	}
	if best < 5e6 || best > 12e6 {
		t.Fatalf("peak reported throughput %.1f Mbps, want ~8.3", best/1e6)
	}
	r := reps[0]
	if r.SrcIP != "172.16.0.10" || r.DstIP != "192.168.1.10" || r.Unit != "bps" {
		t.Fatalf("report fields wrong: %+v", r)
	}
}

func TestFlowAnnouncedOnceTracked(t *testing.T) {
	sink := &MemorySink{}
	e, dp, cp := newCP(sink, Config{LinkCapacityBps: 1e9})
	cp.Start()
	e.Schedule(0, func() {
		feedFlow(dp, flowTuple(40001), simtime.Millisecond, 50, 1000, simtime.Microsecond)
	})
	e.Run(simtime.Second)
	if cp.ActiveFlowCount() != 1 {
		t.Fatalf("tracked flows=%d, want 1", cp.ActiveFlowCount())
	}
}

func TestAlertEscalatesReportingRate(t *testing.T) {
	sink := &MemorySink{}
	e, dp, cp := newCP(sink, Config{
		LinkCapacityBps: 1e9,
		BufferBytes:     125_000, // drain time 1ms at 1Gbps
		Metrics: map[Metric]MetricConfig{
			MetricQueueOccupancy: {SamplesPerSecond: 1, AlertThreshold: 30, AlertSamplesPerSecond: 10},
		},
	})
	cp.Start()

	ft := flowTuple(40001)
	// Feed a long flow, then produce an egress pair with 0.5ms queuing
	// delay (50% occupancy > 30% threshold).
	e.Schedule(0, func() {
		feedFlow(dp, ft, simtime.Millisecond, 20, 1000, simtime.Microsecond)
		p := packet.NewTCP(ft, 50_000, 0, packet.FlagACK|packet.FlagPSH, 1000)
		p.IPID = 999
		dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Ingress, At: 100 * simtime.Millisecond})
		dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Egress, At: 100*simtime.Millisecond + 500*simtime.Microsecond})
	})
	e.Run(3 * simtime.Second)

	alerts := sink.ByKind(KindAlert)
	if len(alerts) == 0 {
		t.Fatal("no alert raised")
	}
	a := alerts[0]
	if a.Metric != MetricQueueOccupancy || a.Value < 30 {
		t.Fatalf("alert wrong: %+v", a)
	}
	// Escalation: the queue-occupancy ticker must now run at 10/s.
	if iv := cp.tickers[MetricQueueOccupancy].Interval(); iv != 100*simtime.Millisecond {
		t.Fatalf("escalated interval %v, want 100ms", iv)
	}
	// ~10 samples per second after escalation: count reports in the
	// second following the alert.
	reps := sink.MetricReports(MetricQueueOccupancy, "")
	var afterAlert int
	for _, r := range reps {
		if r.TimeNs > a.TimeNs && r.TimeNs <= a.TimeNs+int64(simtime.Second) {
			afterAlert++
		}
	}
	if afterAlert < 8 {
		t.Fatalf("only %d reports in the escalated second, want ~10", afterAlert)
	}
}

func TestAlertDeescalation(t *testing.T) {
	sink := &MemorySink{}
	e, dp, cp := newCP(sink, Config{
		LinkCapacityBps: 1e9,
		BufferBytes:     125_000,
		Metrics: map[Metric]MetricConfig{
			MetricQueueOccupancy: {SamplesPerSecond: 1, AlertThreshold: 30, AlertSamplesPerSecond: 10},
		},
	})
	cp.Start()
	ft := flowTuple(40001)
	e.Schedule(0, func() {
		feedFlow(dp, ft, simtime.Millisecond, 20, 1000, simtime.Microsecond)
		p := packet.NewTCP(ft, 50_000, 0, packet.FlagACK|packet.FlagPSH, 1000)
		p.IPID = 999
		dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Ingress, At: 100 * simtime.Millisecond})
		dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Egress, At: 100*simtime.Millisecond + 500*simtime.Microsecond})
	})
	// Later, the queue drains (new pair with tiny delay).
	e.Schedule(2*simtime.Second, func() {
		p := packet.NewTCP(ft, 90_000, 0, packet.FlagACK|packet.FlagPSH, 1000)
		p.IPID = 1000
		dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Ingress, At: 2 * simtime.Second})
		dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Egress, At: 2*simtime.Second + simtime.Microsecond})
	})
	e.Run(5 * simtime.Second)
	if iv := cp.tickers[MetricQueueOccupancy].Interval(); iv != simtime.Second {
		t.Fatalf("interval %v after de-escalation, want 1s", iv)
	}
}

func TestSetRateReconfiguresTicker(t *testing.T) {
	sink := &MemorySink{}
	e, _, cp := newCP(sink, Config{LinkCapacityBps: 1e9})
	cp.Start()
	if err := cp.SetRate(MetricRTT, 4); err != nil {
		t.Fatal(err)
	}
	// The publish is immediate; the ticker re-arms when the engine
	// next reaches a tick (generation-swapped config converges at tick
	// boundaries, never mid-quantum). The first RTT tick at t=1s reads
	// the new generation and retunes to 250ms.
	e.Run(1100 * simtime.Millisecond)
	if iv := cp.tickers[MetricRTT].Interval(); iv != 250*simtime.Millisecond {
		t.Fatalf("interval %v, want 250ms", iv)
	}
	if got := cp.MetricConfigFor(MetricRTT).SamplesPerSecond; got != 4 {
		t.Fatalf("live rate %g, want 4", got)
	}
	if err := cp.SetRate("bogus", 1); err == nil {
		t.Fatal("bogus metric must error")
	}
	if err := cp.SetAlert("bogus", 1, 1); err == nil {
		t.Fatal("bogus metric must error")
	}
	// A failed update publishes nothing.
	if seq := cp.ConfigSeq(); seq != 1 {
		t.Fatalf("seq=%d after one valid + two invalid updates", seq)
	}
}

func TestSweepConvergesSlowTicker(t *testing.T) {
	// A metric sampling every 10 s would not tick for ages; the 1 Hz
	// sweep must still converge it onto a freshly published rate
	// within about a second.
	sink := &MemorySink{}
	e, _, cp := newCP(sink, Config{
		LinkCapacityBps: 1e9,
		Metrics:         map[Metric]MetricConfig{MetricRTT: {SamplesPerSecond: 0.1}},
	})
	cp.Start()
	if iv := cp.tickers[MetricRTT].Interval(); iv != 10*simtime.Second {
		t.Fatalf("initial interval %v", iv)
	}
	if err := cp.SetRate(MetricRTT, 4); err != nil {
		t.Fatal(err)
	}
	e.Run(1100 * simtime.Millisecond) // sweep at t=1s retunes, long before t=10s
	if iv := cp.tickers[MetricRTT].Interval(); iv != 250*simtime.Millisecond {
		t.Fatalf("interval %v after sweep, want 250ms", iv)
	}
}

// TestGenerationZeroFromConfig pins how New seeds the runtime config:
// Config.Metrics becomes generation zero, and a metric it leaves out
// reports at 1 sample/s with no alerting.
func TestGenerationZeroFromConfig(t *testing.T) {
	_, _, cp := newCP(&MemorySink{}, Config{
		LinkCapacityBps: 1e9,
		Metrics:         map[Metric]MetricConfig{MetricRTT: {SamplesPerSecond: 5}},
	})
	var want RuntimeConfig
	for _, m := range AllMetrics() {
		want.Metrics[MetricIndex(m)] = MetricConfig{SamplesPerSecond: 1}
	}
	want.Metrics[MetricIndex(MetricRTT)].SamplesPerSecond = 5
	if got := cp.RuntimeSnapshot(); got != want {
		t.Fatalf("generation zero:\n got %+v\nwant %+v", got, want)
	}
	if seq := cp.ConfigSeq(); seq != 0 {
		t.Fatalf("seq=%d before any update", seq)
	}
}

func TestUpdateTransactional(t *testing.T) {
	sink := &MemorySink{}
	_, _, cp := newCP(sink, Config{LinkCapacityBps: 1e9})
	before := cp.RuntimeSnapshot()
	err := cp.Update(func(rc *RuntimeConfig) error {
		if err := rc.SetRate(MetricThroughput, 50); err != nil {
			return err
		}
		if err := rc.SetRate(MetricRTT, 50); err != nil {
			return err
		}
		return rc.SetRate(MetricPacketLoss, 2e9) // over the cap: whole txn aborts
	})
	if err == nil {
		t.Fatal("over-cap rate must error")
	}
	if got := cp.RuntimeSnapshot(); got != before {
		t.Fatalf("config changed on failed transaction:\n got %+v\nwant %+v", got, before)
	}
	if seq := cp.ConfigSeq(); seq != 0 {
		t.Fatalf("seq=%d after failed transaction", seq)
	}
}

func TestFlowSummaryOnFIN(t *testing.T) {
	sink := &MemorySink{}
	e, dp, cp := newCP(sink, Config{LinkCapacityBps: 1e9})
	cp.Start()
	ft := flowTuple(40001)
	e.Schedule(0, func() {
		end := feedFlow(dp, ft, simtime.Millisecond, 100, 1000, simtime.Millisecond)
		fin := packet.NewTCP(ft, 200_000, 1, packet.FlagFIN|packet.FlagACK, 0)
		fin.IPID = 5000
		dp.ProcessCopy(tap.Copy{Pkt: fin, Point: tap.Ingress, At: end})
	})
	e.Run(5 * simtime.Second)

	sums := sink.ByKind(KindFlowSummary)
	if len(sums) != 1 {
		t.Fatalf("summaries=%d, want 1", len(sums))
	}
	s := sums[0]
	if s.Packets != 101 { // 100 data + FIN
		t.Fatalf("packets=%d", s.Packets)
	}
	if s.Bytes == 0 || s.AvgThroughputBps == 0 {
		t.Fatalf("summary missing totals: %+v", s)
	}
	if s.StartNs != int64(simtime.Millisecond) {
		t.Fatalf("start=%d", s.StartNs)
	}
	if cp.ActiveFlowCount() != 0 {
		t.Fatal("flow not released after summary")
	}
}

func TestFlowSummaryOnIdle(t *testing.T) {
	sink := &MemorySink{}
	e, dp, cp := newCP(sink, Config{LinkCapacityBps: 1e9, IdleTimeout: 2 * simtime.Second})
	cp.Start()
	e.Schedule(0, func() {
		feedFlow(dp, flowTuple(40001), simtime.Millisecond, 50, 1000, simtime.Microsecond)
	})
	e.Run(10 * simtime.Second)
	if len(sink.ByKind(KindFlowSummary)) != 1 {
		t.Fatal("idle flow not summarised")
	}
}

func TestAggregateFairnessAndUtilization(t *testing.T) {
	sink := &MemorySink{}
	e, dp, cp := newCP(sink, Config{LinkCapacityBps: 20e6, FairnessFloorBps: 1})
	cp.Start()
	// Two equal flows of ~8.3 Mbps each on a 20 Mbps "link".
	e.Schedule(0, func() {
		feedFlow(dp, flowTuple(40001), simtime.Millisecond, 1000, 1000, simtime.Millisecond)
		feedFlow(dp, flowTuple(40002), simtime.Millisecond, 1000, 1000, simtime.Millisecond)
	})
	e.Run(1100 * simtime.Millisecond)

	aggs := sink.ByKind(KindAggregate)
	if len(aggs) == 0 {
		t.Fatal("no aggregate reports")
	}
	last := aggs[0]
	if last.ActiveFlows != 2 {
		t.Fatalf("active flows=%d", last.ActiveFlows)
	}
	if last.Fairness < 0.99 {
		t.Fatalf("fairness=%f for equal flows", last.Fairness)
	}
	if last.Utilization < 0.7 {
		t.Fatalf("utilization=%f", last.Utilization)
	}
	if last.TotalBytes == 0 || last.TotalPackets == 0 {
		t.Fatal("aggregate totals missing")
	}
}

func TestMicroburstReportForwarded(t *testing.T) {
	sink := &MemorySink{}
	e, dp, cp := newCP(sink, Config{LinkCapacityBps: 1e9, BufferBytes: 1_250_000})
	cp.Start()
	ft := flowTuple(40001)
	e.Schedule(0, func() {
		// Queue delay spikes to 8ms (80% of the 10ms drain time) then
		// collapses: one microburst.
		delays := []simtime.Time{
			10 * simtime.Microsecond, 8 * simtime.Millisecond,
			9 * simtime.Millisecond, 10 * simtime.Microsecond,
		}
		at := 20 * simtime.Millisecond
		for i, qd := range delays {
			p := packet.NewTCP(ft, uint64(1+i*1000), 0, packet.FlagACK|packet.FlagPSH, 1000)
			p.IPID = uint16(i + 1)
			dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Ingress, At: at - qd})
			dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Egress, At: at})
			at += 15 * simtime.Millisecond
		}
	})
	e.Run(simtime.Second)

	bursts := sink.ByKind(KindMicroburst)
	if len(bursts) != 1 {
		t.Fatalf("bursts=%d, want 1", len(bursts))
	}
	b := bursts[0]
	if b.PeakDelayNs != int64(9*simtime.Millisecond) {
		t.Fatalf("peak=%d", b.PeakDelayNs)
	}
	if b.Value < 85 || b.Value > 95 { // 9ms of 10ms drain = 90%
		t.Fatalf("occupancy=%f, want ~90", b.Value)
	}
}

func TestLimitationClassification(t *testing.T) {
	sink := &MemorySink{}
	e, dp, cp := newCP(sink, Config{LinkCapacityBps: 1e9})
	cp.Start()
	ft := flowTuple(40001)

	// Simulate an endpoint-limited flow: constant flight size, no
	// losses. Data seq advances; ACKs trail at a fixed distance.
	e.Schedule(0, func() {
		at := simtime.Millisecond
		const payload = 1000
		for i := 0; i < 2000; i++ {
			seq := uint64(1 + i*payload)
			p := packet.NewTCP(ft, seq, 0, packet.FlagACK|packet.FlagPSH, payload)
			p.IPID = uint16(i)
			dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Ingress, At: at})
			// ACK covering the segment 4 packets back: flight ~4kB.
			if i >= 4 {
				ackNo := uint64(1 + (i-3)*payload)
				a := packet.NewTCP(ft.Reverse(), 1, ackNo, packet.FlagACK, 0)
				a.IPID = uint16(i)
				dp.ProcessCopy(tap.Copy{Pkt: a, Point: tap.Ingress, At: at + 100*simtime.Microsecond})
			}
			at += simtime.Millisecond
		}
	})
	e.Run(2 * simtime.Second)

	lims := sink.ByKind(KindLimitation)
	if len(lims) == 0 {
		t.Fatal("no limitation reports")
	}
	last := lims[len(lims)-1]
	if last.Limitation != LimitedByEndpoint {
		t.Fatalf("verdict=%q, want endpoint", last.Limitation)
	}
}

func TestLimitationNetworkOnLosses(t *testing.T) {
	sink := &MemorySink{}
	e, dp, cp := newCP(sink, Config{LinkCapacityBps: 1e9})
	cp.Start()
	ft := flowTuple(40001)
	e.Schedule(0, func() {
		at := simtime.Millisecond
		const payload = 1000
		seq := uint64(1)
		for i := 0; i < 2000; i++ {
			if i%97 == 96 {
				// Retransmission: lower sequence than previous.
				p := packet.NewTCP(ft, seq-3*payload, 0, packet.FlagACK|packet.FlagPSH, payload)
				p.IPID = uint16(i)
				dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Ingress, At: at})
			} else {
				p := packet.NewTCP(ft, seq, 0, packet.FlagACK|packet.FlagPSH, payload)
				p.IPID = uint16(i)
				dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Ingress, At: at})
				seq += payload
			}
			if i >= 4 {
				a := packet.NewTCP(ft.Reverse(), 1, seq-4*payload, packet.FlagACK, 0)
				a.IPID = uint16(i)
				dp.ProcessCopy(tap.Copy{Pkt: a, Point: tap.Ingress, At: at + 100*simtime.Microsecond})
			}
			at += simtime.Millisecond
		}
	})
	e.Run(2 * simtime.Second)

	lims := sink.ByKind(KindLimitation)
	if len(lims) == 0 {
		t.Fatal("no limitation reports")
	}
	if lims[len(lims)-1].Limitation != LimitedByNetwork {
		t.Fatalf("verdict=%q, want network", lims[len(lims)-1].Limitation)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := Report{
		Kind:   KindMetric,
		TimeNs: 123456789,
		Metric: MetricThroughput,
		Value:  9.5e9,
		Unit:   "bps",
		FlowID: "deadbeef",
		SrcIP:  "10.0.0.1",
	}
	line, err := r.MarshalJSONLine()
	if err != nil {
		t.Fatal(err)
	}
	if line[len(line)-1] != '\n' {
		t.Fatal("JSON line must end with newline")
	}
	var back Report
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, r)
	}
}

func TestReportOmitsEmptyFields(t *testing.T) {
	r := Report{Kind: KindAggregate, TimeNs: 1, Utilization: 0.5}
	line, _ := r.MarshalJSONLine()
	for _, forbidden := range []string{"flow_id", "src_ip", "retransmissions", "burst_packets"} {
		if containsStr(string(line), forbidden) {
			t.Fatalf("empty field %q serialised: %s", forbidden, line)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestMemorySinkFiltering(t *testing.T) {
	m := &MemorySink{}
	m.Emit(Report{Kind: KindMetric, Metric: MetricRTT, FlowID: "aa"})
	m.Emit(Report{Kind: KindMetric, Metric: MetricRTT, FlowID: "bb"})
	m.Emit(Report{Kind: KindMetric, Metric: MetricThroughput, FlowID: "aa"})
	m.Emit(Report{Kind: KindAlert})
	if len(m.ByKind(KindMetric)) != 3 || len(m.ByKind(KindAlert)) != 1 {
		t.Fatal("ByKind wrong")
	}
	if len(m.MetricReports(MetricRTT, "")) != 2 {
		t.Fatal("metric filter wrong")
	}
	if len(m.MetricReports(MetricRTT, "aa")) != 1 {
		t.Fatal("flow filter wrong")
	}
}

func TestValidMetric(t *testing.T) {
	for _, m := range AllMetrics() {
		if !ValidMetric(string(m)) {
			t.Fatalf("%s should be valid", m)
		}
	}
	if ValidMetric("nope") {
		t.Fatal("invalid metric accepted")
	}
}

func TestRateToInterval(t *testing.T) {
	if rateToInterval(10) != 100*simtime.Millisecond {
		t.Fatal("10/s must be 100ms")
	}
	if rateToInterval(0) != simtime.Second {
		t.Fatal("zero rate must default to 1/s")
	}
}

func TestRTTReportCarriesHistogramQuantiles(t *testing.T) {
	sink := &MemorySink{}
	e, dp, cp := newCP(sink, Config{
		LinkCapacityBps: 1e9,
		Metrics: map[Metric]MetricConfig{
			MetricRTT: {SamplesPerSecond: 2},
		},
	})
	cp.Start()

	ft := flowTuple(40001)
	const payload = 1000
	rtt := 5 * simtime.Millisecond
	// 20 data/ACK exchanges at a fixed 5ms RTT: enough bytes to cross
	// the announce threshold and enough ACK matches to fill the
	// in-register histogram.
	e.Schedule(0, func() {
		at := simtime.Millisecond
		for i := 0; i < 20; i++ {
			seq := uint64(1 + i*payload)
			p := packet.NewTCP(ft, seq, 0, packet.FlagACK|packet.FlagPSH, payload)
			p.IPID = uint16(i + 1)
			dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Ingress, At: at})
			ack := packet.NewTCP(ft.Reverse(), 1, seq+payload, packet.FlagACK, 0)
			dp.ProcessCopy(tap.Copy{Pkt: ack, Point: tap.Ingress, At: at + rtt})
			at += 10 * simtime.Millisecond
		}
	})
	e.Run(2 * simtime.Second)

	reps := sink.MetricReports(MetricRTT, "")
	if len(reps) == 0 {
		t.Fatal("no rtt reports")
	}
	last := reps[len(reps)-1]
	// Quantiles are log2-bucket upper bounds: with every sample at 5ms
	// each quantile must cover 5ms but stay within one octave of it.
	lo, hi := rtt.Millis(), 2*rtt.Millis()
	for name, q := range map[string]float64{
		"p50": last.RTTP50Ms, "p95": last.RTTP95Ms, "p99": last.RTTP99Ms,
	} {
		if q < lo || q >= hi {
			t.Errorf("%s = %.3f ms, want in [%.1f, %.1f)", name, q, lo, hi)
		}
	}
	if last.RTTP99Ms < last.RTTP50Ms {
		t.Errorf("p99 %.3f < p50 %.3f", last.RTTP99Ms, last.RTTP50Ms)
	}
	// The scalar sample value must agree with the distribution to
	// within one octave too.
	if last.Value <= 0 || last.Value >= hi {
		t.Errorf("rtt value = %.3f ms, want (0, %.1f)", last.Value, hi)
	}
}

func TestAgingWindowEvictsIdleUnannouncedFlows(t *testing.T) {
	sink := &MemorySink{}
	e, dp, cp := newCP(sink, Config{
		LinkCapacityBps: 1e9,
		AgingWindow:     500 * simtime.Millisecond,
	})
	cp.Start()

	// A short flow that never crosses the announce threshold
	// (5 x 500B < 10_000B LongFlowBytes) and then goes idle.
	ft := flowTuple(40007)
	e.Schedule(0, func() {
		feedFlow(dp, ft, simtime.Millisecond, 5, 500, simtime.Millisecond)
	})
	e.Run(3 * simtime.Second)

	if dp.StatsSnapshot().Evictions == 0 {
		t.Fatal("aging sweep evicted nothing")
	}
	// The flow's history survives in the sketch tier.
	est := dp.EstimateFlow(dataplane.KeyOf(ft))
	if est.Admitted {
		t.Fatal("evicted flow still owns its exact cell")
	}
	if est.Pkts < 5 {
		t.Fatalf("sketch pkts = %d, want >= 5", est.Pkts)
	}
}

// TestStampsAcrossTheClockWrap runs one TCP flow whose packets straddle
// 2^48 ns, where the 48-bit stamp registers wrap (after about 78 h, a
// horizon a collector stepping one simulated second per wall second
// reaches). Every difference of a stamp and a later time must be the
// true elapsed time: the queue delay, RTT and IAT registers, the
// microburst detector, the aging sweep, and the control plane's idle
// test and flow-summary duration.
func TestStampsAcrossTheClockWrap(t *testing.T) {
	const wrap = simtime.Time(1) << 48
	ms, us := simtime.Millisecond, simtime.Microsecond
	for _, shards := range []int{1, 2} {
		sink := &MemorySink{}
		dp := dataplane.NewPipes(dataplane.Config{LongFlowBytes: 10_000}, shards)
		cp := New(simtime.NewEngine(), dp, sink, Config{LinkCapacityBps: 1e9})
		ft := flowTuple(40001)
		id, rev := dataplane.HashFiveTuple(ft), dataplane.HashReverse(ft)
		seq := uint64(1)
		send := func(at simtime.Time) *packet.Packet {
			p := packet.NewTCP(ft, seq, 0, packet.FlagACK|packet.FlagPSH, 1000)
			p.IPID = uint16(seq)
			seq += 1000
			dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Ingress, At: at})
			return p
		}
		egress := func(p *packet.Packet, at simtime.Time) {
			dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Egress, At: at})
		}

		// A flow last seen ten seconds before the wrap: really idle.
		feedFlow(dp, flowTuple(40002), wrap-10*simtime.Second, 1, 1000, ms)
		// Twelve packets a millisecond apart announce the flow; the
		// first pairs with its egress copy for a 1 ms queue baseline.
		egress(send(wrap-12*ms), wrap-11*ms)
		for k := 1; k < 12; k++ {
			send(wrap - 12*ms + simtime.Time(k)*ms)
		}
		// pre is stamped before the wrap, post after it; both leave
		// the queue after it, 4 µs and 1 µs later.
		pre := send(wrap - us)
		post := send(wrap + us)
		egress(post, wrap+2*us)
		egress(pre, wrap+3*us)
		send(wrap + 2*ms)
		timed := send(wrap + 5*ms) // the largest gap: 3 ms
		ack := packet.NewTCP(ft.Reverse(), 1, timed.ExpectedAck(), packet.FlagACK, 0)
		dp.ProcessCopy(tap.Copy{Pkt: ack, Point: tap.Ingress, At: wrap + 55*ms})
		dp.Flush()

		if n := dp.StatsSnapshot().Microbursts; n != 0 || len(sink.ByKind(KindMicroburst)) != 0 {
			t.Errorf("shards=%d: %d microbursts from 1-4 µs queue delays", shards, n)
		}
		snap := dp.ReadFlow(id, rev)
		if snap.QDelay != 4*us || snap.RTT != 50*ms || snap.MaxIAT != 3*ms {
			t.Errorf("shards=%d: qdelay %v rtt %v max iat %v, want 4µs 50ms 3ms",
				shards, snap.QDelay, snap.RTT, snap.MaxIAT)
		}
		if h := dp.ReadRTTHist(id); h.Count() != 1 || h.Quantile(1) < 50*ms || h.Quantile(1) >= 100*ms {
			t.Errorf("shards=%d: rtt histogram %v does not hold one 50 ms sample", shards, h.Buckets)
		}
		// The ACK flow was seen 45 ms ago and stays; the idle flow goes.
		if n := dp.AgeFlows(wrap+100*ms, simtime.Second); n != 1 {
			t.Errorf("shards=%d: aging evicted %d cells, want the one idle flow", shards, n)
		}
		cp.sweepTerminated(wrap + 100*ms)
		if cp.ActiveFlowCount() != 1 || len(sink.ByKind(KindFlowSummary)) != 0 {
			t.Fatalf("shards=%d: a flow seen 95 ms ago was ended as idle", shards)
		}

		fin := packet.NewTCP(ft, seq, 0, packet.FlagACK|packet.FlagFIN, 0)
		dp.ProcessCopy(tap.Copy{Pkt: fin, Point: tap.Ingress, At: wrap + 200*ms})
		bytes := dp.ReadFlow(id, rev).Bytes
		cp.sweepTerminated(wrap + 300*ms)
		sums := sink.ByKind(KindFlowSummary)
		if len(sums) != 1 {
			t.Fatalf("shards=%d: %d flow summaries after FIN, want 1", shards, len(sums))
		}
		if want := float64(bytes) * 8 / (212 * ms).Seconds(); sums[0].AvgThroughputBps != want {
			t.Errorf("shards=%d: summary throughput %.0f bps, want %.0f over 212 ms",
				shards, sums[0].AvgThroughputBps, want)
		}
	}
}

// countingPlane is a data plane that counts the register reads made of
// each flow, and the sketch resets.
type countingPlane struct {
	dataplane.Plane
	reads  map[dataplane.FlowID]int
	clears int
}

func (c *countingPlane) ReadFlow(id, revID dataplane.FlowID) dataplane.FlowSnapshot {
	c.reads[id]++
	return c.Plane.ReadFlow(id, revID)
}

func (c *countingPlane) ClearCMS() {
	c.clears++
	c.Plane.ClearCMS()
}

// TestCMSResetPeriod pins the long-flow sketch's decay period at 60 s:
// three resets in 185 s, whatever config-P4 publishes meanwhile.
func TestCMSResetPeriod(t *testing.T) {
	e := simtime.NewEngine()
	dp := dataplane.NewPipes(dataplane.Config{LongFlowBytes: 10_000}, 1)
	plane := &countingPlane{Plane: dp, reads: map[dataplane.FlowID]int{}}
	cp := New(e, plane, &MemorySink{}, Config{LinkCapacityBps: 1e9})
	cp.Start()
	e.Run(30 * simtime.Second)
	if err := cp.SetRate(MetricThroughput, 20); err != nil {
		t.Fatal(err)
	}
	e.Run(185 * simtime.Second)
	if plane.clears != 3 {
		t.Fatalf("ClearCMS ran %d times in 185 s, want 3", plane.clears)
	}
}

// TestExtractionReadsEachFlowOnce pins the extraction pass: a tick of any
// metric reads each directory flow's registers exactly once, and reports
// in flow-ID order. A flow announced between ticks takes its place in
// that order, and a flow the sweep released is gone from the next tick.
func TestExtractionReadsEachFlowOnce(t *testing.T) {
	e := simtime.NewEngine()
	dp := dataplane.NewPipes(dataplane.Config{LongFlowBytes: 10_000}, 1)
	plane := &countingPlane{Plane: dp, reads: map[dataplane.FlowID]int{}}
	sink := &MemorySink{}
	cp := New(e, plane, sink, Config{LinkCapacityBps: 1e9})

	var tuples []packet.FiveTuple
	for port := uint16(40001); port <= 40008; port++ {
		tuples = append(tuples, flowTuple(port))
	}
	sort.Slice(tuples, func(i, j int) bool {
		return dataplane.HashFiveTuple(tuples[i]) < dataplane.HashFiveTuple(tuples[j])
	})
	announce := func(fts ...packet.FiveTuple) {
		t.Helper()
		for _, ft := range fts {
			feedFlow(dp, ft, simtime.Millisecond, 20, 1000, simtime.Microsecond)
		}
		dp.Flush()
	}

	now := 500 * simtime.Millisecond
	tick := func(want []packet.FiveTuple) {
		t.Helper()
		if got := cp.ActiveFlowCount(); got != len(want) {
			t.Fatalf("directory holds %d flows, want %d", got, len(want))
		}
		for _, m := range AllMetrics() {
			clear(plane.reads)
			sink.Reports = sink.Reports[:0]
			cp.extract(m, now)
			if len(plane.reads) != len(want) {
				t.Fatalf("%s tick read %d flows, want %d", m, len(plane.reads), len(want))
			}
			for _, ft := range want {
				if n := plane.reads[dataplane.HashFiveTuple(ft)]; n != 1 {
					t.Fatalf("%s tick read flow %v %d times, want once", m, ft, n)
				}
			}
			if m == MetricRTT {
				continue // no ACKs, no RTT samples, no RTT reports
			}
			var order []string
			for _, r := range sink.Reports {
				if r.Kind == KindMetric {
					order = append(order, r.FlowID)
				}
			}
			if len(order) != len(want) {
				t.Fatalf("%s tick reported %d flows, want %d", m, len(order), len(want))
			}
			for i, ft := range want {
				if id := fmt.Sprintf("%08x", uint32(dataplane.HashFiveTuple(ft))); order[i] != id {
					t.Fatalf("%s tick: report %d is flow %s, want %s (reports in ID order)", m, i, order[i], id)
				}
			}
		}
		now += 100 * simtime.Millisecond
	}

	// The flow with the smallest ID comes in between ticks.
	announce(tuples[1:]...)
	tick(tuples[1:])
	announce(tuples[0])
	tick(tuples)

	// A FIN ends one flow; the sweep releases it.
	gone := tuples[3]
	fin := packet.NewTCP(gone, 200_000, 1, packet.FlagFIN|packet.FlagACK, 0)
	fin.IPID = 5000
	dp.ProcessCopy(tap.Copy{Pkt: fin, Point: tap.Ingress, At: now})
	sink.Reports = sink.Reports[:0]
	cp.sweepTerminated(now)
	if sums := sink.ByKind(KindFlowSummary); len(sums) != 1 || sums[0].FlowID != fmt.Sprintf("%08x", uint32(dataplane.HashFiveTuple(gone))) {
		t.Fatalf("sweep summaries %+v, want one for %v", sums, gone)
	}
	tick(append(append([]packet.FiveTuple{}, tuples[:3]...), tuples[4:]...))
}

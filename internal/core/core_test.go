package core

import (
	"reflect"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/netsim"
	"repro/internal/psarchiver"
	"repro/internal/simtime"
	"repro/internal/tcp"
)

// scaledOptions returns a laptop-fast variant of the testbed: the
// 10 Gbps / 50-100 ms topology scaled to 200 Mbps / 20-40 ms so tests
// complete in milliseconds of wall time while preserving every
// qualitative behaviour.
func scaledOptions() Options {
	return Options{
		BottleneckBps: netsim.Mbps(200),
		RTTs: [ExternalNetworks]simtime.Time{
			20 * simtime.Millisecond,
			30 * simtime.Millisecond,
			40 * simtime.Millisecond,
		},
		Seed: 7,
	}
}

func scaledSender() tcp.Config { return tcp.Config{MSS: 1448} }

func TestSystemDefaults(t *testing.T) {
	s := NewSystem(Options{})
	if s.Opts.BottleneckBps != netsim.Gbps(10) {
		t.Fatalf("bottleneck default %f", s.Opts.BottleneckBps)
	}
	if s.Opts.RTTs[2] != 100*simtime.Millisecond {
		t.Fatalf("RTT defaults wrong: %v", s.Opts.RTTs)
	}
	// Default buffer: 1 BDP at 100ms and 10Gbps = 125 MB (§5.4.1).
	if s.Opts.BufferBytes != 125_000_000 {
		t.Fatalf("buffer default %d, want 125MB", s.Opts.BufferBytes)
	}
}

func TestBDPBytes(t *testing.T) {
	// The paper's arithmetic: 10 Gbps x 100 ms = 125 MB.
	if got := BDPBytes(netsim.Gbps(10), 100*simtime.Millisecond); got != 125_000_000 {
		t.Fatalf("BDP=%d", got)
	}
}

func TestEndToEndTransferProducesReports(t *testing.T) {
	s := NewSystem(scaledOptions())
	s.Start()
	h := s.TransferToExternal(0, 100*simtime.Millisecond, 0, 5*simtime.Second, scaledSender(), tcp.Config{})
	s.Run(7 * simtime.Second)

	if h.Conn == nil || h.Conn.Stats.BytesAcked == 0 {
		t.Fatal("transfer moved no data")
	}

	tput := s.Archived(controlplane.KindMetric, map[string]string{"metric": string(controlplane.MetricThroughput)})
	if len(tput) == 0 {
		t.Fatal("no throughput reports from the measurement chain")
	}
	// The flow should be visible at roughly the bottleneck rate once
	// past slow start.
	var best float64
	for _, r := range tput {
		if r.DstIP == s.ExternalDTNs[0].IP().String() && r.Value > best {
			best = r.Value
		}
	}
	if best < 0.5*s.Opts.BottleneckBps {
		t.Fatalf("peak reported throughput %.1f Mbps, want >100", best/1e6)
	}

	// RTT reports should reflect the 20ms path. The RTT register is
	// indexed by the ACK flow's ID; the control plane joins it back to
	// the data flow via the reversed ID, so the report's destination is
	// the external DTN.
	rtts := s.Archived(controlplane.KindMetric, map[string]string{"metric": string(controlplane.MetricRTT)})
	found := false
	for _, r := range rtts {
		if r.DstIP == s.ExternalDTNs[0].IP().String() && r.Value > 19 && r.Value < 120 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no plausible RTT report among %d", len(rtts))
	}
}

func TestEndToEndArchiverReceivesDocuments(t *testing.T) {
	s := NewSystem(scaledOptions())
	s.Start()
	s.TransferToExternal(0, 100*simtime.Millisecond, 0, 3*simtime.Second, scaledSender(), tcp.Config{})
	s.Run(5 * simtime.Second)

	// Report_v1 records must land in OpenSearch as Report_v2 documents
	// with the Logstash metadata added (Figure 7).
	idx := psarchiver.IndexName(controlplane.KindMetric)
	if s.Store.Count(idx) == 0 {
		t.Fatalf("no documents in %s; indices: %v", idx, s.Store.Indices())
	}
	doc := s.Store.Search(psarchiver.Query{Index: idx})[0]
	if doc.Str("host") != "p4-switch-cp" || doc.Str("@version") != "1" {
		t.Fatalf("Logstash metadata missing: %v", doc)
	}
}

// TestArchiveHoldsWhatTheSinkGets runs one seed twice, archiving and
// with Options.Sink set: the archive must give back, kind by kind and
// in order, exactly the reports the sink received, and a system with a
// Sink must archive none of them.
func TestArchiveHoldsWhatTheSinkGets(t *testing.T) {
	run := func(sink controlplane.Sink) *System {
		opts := scaledOptions()
		opts.Sink = sink
		opts.BufferBytes = BDPBytes(opts.BottleneckBps, 40*simtime.Millisecond) / 4
		opts.ControlPlane.Metrics = map[controlplane.Metric]controlplane.MetricConfig{
			controlplane.MetricQueueOccupancy: {SamplesPerSecond: 1, AlertThreshold: 1, AlertSamplesPerSecond: 4},
		}
		s := NewSystem(opts)
		s.Start()
		s.TransferToExternal(0, 0, 0, 3*simtime.Second, scaledSender(), tcp.Config{})
		s.TransferToExternal(2, 0, 2_000_000, 0, scaledSender(), tcp.Config{})
		s.InjectMicroburst(2, 2*simtime.Second, 300, 8960)
		s.Run(5 * simtime.Second)
		return s
	}
	archived, sink := run(nil), &controlplane.MemorySink{}
	if indices := run(sink).Store.Indices(); len(indices) != 0 {
		t.Errorf("a system with a Sink archived %v", indices)
	}
	byKind := map[string][]controlplane.Report{}
	for _, r := range sink.Reports {
		byKind[r.Kind] = append(byKind[r.Kind], r)
	}
	for kind, want := range byKind {
		if got := archived.Archived(kind, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the archive holds %d reports, not the sink's %d in order", kind, len(got), len(want))
		}
	}
	// All six kinds, and no index the sink has no kind for.
	if n := len(archived.Store.Indices()); len(byKind) != 6 || n != len(byKind) {
		t.Errorf("the sink got %d kinds, the archive %d indices; want 6", len(byKind), n)
	}
}

func TestTerminatedFlowSummary(t *testing.T) {
	s := NewSystem(scaledOptions())
	s.Start()
	s.TransferToExternal(1, 100*simtime.Millisecond, 10_000_000, 0, scaledSender(), tcp.Config{})
	s.Run(20 * simtime.Second)

	sums := s.FlowSummaries()
	if len(sums) == 0 {
		t.Fatal("no terminated-flow summary")
	}
	var data *controlplane.Report
	for i := range sums {
		if sums[i].DstIP == s.ExternalDTNs[1].IP().String() {
			data = &sums[i]
		}
	}
	if data == nil {
		t.Fatal("no summary for the data flow")
	}
	if data.Bytes < 10_000_000 {
		t.Fatalf("summary bytes %d below transfer size", data.Bytes)
	}
	if data.AvgThroughputBps <= 0 || data.Packets == 0 {
		t.Fatalf("summary incomplete: %+v", data)
	}
	if data.StartNs <= 0 || data.EndNs <= data.StartNs {
		t.Fatalf("summary timestamps wrong: %+v", data)
	}
}

func TestSeriesByDestinationGroupsLikeGrafana(t *testing.T) {
	s := NewSystem(scaledOptions())
	s.Start()
	s.TransferToExternal(0, 100*simtime.Millisecond, 0, 4*simtime.Second, scaledSender(), tcp.Config{})
	s.TransferToExternal(1, 100*simtime.Millisecond, 0, 4*simtime.Second, scaledSender(), tcp.Config{})
	s.Run(5 * simtime.Second)

	series := s.SeriesByDestination(controlplane.MetricThroughput)
	if len(series) != 2 {
		t.Fatalf("series for %d destinations, want 2", len(series))
	}
	for dst, ser := range series {
		if ser.Len() == 0 {
			t.Fatalf("empty series for %s", dst)
		}
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	// The Figure 9/10 behaviour in miniature: two flows with close
	// RTTs converge near a fair share; fairness approaches 1.
	s := NewSystem(scaledOptions())
	s.Start()
	s.TransferToExternal(0, 0, 0, 20*simtime.Second, scaledSender(), tcp.Config{})
	s.TransferToExternal(1, 0, 0, 20*simtime.Second, scaledSender(), tcp.Config{})
	s.Run(20 * simtime.Second)

	_, fairness, _ := s.AggregateSeries()
	if fairness.Len() == 0 {
		t.Fatal("no fairness series")
	}
	// Average fairness over the last 5 seconds should be high.
	tail := fairness.Between(15*simtime.Second, 20*simtime.Second)
	var sum float64
	for _, p := range tail {
		sum += p.V
	}
	// CUBIC is RTT-unfair (the 20 ms flow beats the 30 ms flow), so
	// equilibrium fairness sits below 1; it must still be far above
	// the 0.5 of a starved flow.
	if len(tail) == 0 || sum/float64(len(tail)) < 0.65 {
		t.Fatalf("late fairness %.3f, want >0.65", sum/float64(len(tail)))
	}
}

func TestMicroburstInjectionDetected(t *testing.T) {
	opts := scaledOptions()
	// Small buffer (BDP/4 at the 40ms path) so the burst bloats it.
	opts.BufferBytes = BDPBytes(opts.BottleneckBps, 40*simtime.Millisecond) / 4
	s := NewSystem(opts)
	s.Start()
	s.TransferToExternal(2, 0, 0, 10*simtime.Second, scaledSender(), tcp.Config{})
	// 300 jumbo packets back-to-back at 4x bottleneck rate.
	s.InjectMicroburst(2, 5*simtime.Second, 300, 8960)
	s.Run(10 * simtime.Second)

	bursts := s.MicroburstReports()
	if len(bursts) == 0 {
		t.Fatal("injected microburst not detected")
	}
	b := bursts[0]
	if b.DurationNs <= 0 || b.PeakDelayNs <= 0 {
		t.Fatalf("burst report incomplete: %+v", b)
	}
}

func TestInvalidExternalIndexPanics(t *testing.T) {
	s := NewSystem(scaledOptions())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range external index must panic")
		}
	}()
	s.TransferToExternal(99, 0, 0, simtime.Second, tcp.Config{}, tcp.Config{})
}

func TestMaxQueueDelay(t *testing.T) {
	opts := scaledOptions()
	opts.BufferBytes = 250_000 // 10ms at 200Mbps
	s := NewSystem(opts)
	if got := s.MaxQueueDelay(); got != 10*simtime.Millisecond {
		t.Fatalf("MaxQueueDelay=%v", got)
	}
}

// Package pscheduler_test exercises the active-test scheduler through
// the assembled system (an external test package avoids the
// core↔pscheduler import cycle).
package pscheduler_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/psarchiver"
	"repro/internal/simtime"
	"repro/internal/tcp"
)

func scaledSystem() *core.System {
	return core.NewSystem(core.Options{
		BottleneckBps: netsim.Mbps(200),
		RTTs: [core.ExternalNetworks]simtime.Time{
			20 * simtime.Millisecond,
			30 * simtime.Millisecond,
			40 * simtime.Millisecond,
		},
		Seed: 3,
	})
}

func TestThroughputTestProducesAggregatedResult(t *testing.T) {
	sys := scaledSystem()
	sys.Scheduler.ScheduleThroughput(sys.LocalPerfNode, sys.ExternalPerf[0],
		simtime.Second, 60*simtime.Second, 3*simtime.Second, tcp.Config{MSS: 1448})
	sys.Run(10 * simtime.Second)

	if len(sys.Scheduler.Throughput) != 1 {
		t.Fatalf("results: %d", len(sys.Scheduler.Throughput))
	}
	r := sys.Scheduler.Throughput[0]
	// A 3 s test at 40 ms RTT spends much of its life in slow start,
	// so the average sits well below line rate but must be plausible.
	if r.AvgBps < 20e6 || r.AvgBps > 200e6 {
		t.Fatalf("avg %.1f Mbps", r.AvgBps/1e6)
	}
	if r.Src != "ps-local" || r.Dst != "ps1" {
		t.Fatalf("endpoints %s -> %s", r.Src, r.Dst)
	}
	if r.BytesMoved == 0 {
		t.Fatal("no bytes recorded")
	}
}

func TestThroughputTestRepeatsOnSchedule(t *testing.T) {
	sys := scaledSystem()
	sys.Scheduler.ScheduleThroughput(sys.LocalPerfNode, sys.ExternalPerf[1],
		simtime.Second, 10*simtime.Second, 2*simtime.Second, tcp.Config{MSS: 1448})
	sys.Run(25 * simtime.Second)
	if len(sys.Scheduler.Throughput) != 3 { // t=1, 11, 21
		t.Fatalf("test runs: %d, want 3", len(sys.Scheduler.Throughput))
	}
}

func TestLatencyTestMinMeanMax(t *testing.T) {
	sys := scaledSystem()
	sys.Scheduler.ScheduleLatency(sys.LocalPerfNode, sys.ExternalPerf[2],
		simtime.Second, 60*simtime.Second, 10, 100*simtime.Millisecond)
	sys.Run(10 * simtime.Second)

	if len(sys.Scheduler.Latency) != 1 {
		t.Fatalf("results: %d", len(sys.Scheduler.Latency))
	}
	r := sys.Scheduler.Latency[0]
	if r.Sent != 10 || r.Received != 10 {
		t.Fatalf("sent/received %d/%d", r.Sent, r.Received)
	}
	// Path RTT to network 3 is 40 ms; idle network, so min≈mean≈max.
	if r.MinRTT < 39*simtime.Millisecond || r.MaxRTT > 50*simtime.Millisecond {
		t.Fatalf("rtt range %v..%v", r.MinRTT, r.MaxRTT)
	}
	if r.MeanRTT < r.MinRTT || r.MeanRTT > r.MaxRTT {
		t.Fatal("mean outside min..max")
	}
}

func TestLatencyTestCountsLoss(t *testing.T) {
	sys := scaledSystem()
	sys.ExternalAccessLinks[0].LossRate = 0.5 // brutal loss on the probe path
	// Note: probes to the perfSONAR node ride a different downlink, so
	// impair that host's downlink instead via the scheduler target DTN.
	sys.Scheduler.ScheduleLatency(sys.LocalPerfNode, sys.ExternalDTNs[0],
		simtime.Second, 60*simtime.Second, 20, 50*simtime.Millisecond)
	sys.Run(10 * simtime.Second)
	r := sys.Scheduler.Latency[0]
	if r.Received >= r.Sent {
		t.Fatalf("expected probe loss, got %d/%d", r.Received, r.Sent)
	}
}

func TestResultsArchivedThroughLogstash(t *testing.T) {
	sys := scaledSystem()
	sys.Scheduler.ScheduleThroughput(sys.LocalPerfNode, sys.ExternalPerf[0],
		simtime.Second, 60*simtime.Second, 2*simtime.Second, tcp.Config{MSS: 1448})
	sys.Scheduler.ScheduleLatency(sys.LocalPerfNode, sys.ExternalPerf[0],
		simtime.Second, 60*simtime.Second, 5, 100*simtime.Millisecond)
	sys.Run(10 * simtime.Second)

	if sys.Store.Count("p4-psonar-pscheduler_throughput") != 1 {
		t.Fatalf("throughput docs: %v", sys.Store.Indices())
	}
	if sys.Store.Count("p4-psonar-pscheduler_latency") != 1 {
		t.Fatalf("latency docs: %v", sys.Store.Indices())
	}
	docs := sys.Store.Search(psarchiver.Query{Index: "p4-psonar-pscheduler_latency"})
	if _, ok := docs[0].Float("mean_rtt_ms"); !ok {
		t.Fatalf("latency doc incomplete: %v", docs[0])
	}
}

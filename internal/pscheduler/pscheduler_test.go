// Package pscheduler_test exercises the active-test scheduler through
// the assembled system (an external test package avoids the
// core↔pscheduler import cycle).
package pscheduler_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/psarchiver"
	"repro/internal/pscheduler"
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

// results returns the archived test results of one kind.
func results(sys *core.System, kind string) []psarchiver.Document {
	return sys.Store.Search(psarchiver.Query{Index: psarchiver.IndexName(kind)})
}

func TestThroughputTestProducesAggregatedResult(t *testing.T) {
	sys := scaledSystem()
	sys.Scheduler.ScheduleThroughput(sys.LocalPerfNode, sys.ExternalPerf[0],
		simtime.Second, 60*simtime.Second, 3*simtime.Second, tcp.Config{MSS: 1448})
	sys.Run(10 * simtime.Second)

	docs := results(sys, pscheduler.KindThroughput)
	if len(docs) != 1 {
		t.Fatalf("results: %d", len(docs))
	}
	r := docs[0]
	// A 3 s test at 40 ms RTT spends much of its life in slow start,
	// so the average sits well below line rate but must be plausible.
	if avg, _ := r.Float("avg_bps"); avg < 20e6 || avg > 200e6 {
		t.Fatalf("avg %.1f Mbps", avg/1e6)
	}
	if r.Str("src") != "ps-local" || r.Str("dst") != "ps1" {
		t.Fatalf("endpoints %s -> %s", r.Str("src"), r.Str("dst"))
	}
	if bytes, _ := r.Float("bytes"); bytes == 0 {
		t.Fatal("no bytes recorded")
	}
}

func TestThroughputTestRepeatsOnSchedule(t *testing.T) {
	sys := scaledSystem()
	sys.Scheduler.ScheduleThroughput(sys.LocalPerfNode, sys.ExternalPerf[1],
		simtime.Second, 10*simtime.Second, 2*simtime.Second, tcp.Config{MSS: 1448})
	sys.Run(25 * simtime.Second)
	if n := len(results(sys, pscheduler.KindThroughput)); n != 3 { // t=1, 11, 21
		t.Fatalf("test runs: %d, want 3", n)
	}
}

func TestLatencyTestMinMeanMax(t *testing.T) {
	sys := scaledSystem()
	sys.Scheduler.ScheduleLatency(sys.LocalPerfNode, sys.ExternalPerf[2],
		simtime.Second, 60*simtime.Second, 10, 100*simtime.Millisecond)
	sys.Run(10 * simtime.Second)

	docs := results(sys, pscheduler.KindLatency)
	if len(docs) != 1 {
		t.Fatalf("results: %d", len(docs))
	}
	r := docs[0]
	sent, _ := r.Float("sent")
	received, _ := r.Float("received")
	if sent != 10 || received != 10 {
		t.Fatalf("sent/received %v/%v", sent, received)
	}
	// Path RTT to network 3 is 40 ms; idle network, so min≈mean≈max.
	lo, _ := r.Float("min_rtt_ms")
	mean, _ := r.Float("mean_rtt_ms")
	hi, _ := r.Float("max_rtt_ms")
	if lo < 39 || hi > 50 {
		t.Fatalf("rtt range %vms..%vms", lo, hi)
	}
	if mean < lo || mean > hi {
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
	r := results(sys, pscheduler.KindLatency)[0]
	sent, _ := r.Float("sent")
	if received, _ := r.Float("received"); received >= sent {
		t.Fatalf("expected probe loss, got %v/%v", received, sent)
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

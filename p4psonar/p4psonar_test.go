package p4psonar_test

import (
	"testing"

	"repro/p4psonar"
)

// TestFacadeEndToEnd drives the library exactly as the README's
// quick-start shows, through the public facade only.
func TestFacadeEndToEnd(t *testing.T) {
	sys := p4psonar.NewSystem(p4psonar.Options{
		BottleneckBps: 200e6,
	})
	sys.Start()
	sys.TransferToExternal(0, 0, 0, 5*p4psonar.Second,
		p4psonar.SenderConfig{MSS: 1448}, p4psonar.ReceiverConfig{})
	sys.Run(6 * p4psonar.Second)

	series := sys.SeriesByDestination(p4psonar.MetricThroughput)
	if len(series) != 1 {
		t.Fatalf("series: %d", len(series))
	}
	for _, s := range series {
		if s.Len() == 0 || s.Max() <= 0 {
			t.Fatal("empty throughput series")
		}
	}
}

func TestFacadeBDP(t *testing.T) {
	if p4psonar.BDPBytes(10e9, 100*p4psonar.Millisecond) != 125_000_000 {
		t.Fatal("BDP arithmetic wrong")
	}
}

func TestFacadeMMWave(t *testing.T) {
	r := p4psonar.RunFig14(p4psonar.Fig13Config{})
	if !r.OrderingHolds {
		t.Fatal("detector ordering violated through facade")
	}
	if r.Results[p4psonar.DetectorP4IAT].DetectionLatency <= 0 {
		t.Fatal("no detection latency")
	}
}

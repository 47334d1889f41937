// Microburst detection (§5.4.1 / Figure 11): a small (BDP/4) switch
// buffer, three long flows, and an injected UDP packet train. The P4
// data plane watches queue occupancy per packet and reports the burst
// with nanosecond start time and duration — something no sampled
// monitor can see.
//
//	go run ./examples/microburst
package main

import (
	"fmt"

	"repro/p4psonar"
)

func main() {
	const bottleneck = 500e6 // fast-scale 10 Gbps
	rtt := 100 * p4psonar.Millisecond
	buffer := p4psonar.BDPBytes(bottleneck, rtt) / 4 // the paper's small buffer

	sys := p4psonar.NewSystem(p4psonar.Options{
		BottleneckBps: bottleneck,
		RTTs:          [3]p4psonar.Time{rtt, rtt, rtt},
		BufferBytes:   buffer,
	})
	sys.Start()

	sender := p4psonar.SenderConfig{MSS: 1448}
	for i := 0; i < 3; i++ {
		sys.TransferToExternal(i, 0, 0, 30*p4psonar.Second, sender, p4psonar.ReceiverConfig{})
	}

	// The microburst: 400 packets back-to-back at the access-link rate.
	sys.InjectMicroburst(0, 15*p4psonar.Second, 400, 1448)

	sys.Run(30 * p4psonar.Second)

	fmt.Printf("buffer = BDP/4 = %d bytes (drain time %v)\n\n", buffer, sys.MaxQueueDelay())

	bursts := sys.MicroburstReports()
	fmt.Printf("microbursts detected by the data plane: %d\n", len(bursts))
	for _, b := range bursts {
		fmt.Printf("  start=%v duration=%v peak-occupancy=%.1f%% packets=%d\n",
			p4psonar.Time(b.TimeNs), p4psonar.Time(b.DurationNs), b.Value, b.BurstPackets)
	}

	fmt.Println("\nimpact on the flows (loss % per destination):")
	for dst, series := range sys.SeriesByDestination(p4psonar.MetricPacketLoss) {
		fmt.Printf("  %s: worst window %.3f%%\n", dst, series.Max())
	}

	fmt.Println("\nalerts raised by the control plane:")
	alerts := sys.Archived(p4psonar.KindAlert, nil)
	for _, a := range alerts {
		fmt.Printf("  t=%v metric=%s value=%.1f threshold=%.1f\n",
			p4psonar.Time(a.TimeNs), a.Metric, a.Value, a.Threshold)
	}
	if len(alerts) == 0 {
		fmt.Println("  (none configured — use psconfig config-P4 --alert to add thresholds)")
	}
}

// Quickstart: build the paper's Science DMZ testbed, run two data
// transfers through the tapped core switch, and read back what the P4
// data plane measured — per-flow throughput, RTT, queue occupancy and
// packet loss, plus the control plane's aggregates.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"sort"

	"repro/p4psonar"
)

func main() {
	// A fast-scale testbed: 500 Mbps bottleneck instead of 10 Gbps so
	// the example finishes in a couple of wall seconds. Everything
	// else matches the paper's §5.1 setup (RTTs 50/75/100 ms, 1-BDP
	// buffer, TAPs on the core switch feeding the P4 pipeline).
	sys := p4psonar.NewSystem(p4psonar.Options{
		BottleneckBps: 500e6,
	})
	sys.Start()

	// Two iPerf3-style transfers from the internal DTN to external
	// DTN1 and DTN2, 15 virtual seconds each.
	sender := p4psonar.SenderConfig{MSS: 1448}
	sys.TransferToExternal(0, 0, 0, 15*p4psonar.Second, sender, p4psonar.ReceiverConfig{})
	sys.TransferToExternal(1, 0, 0, 15*p4psonar.Second, sender, p4psonar.ReceiverConfig{})

	sys.Run(16 * p4psonar.Second)

	fmt.Println("== per-flow measurements (data plane registers, via control plane) ==")
	for _, metric := range []p4psonar.Metric{
		p4psonar.MetricThroughput,
		p4psonar.MetricRTT,
		p4psonar.MetricQueueOccupancy,
		p4psonar.MetricPacketLoss,
	} {
		byDst := sys.SeriesByDestination(metric)
		var dsts []string
		for dst := range byDst {
			dsts = append(dsts, dst)
		}
		sort.Strings(dsts)
		for _, dst := range dsts {
			series := byDst[dst]
			fmt.Printf("%-16s -> %-14s samples=%-4d mean=%10.3f max=%10.3f\n",
				metric, dst, series.Len(), series.Mean(), series.Max())
		}
	}

	util, fairness, _ := sys.AggregateSeries()
	fmt.Println("\n== control-plane aggregates (§5.3) ==")
	fmt.Printf("link utilization: mean %.2f\n", util.Mean())
	fmt.Printf("Jain's fairness:  mean %.3f\n", fairness.Mean())

	fmt.Println("\n== terminated-flow reports (§3.3.2) ==")
	for _, s := range sys.FlowSummaries() {
		fmt.Printf("%s:%d -> %s:%d  bytes=%d pkts=%d avg=%.1f Mbps retrans=%d (%.3f%%)\n",
			s.SrcIP, s.SrcPort, s.DstIP, s.DstPort,
			s.Bytes, s.Packets, s.AvgThroughputBps/1e6, s.Retransmissions, s.RetransmitPct)
	}

	fmt.Println("\n== archiver (Report_v2 documents in OpenSearch) ==")
	for _, idx := range sys.Store.Indices() {
		fmt.Printf("index %-28s %5d documents\n", idx, sys.Store.Count(idx))
	}
}

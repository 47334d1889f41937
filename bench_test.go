// Package repro's root benchmarks are the ablations called out in
// DESIGN.md §5, which report collision, eviction and detection counts,
// not time, and BenchmarkIngestSynth, the entry point for a CPU profile
// of the batch ingest path at machine speed. The hot paths'
// zero-allocation assertions live in bench_alloc_test.go; speed is
// gated by the bench/ module (make bench-pairs, bench-scaling,
// bench-test); the paper's exhibits are regenerated by
// `p4psonar run <exhibit>` and asserted in internal/experiments.
//
//	go test -run '^$' -bench . -benchmem
//	go test -run '^$' -bench IngestSynth -cpuprofile cpu.out .
package repro

import (
	"sort"
	"strconv"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/tap"
)

// BenchmarkIngestSynth streams the elephants shape — 64 flows of
// 1460 B segments with their ACKs, egress copies and resends — through
// replay.Runner in fronts of 1024 into a bare Pipes at 1 and 2 shards,
// without the control plane and archiver that bench/ attaches. Each
// iteration is a fresh pipeline fed 2,000,000 records; Mpps is the
// Runner's wall-clock rate over all of them.
func BenchmarkIngestSynth(b *testing.B) {
	const records = 2_000_000
	for _, shards := range []int{1, 2} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			var pkts, secs float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				plane := dataplane.NewPipes(dataplane.Config{}, shards)
				b.StartTimer()
				res := replay.Runner{Plane: plane, Batch: 1024}.Run(&replay.Synth{Flows: 64, MSS: 1460, Packets: records})
				if res.Packets != records || res.Stats.RTTSamples == 0 {
					b.Fatalf("ingested %d of %d records, %d RTT samples", res.Packets, records, res.Stats.RTTSamples)
				}
				pkts += float64(res.Packets)
				secs += res.Elapsed.Seconds()
			}
			b.ReportMetric(pkts/secs/1e6, "Mpps")
		})
	}
}

// BenchmarkAblationFlowTableSize measures how the per-flow register
// table size trades state for collision-corrupted flows.
func BenchmarkAblationFlowTableSize(b *testing.B) {
	for _, size := range []int{64, 512, 2048} {
		b.Run(sizeName(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dp := dataplane.New(dataplane.Config{FlowTableSize: size})
				feedBidirectional(dp, 256, 20) // 256 concurrent flows
				b.ReportMetric(float64(dp.Stats.SlotCollisions), "collisions")
			}
		})
	}
}

// feedBidirectional pushes n data packets and their delayed ACKs from
// synthetic flows through a data plane, returning the observation
// counts.
func feedBidirectional(dp *dataplane.DataPlane, flows, n int) {
	base := packet.FiveTuple{
		SrcIP:   packet.MustAddr("172.16.0.10"),
		DstIP:   packet.MustAddr("192.168.1.10"),
		SrcPort: 40000,
		DstPort: 5201,
		Proto:   packet.ProtoTCP,
	}
	const payload = 1448
	const rtt = 50 * simtime.Millisecond
	// Events must reach the pipeline in timestamp order, exactly as the
	// TAP delivers them: an ACK arrives one RTT after its data packet,
	// with a full RTT's worth of later data stored in between — that
	// window is where eACK evictions destroy samples.
	type ev struct {
		at  simtime.Time
		pkt *packet.Packet
	}
	var events []ev
	at := simtime.Millisecond
	for i := 0; i < n; i++ {
		for f := 0; f < flows; f++ {
			ft := base
			ft.SrcPort = uint16(40000 + f)
			seq := uint64(1 + i*payload)
			p := packet.NewTCP(ft, seq, 0, packet.FlagACK|packet.FlagPSH, payload)
			p.IPID = uint16(i)
			events = append(events, ev{at, p})
			if i%2 == 1 { // delayed ACK every 2nd segment, one RTT later
				a := packet.NewTCP(ft.Reverse(), 1, seq+payload, packet.FlagACK, 0)
				a.IPID = uint16(i)
				events = append(events, ev{at + rtt, a})
			}
		}
		at += 10 * simtime.Microsecond
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	for _, e := range events {
		dp.ProcessCopy(tap.Copy{Pkt: e.pkt, Point: tap.Ingress, At: e.at})
	}
}

// BenchmarkAblationEACKSize measures how the expected-ACK table size
// trades memory for RTT-sample yield (evictions destroy samples).
func BenchmarkAblationEACKSize(b *testing.B) {
	for _, size := range []int{1 << 8, 1 << 12, 1 << 16} {
		b.Run(sizeName(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dp := dataplane.New(dataplane.Config{EACKTableSize: size})
				feedBidirectional(dp, 8, 2000)
				total := dp.Stats.RTTSamples + dp.Stats.EACKEvictions
				if total == 0 {
					b.Fatal("no eACK activity")
				}
				b.ReportMetric(float64(dp.Stats.RTTSamples), "rtt-samples")
				b.ReportMetric(float64(dp.Stats.EACKEvictions), "evictions")
			}
		})
	}
}

// BenchmarkAblationCMS measures count-min sketch geometry against
// false long-flow announcements (mice promoted by collisions).
func BenchmarkAblationCMS(b *testing.B) {
	for _, width := range []int{64, 512, 8192} {
		b.Run(sizeName(width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dp := dataplane.New(dataplane.Config{
					CMSWidth:      width,
					CMSDepth:      2,
					LongFlowBytes: 1 << 20,
				})
				falsePositives := 0
				dp.OnLongFlow = func(ev dataplane.LongFlowEvent) {
					// Mice send < 16 KB true bytes; any announcement
					// for one is a CMS overestimate.
					if ev.Tuple.SrcPort >= 50000 {
						falsePositives++
					}
				}
				// One elephant per run plus 2000 mice.
				elephant := packet.FiveTuple{
					SrcIP:   packet.MustAddr("172.16.0.10"),
					DstIP:   packet.MustAddr("192.168.1.10"),
					SrcPort: 40000,
					DstPort: 5201,
					Proto:   packet.ProtoTCP,
				}
				at := simtime.Millisecond
				for j := 0; j < 2000; j++ {
					p := packet.NewTCP(elephant, uint64(1+j*1448), 0, packet.FlagACK|packet.FlagPSH, 1448)
					p.IPID = uint16(j)
					dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Ingress, At: at})
					mouse := elephant
					mouse.SrcPort = uint16(50000 + j%2000)
					m := packet.NewTCP(mouse, 1, 0, packet.FlagACK|packet.FlagPSH, 512)
					m.IPID = uint16(j)
					dp.ProcessCopy(tap.Copy{Pkt: m, Point: tap.Ingress, At: at})
					at += 10 * simtime.Microsecond
				}
				b.ReportMetric(float64(falsePositives), "false-longflows")
			}
		})
	}
}

// BenchmarkAblationSampledVsPerPacket contrasts data-plane per-packet
// microburst detection with control-plane sampling (§4.2's argument):
// the sampled observer misses short bursts the per-packet detector
// reports.
func BenchmarkAblationSampledVsPerPacket(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dp := dataplane.New(dataplane.Config{
			BurstFloor: simtime.Millisecond,
		})
		perPacket := 0
		dp.OnLongFlow = nil
		dp.OnMicroburst = func(dataplane.MicroburstEvent) { perPacket++ }

		ft := packet.FiveTuple{
			SrcIP:   packet.MustAddr("172.16.0.10"),
			DstIP:   packet.MustAddr("192.168.1.10"),
			SrcPort: 40000,
			DstPort: 5201,
			Proto:   packet.ProtoTCP,
		}
		// 50 microbursts of ~200 us, separated by ~1 s of ordinary
		// traffic; a control-plane sampler at 1 Hz reads the current
		// queue-delay register, exactly as §4.2 describes. The bursts
		// are far shorter than the sampling period, so the sampler all
		// but never lands inside one.
		sampled := 0
		nextSample := simtime.Second
		at := 10 * simtime.Millisecond
		seq := uint64(1)
		emit := func(qd simtime.Time) {
			p := packet.NewTCP(ft, seq, 0, packet.FlagACK|packet.FlagPSH, 1448)
			p.IPID = uint16(seq)
			seq += 1448
			dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Ingress, At: at - qd})
			dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Egress, At: at})
			for nextSample <= at {
				if dp.CurrentQueueDelay() >= simtime.Millisecond {
					sampled++
				}
				nextSample += simtime.Second
			}
		}
		for burst := 0; burst < 50; burst++ {
			for j := 0; j < 4; j++ {
				emit(2 * simtime.Millisecond) // above the high watermark
				at += 50 * simtime.Microsecond
			}
			emit(50 * simtime.Microsecond) // burst drains
			// ~1 s of background traffic with an empty queue.
			for k := 0; k < 100; k++ {
				at += 10370 * simtime.Microsecond
				emit(20 * simtime.Microsecond)
			}
		}
		if perPacket < 45 {
			b.Fatalf("per-packet detector missed bursts: %d", perPacket)
		}
		b.ReportMetric(float64(perPacket), "perpacket-detected")
		b.ReportMetric(float64(sampled), "sampled-detected")
	}
}

func sizeName(n int) string { return strconv.Itoa(n) }

// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation (one benchmark per exhibit) and measure the
// ablations called out in DESIGN.md. Benchmarks run the experiments at
// fast scale (1/20 bandwidth, identical RTTs); pass -tags or edit the
// configs to run at paper scale.
//
//	go test -bench=. -benchmem
package repro

import (
	"sort"
	"strconv"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/experiments"
	"repro/internal/mmwave"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/sketch"
	"repro/internal/tap"
)

// benchFig9Cfg is a shortened Figure 9 run used by the benchmarks.
func benchFig9Cfg() experiments.Fig9Config {
	return experiments.Fig9Config{
		Duration: 15 * simtime.Second,
		JoinAt:   5 * simtime.Second,
	}
}

// BenchmarkTable1Comparison regenerates the Table 1 side-by-side
// capability comparison.
func BenchmarkTable1Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable1(experiments.Table1Config{Duration: 40 * simtime.Second})
		if !r.Holds() {
			b.Fatal("Table 1 claims not backed")
		}
		b.ReportMetric(float64(r.PassiveSamples), "passive-samples")
		b.ReportMetric(float64(r.MicroburstsP4), "microbursts")
	}
}

// BenchmarkFig9PerFlow regenerates the per-flow monitoring run of
// Figure 9 (throughput, RTT, queue occupancy, loss per destination).
func BenchmarkFig9PerFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig9(benchFig9Cfg())
		if len(r.Throughput) != 3 {
			b.Fatalf("flows visible: %d", len(r.Throughput))
		}
		b.ReportMetric(r.ConvergedFairness, "fairness")
	}
}

// BenchmarkFig9Sharded runs the Figure 9 multi-flow exhibit with the
// data plane partitioned across 1, 2 and 4 pipes (dataplane.Pipes).
// At GOMAXPROCS > 1 the sharded sub-benchmarks replay per-shard
// batches in parallel at each barrier and should beat the single-pipe
// wall clock; at one CPU they measure the batching overhead instead
// (EXPERIMENTS.md records both). Results are shard-count-invariant up
// to event timing — the merge property test pins the totals.
func BenchmarkFig9Sharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchFig9Cfg()
				cfg.Scale = experiments.Fast()
				cfg.Scale.Shards = shards
				r := experiments.RunFig9(cfg)
				if len(r.Throughput) != 3 {
					b.Fatalf("flows visible: %d", len(r.Throughput))
				}
				b.ReportMetric(r.ConvergedFairness, "fairness")
			}
		})
	}
}

// BenchmarkReplayThroughput is the line-rate exhibit: one op streams a
// one-million-record deterministic synthetic workload through the
// real match-action pipeline via the batch ingest path (replay.Runner,
// no netsim event loop) and reports the measured Mpps and represented
// Gbps. The benchcmp gate tracks its ns/op; the acceptance floor is
// one million packets per second on a single pipe.
func BenchmarkReplayThroughput(b *testing.B) {
	const records = 1_000_000
	for i := 0; i < b.N; i++ {
		plane := dataplane.NewPipes(dataplane.Config{}, 1)
		res := replay.Runner{Plane: plane}.Run(&replay.Synth{Flows: 64, Packets: records})
		if res.Packets != records {
			b.Fatalf("replayed %d records, want %d", res.Packets, records)
		}
		if res.Stats.RTTSamples == 0 {
			b.Fatal("pipeline produced no RTT samples — workload not exercising the program")
		}
		b.ReportMetric(res.PPS()/1e6, "Mpps")
		b.ReportMetric(res.Gbps(), "Gbps")
	}
}

// BenchmarkFig10Fairness regenerates the Figure 10 aggregates (link
// utilisation and Jain's fairness index) from the same run.
func BenchmarkFig10Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig9(benchFig9Cfg())
		if r.Utilization.Len() == 0 || r.Fairness.Len() == 0 {
			b.Fatal("no aggregate series")
		}
		b.ReportMetric(r.Utilization.Mean(), "utilization")
	}
}

// BenchmarkFig11Microburst regenerates the small-buffer microburst use
// case of Figure 11.
func BenchmarkFig11Microburst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig11(experiments.Fig11Config{
			Duration: 30 * simtime.Second,
			BurstAt:  15 * simtime.Second,
		})
		if len(r.Bursts) == 0 {
			b.Fatal("no microburst detected")
		}
		b.ReportMetric(float64(len(r.Bursts)), "bursts")
		b.ReportMetric(r.MaxLossPct, "max-loss-pct")
	}
}

// BenchmarkFig12Limitation regenerates the limitation-classification
// use case of Figure 12.
func BenchmarkFig12Limitation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig12(experiments.Fig12Config{Duration: 30 * simtime.Second})
		if !r.Correct() {
			b.Fatalf("verdicts wrong: %v", r.Verdicts)
		}
	}
}

// BenchmarkFig13IAT regenerates the mmWave IAT observation of
// Figure 13.
func BenchmarkFig13IAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig13(experiments.Fig13Config{})
		if r.IATIncrease < 1000 {
			b.Fatalf("IAT increase %.0fx", r.IATIncrease)
		}
		b.ReportMetric(r.IATIncrease, "iat-increase-x")
	}
}

// BenchmarkFig14Recovery regenerates the detector-comparison race of
// Figure 14.
func BenchmarkFig14Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig14(experiments.Fig13Config{})
		if !r.OrderingHolds {
			b.Fatal("detector ordering violated")
		}
		b.ReportMetric(r.Results[mmwave.DetectorP4IAT].DetectionLatency.Seconds()*1e3, "p4-detect-ms")
		b.ReportMetric(r.Results[mmwave.DetectorRSSI].DetectionLatency.Seconds()*1e3, "rssi-detect-ms")
	}
}

// BenchmarkExtCoexistence runs the CUBIC/BBR coexistence extension with
// P4CCI-style identification from the data plane's flight signal.
func BenchmarkExtCoexistence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunExtCoexistence(experiments.CoexistenceConfig{
			Duration: 40 * simtime.Second,
		})
		if !r.Correct() {
			b.Fatalf("identification wrong: %v", r.Identified)
		}
		b.ReportMetric(r.ShareCubic/1e6, "cubic-mbps")
		b.ReportMetric(r.ShareBBR/1e6, "bbr-mbps")
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ---------------------------------------------------------------------

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

// BenchmarkEndToEndSystem measures whole-system simulation throughput:
// virtual traffic volume processed per wall second.
func BenchmarkEndToEndSystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig9(experiments.Fig9Config{
			Duration: 5 * simtime.Second,
			JoinAt:   2 * simtime.Second,
		})
		var bytes uint64
		for _, rep := range r.System.FlowSummaries() {
			bytes += rep.Bytes
		}
		b.SetBytes(int64(netsim.Mbps(500) / 8 * 5)) // nominal volume per run
	}
}

func sizeName(n int) string { return strconv.Itoa(n) }

// ---------------------------------------------------------------------
// Hot-path microbenchmarks (the zero-allocation tentpole; the matching
// AllocsPerRun assertions live in bench_alloc_test.go)
// ---------------------------------------------------------------------

// BenchmarkSchedulerPushPop measures the typed 4-ary event heap: a
// burst of same-instant and staggered events scheduled and drained.
func BenchmarkSchedulerPushPop(b *testing.B) {
	e := simtime.NewEngine()
	e.Reserve(64)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			e.Schedule(simtime.Time(j%4), fn)
		}
		e.RunAll()
	}
}

// BenchmarkTimerReset measures the resettable timer's steady state:
// re-arming per packet the way the TCP RTO does, with one lazily
// rescheduled engine event chasing the moving deadline.
func BenchmarkTimerReset(b *testing.B) {
	e := simtime.NewEngine()
	e.Reserve(8)
	t := simtime.NewTimer(e, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Reset(simtime.Millisecond)
		t.Reset(5 * simtime.Millisecond)
		e.RunAll()
	}
}

// BenchmarkPacketPoolRoundTrip measures the packet arena: a pooled TCP
// segment built, released and recycled.
func BenchmarkPacketPoolRoundTrip(b *testing.B) {
	ft := packet.FiveTuple{
		SrcIP:   packet.MustAddr("172.16.0.10"),
		DstIP:   packet.MustAddr("192.168.1.10"),
		SrcPort: 40000,
		DstPort: 5201,
		Proto:   packet.ProtoTCP,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := packet.GetTCP(ft, uint64(i), 0, packet.FlagACK, 1448)
		p.Release()
	}
}

// BenchmarkFlowKeyHash measures the packed-key pipeline: pack once,
// derive forward and reverse IDs from the bytes.
func BenchmarkFlowKeyHash(b *testing.B) {
	ft := packet.FiveTuple{
		SrcIP:   packet.MustAddr("172.16.0.10"),
		DstIP:   packet.MustAddr("192.168.1.10"),
		SrcPort: 40000,
		DstPort: 5201,
		Proto:   packet.ProtoTCP,
	}
	var sink dataplane.FlowID
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := dataplane.KeyOf(ft)
		sink = k.Hash() ^ k.Reverse().Hash()
	}
	_ = sink
}

// BenchmarkSketchUpdate is the lean tier's line-rate exhibit: one op
// streams one million packet observations through the sketch bundle —
// Observe (byte + packet CMS rows) plus the dup-filter TestAndSet every
// data packet pays — over a rotating 4096-flow key set, then audits a
// sample of estimates. Macro-shaped like the other gated exhibits so
// -benchtime 1x yields a stable ns/op.
func BenchmarkSketchUpdate(b *testing.B) {
	const updates = 1_000_000
	const nkeys = 4096
	keys := make([]sketch.Key, nkeys)
	for i := range keys {
		keys[i] = sketch.Key{10, 0, byte(i >> 8), byte(i), 10, 1, byte(i >> 8), byte(i), 156, 64, 20, 81, 6}
	}
	for i := 0; i < b.N; i++ {
		lean := sketch.NewLean(sketch.Config{DupExpectedInserts: updates})
		dups := 0
		for j := 0; j < updates; j++ {
			k := &keys[j%nkeys]
			lean.Observe(k, 1488)
			if lean.SeenSeq(k, uint64(j/nkeys)*1448+1) {
				dups++
				lean.CountLoss(k.Hash())
			}
		}
		var worst uint64
		for j := range keys {
			_, pkts, _ := lean.Estimate(&keys[j])
			if over := pkts - updates/nkeys; over > worst {
				worst = over
			}
		}
		_, pktsBound, _ := lean.Bounds()
		if worst > pktsBound {
			b.Fatalf("sketch overcount %d beyond bound %d", worst, pktsBound)
		}
		b.ReportMetric(float64(dups), "dup-fps")
		b.ReportMetric(float64(lean.MemoryBytes())/1e6, "MB")
	}
}

// BenchmarkScaleSweep is the two-tier gate exhibit: one op replays a
// 100k-flow workload (50x the exact table) through the batch path and
// audits the analytical guarantees — admitted flows bit-exact,
// sketch-tier estimates within ⌈ε·N⌉, eviction folds lossless. The
// nightly workflow runs the same sweep to the 1M-flow paper point.
func BenchmarkScaleSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunScaleSweep(experiments.ScaleSweepConfig{
			FlowCounts:     []int{100_000},
			PacketsPerFlow: 16,
			SampleFlows:    64,
		})
		p := r.Points[0]
		if !p.Pass() {
			b.Fatalf("scale sweep violated guarantees: undercounts=%d exactMismatches=%d boundViolations=%d/%d foldErrors=%d",
				p.Undercounts, p.ExactMismatches, p.BoundViolations, p.BoundAllowance, p.FoldErrors)
		}
		b.ReportMetric(p.PPS/1e6, "Mpps")
		b.ReportMetric(p.BytesPerFlow, "B/flow")
	}
}

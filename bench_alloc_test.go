//go:build !race

// Zero-allocation assertions for the per-packet hot path. The race
// detector instruments allocations, so these run only in the ordinary
// test configuration (CI's build/test job; the race job skips them).
package repro

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/resilient"
	"repro/internal/simtime"
	"repro/internal/sketch"
	"repro/internal/tap"
)

// allocFlow is the synthetic 5-tuple the assertions drive through the
// pipeline.
func allocFlow() packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   packet.MustAddr("172.16.0.10"),
		DstIP:   packet.MustAddr("192.168.1.10"),
		SrcPort: 40000,
		DstPort: 5201,
		Proto:   packet.ProtoTCP,
	}
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm up: first-flow announcements, lazy table growth
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %.2f allocs/op, want 0", name, avg)
	}
}

// TestAllocFreeDataPlanePerPacket pins the tentpole property: the
// ingress data path, the ingress ACK path and the egress path allocate
// nothing per packet once a flow's state exists.
func TestAllocFreeDataPlanePerPacket(t *testing.T) {
	dp := dataplane.New(dataplane.Config{})
	ft := allocFlow()
	data := packet.NewTCP(ft, 1, 0, packet.FlagACK|packet.FlagPSH, 1448)
	ack := packet.NewTCP(ft.Reverse(), 1, 1449, packet.FlagACK, 0)

	seq := uint64(1)
	at := simtime.Millisecond
	assertZeroAllocs(t, "ingress data", func() {
		data.SeqExt = seq
		data.IPID = uint16(seq)
		seq += 1448
		at += 10 * simtime.Microsecond
		dp.ProcessCopy(tap.Copy{Pkt: data, Point: tap.Ingress, At: at})
	})

	ackNo := uint64(1449)
	assertZeroAllocs(t, "ingress ack", func() {
		ack.AckExt = ackNo
		ackNo += 1448
		at += 10 * simtime.Microsecond
		dp.ProcessCopy(tap.Copy{Pkt: ack, Point: tap.Ingress, At: at})
	})

	assertZeroAllocs(t, "egress", func() {
		at += 10 * simtime.Microsecond
		dp.ProcessCopy(tap.Copy{Pkt: data, Point: tap.Egress, At: at})
	})
}

// TestAllocFreeDataPlaneInstrumented repeats the front-end assertions
// with self-telemetry enabled, at one shard and at two and four (where
// every shard mutates one shared set of counters): RegisterObs must not
// change the allocation profile, because every hook on the packet path
// is an atomic add into preallocated counter/histogram storage.
func TestAllocFreeDataPlaneInstrumented(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		p := dataplane.NewPipes(dataplane.Config{}, shards)
		p.RegisterObs(obs.NewRegistry())
		label := fmt.Sprintf("instrumented shards=%d ", shards)
		assertPerPacketAllocFree(t, p, label)
		assertBatchAllocFree(t, p, label)
	}
}

// TestAllocFreePipesPerPacket extends the per-packet contract to the
// front-end. One shard processes each copy in place — the profile must
// be identical to the bare pipeline. Above one shard the per-packet
// cost is parse + lock + batch append into pre-allocated capacity:
// still zero allocations per packet (shard-goroutine spawns are
// per-launch and amortised, never per-packet).
func TestAllocFreePipesPerPacket(t *testing.T) {
	for _, shards := range []int{1, 4} {
		assertPerPacketAllocFree(t, dataplane.NewPipes(dataplane.Config{}, shards),
			fmt.Sprintf("shards=%d ", shards))
	}
}

func assertPerPacketAllocFree(t *testing.T, p *dataplane.Pipes, label string) {
	t.Helper()
	ft := allocFlow()
	data := packet.NewTCP(ft, 1, 0, packet.FlagACK|packet.FlagPSH, 1448)
	ack := packet.NewTCP(ft.Reverse(), 1, 1449, packet.FlagACK, 0)

	seq := uint64(1)
	at := simtime.Millisecond
	assertZeroAllocs(t, label+"pipes ingress data", func() {
		data.SeqExt = seq
		data.IPID = uint16(seq)
		seq += 1448
		at += 10 * simtime.Microsecond
		p.ProcessCopy(tap.Copy{Pkt: data, Point: tap.Ingress, At: at})
	})

	ackNo := uint64(1449)
	assertZeroAllocs(t, label+"pipes ingress ack", func() {
		ack.AckExt = ackNo
		ackNo += 1448
		at += 10 * simtime.Microsecond
		p.ProcessCopy(tap.Copy{Pkt: ack, Point: tap.Ingress, At: at})
	})

	assertZeroAllocs(t, label+"pipes egress", func() {
		at += 10 * simtime.Microsecond
		p.ProcessCopy(tap.Copy{Pkt: data, Point: tap.Egress, At: at})
	})
}

// TestAllocFreeBatchPath pins the batch execution path: filling a
// capacity-retained Front and draining it through ProcessFront
// run-to-completion allocates nothing per batch at shards 1 and 4
// (in-place parse and hash into retained capacity, hoisted counter
// commits — no per-view work that could allocate; one flow keeps one
// shard busy, and a launch that finds one shard busy replays it in
// place instead of spawning).
func TestAllocFreeBatchPath(t *testing.T) {
	for _, shards := range []int{1, 4} {
		assertBatchAllocFree(t, dataplane.NewPipes(dataplane.Config{}, shards),
			fmt.Sprintf("shards=%d ", shards))
	}
}

func assertBatchAllocFree(t *testing.T, p *dataplane.Pipes, label string) {
	t.Helper()
	ft := allocFlow()
	data := packet.NewTCP(ft, 1, 0, packet.FlagACK|packet.FlagPSH, 1448)
	ack := packet.NewTCP(ft.Reverse(), 1, 1449, packet.FlagACK, 0)

	const batch = 64
	f := dataplane.NewFront(batch)
	seq := uint64(1)
	at := simtime.Second
	assertZeroAllocs(t, label+"batch fill+drain", func() {
		for i := 0; i < batch; i++ {
			at += 10 * simtime.Microsecond
			switch i % 4 {
			case 0, 1:
				data.SeqExt = seq
				data.IPID = uint16(seq)
				seq += 1448
				f.AppendCopy(tap.Copy{Pkt: data, Point: tap.Ingress, At: at})
			case 2:
				f.AppendCopy(tap.Copy{Pkt: data, Point: tap.Egress, At: at})
			default:
				ack.AckExt = seq
				f.AppendCopy(tap.Copy{Pkt: ack, Point: tap.Ingress, At: at})
			}
		}
		p.ProcessFront(f)
		f.Reset()
	})
}

// TestAllocBoundShardedLaunch pins that the sharded batch path allocates
// nothing once more than one shard has work: the go statement that hands
// a shard its front runs a replay closure built with the Pipes, and
// nothing is allocated per view.
func TestAllocBoundShardedLaunch(t *testing.T) {
	const shards, flows, batch = 2, 8, 256
	p := dataplane.NewPipes(dataplane.Config{}, shards)
	data := make([]*packet.Packet, flows)
	for i := range data {
		ft := allocFlow()
		ft.SrcPort += uint16(i)
		data[i] = packet.NewTCP(ft, 1, 0, packet.FlagACK|packet.FlagPSH, 1448)
	}
	f := dataplane.NewFront(batch)
	seq := uint64(1)
	at := simtime.Second
	run := func() {
		for i := 0; i < batch; i++ {
			at += 10 * simtime.Microsecond
			d := data[i%flows]
			d.SeqExt = seq
			d.IPID = uint16(seq)
			seq += 1448
			f.AppendCopy(tap.Copy{Pkt: d, Point: tap.Ingress, At: at})
		}
		p.ProcessFront(f)
		f.Reset()
	}
	run()
	p.Flush()
	for i := 0; i < shards; i++ {
		if p.Shard(i).Stats.IngressCopies == 0 {
			t.Fatalf("shard %d got none of %d flows: the launch never spawned", i, flows)
		}
	}
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Errorf("two busy shards: %.2f allocs per front, want 0", avg)
	}
	p.Flush()
}

// TestAllocFreeGenerationRead pins the reconfiguration model's hot
// half: reading the control plane's live runtime-config generation (the
// one atomic load and value copy every extraction tick does) allocates
// nothing, with and without a config-P4 publish behind it. Publishing
// allocates (a new snapshot by design); reading never may.
func TestAllocFreeGenerationRead(t *testing.T) {
	cp := controlplane.New(simtime.NewEngine(), dataplane.NewPipes(dataplane.Config{}, 1),
		&controlplane.MemorySink{}, controlplane.Config{LinkCapacityBps: 1e9})
	var sink float64
	assertZeroAllocs(t, "runtime-config read", func() {
		sink += cp.RuntimeSnapshot().MetricConfig(controlplane.MetricRTT).SamplesPerSecond
	})
	// A published successor must not change the read-side profile.
	if err := cp.SetRate(controlplane.MetricRTT, 5); err != nil {
		t.Fatal(err)
	}
	assertZeroAllocs(t, "runtime-config read after publish", func() {
		sink += cp.RuntimeSnapshot().MetricConfig(controlplane.MetricRTT).SamplesPerSecond
	})
	if sink == 0 {
		t.Fatal("generation reads returned no data")
	}
}

// TestAllocFreeObsPrimitives pins the telemetry primitives themselves:
// counter and gauge mutation, a histogram observation, and a trace-ring
// append are all single atomic ops or in-place ring writes.
func TestAllocFreeObsPrimitives(t *testing.T) {
	r := obs.NewRegistry()
	c := r.NewCounter("p4_alloc_test_total", "alloc assertion")
	g := r.NewGauge("p4_alloc_test_gauge", "alloc assertion")
	h := r.NewHistogram("p4_alloc_test_ns", "alloc assertion")
	tr := r.NewTrace("alloc", 64)

	var v uint64
	assertZeroAllocs(t, "Counter.Inc", func() { c.Inc() })
	assertZeroAllocs(t, "Gauge.Set", func() { v++; g.Set(v) })
	assertZeroAllocs(t, "Histogram.Observe", func() { v++; h.Observe(v) })
	assertZeroAllocs(t, "Trace.Add", func() { v++; tr.Add("tick", v, 0) })
}

// TestAllocFreeFlowHashing pins the key-packing and sketch paths the
// read side and the benchmark kernels use (the packet path hashes in
// parseCopy, which the per-packet and batch tests above cover).
func TestAllocFreeFlowHashing(t *testing.T) {
	ft := allocFlow()
	var sink dataplane.FlowID
	assertZeroAllocs(t, "KeyOf+Hash+Reverse", func() {
		k := dataplane.KeyOf(ft)
		sink = k.Hash() ^ k.Reverse().Hash()
	})
	cms := dataplane.NewCMS(1024, 4)
	k := dataplane.KeyOf(ft)
	assertZeroAllocs(t, "CMS UpdateKey", func() {
		cms.UpdateKey(k, 1448)
	})
	_ = sink
}

// TestAllocFreeScheduler pins the engine's steady state: scheduling
// into reserved heap capacity and draining events allocates nothing,
// and a Timer re-arm reuses its bound callback.
func TestAllocFreeScheduler(t *testing.T) {
	e := simtime.NewEngine()
	e.Reserve(64)
	fired := 0
	fn := func() { fired++ }
	assertZeroAllocs(t, "Schedule+RunAll", func() {
		for i := 0; i < 16; i++ {
			e.Schedule(simtime.Time(i%4), fn)
		}
		e.RunAll()
	})

	timer := simtime.NewTimer(e, fn)
	assertZeroAllocs(t, "Timer Reset cycle", func() {
		timer.Reset(simtime.Millisecond)
		timer.Reset(5 * simtime.Millisecond) // lazy re-target: no new event
		e.RunAll()
	})
	if fired == 0 {
		t.Fatal("callbacks never fired")
	}
}

// TestAllocFreePacketPool pins the arena round trip: a Get/Release
// cycle (and the pooled TCP/UDP constructors) reuse recycled slots.
func TestAllocFreePacketPool(t *testing.T) {
	ft := allocFlow()
	assertZeroAllocs(t, "Get/Release", func() {
		p := packet.Get()
		p.Release()
	})
	assertZeroAllocs(t, "GetTCP/Release", func() {
		p := packet.GetTCP(ft, 1, 2, packet.FlagACK, 1448)
		p.Release()
	})
	assertZeroAllocs(t, "GetUDP/Release", func() {
		p := packet.GetUDP(ft, 512)
		p.Release()
	})
}

// TestAllocFreeSketchTier pins the lean tier's hot path: CMS updates,
// dup-filter probes, loss counting and estimates are pure array
// arithmetic over preallocated storage.
func TestAllocFreeSketchTier(t *testing.T) {
	lean := sketch.NewLean(sketch.Config{})
	k := sketch.Key(dataplane.KeyOf(allocFlow()))
	seq := uint64(1)
	assertZeroAllocs(t, "Lean.Observe", func() { lean.Observe(&k, 1488) })
	assertZeroAllocs(t, "Lean.SeenSeq", func() { seq += 1448; lean.SeenSeq(&k, seq) })
	h := k.Hash()
	assertZeroAllocs(t, "Lean.TestSeq", func() {
		// Two tests a run fill the log within the runs, and sequence
		// numbers recur, so drains count logged positives.
		for range 2 {
			seq += 1448
			lean.TestSeq(&k, seq%(64*1448), h)
		}
	})
	var sink uint64
	assertZeroAllocs(t, "Lean.Estimate", func() {
		b, p, l := lean.Estimate(&k)
		sink += b + p + l
	})
	if sink == 0 {
		t.Fatal("estimates returned nothing")
	}
}

// TestAllocFreeSketchTierIngress pins the non-admitted packet path
// through the pipeline: with a 1-cell table, a second flow loses
// admission and every one of its packets takes the leanIngress route —
// aliasing accounting, sketch updates and dup-filter probes included —
// without allocating.
func TestAllocFreeSketchTierIngress(t *testing.T) {
	dp := dataplane.New(dataplane.Config{FlowTableSize: 1})
	owner := allocFlow()
	loser := allocFlow()
	loser.SrcPort = 40001
	at := simtime.Millisecond
	own := packet.NewTCP(owner, 1, 0, packet.FlagACK|packet.FlagPSH, 1448)
	dp.ProcessCopy(tap.Copy{Pkt: own, Point: tap.Ingress, At: at})

	data := packet.NewTCP(loser, 1, 0, packet.FlagACK|packet.FlagPSH, 1448)
	seq := uint64(1)
	assertZeroAllocs(t, "sketch-tier ingress data", func() {
		data.SeqExt = seq
		data.IPID = uint16(seq)
		seq += 1448
		at += 10 * simtime.Microsecond
		dp.ProcessCopy(tap.Copy{Pkt: data, Point: tap.Ingress, At: at})
	})
	if dp.Stats.AliasedPackets == 0 {
		t.Fatal("loser flow was not routed to the sketch tier")
	}
}

// TestAllocFreeRTTHistogram pins the in-register histogram: the ACK
// path's bucket increment is one register Add, and reading a flow's
// histogram back copies into a caller-frame value.
func TestAllocFreeRTTHistogram(t *testing.T) {
	dp := dataplane.New(dataplane.Config{})
	ft := allocFlow()
	id := dataplane.HashFiveTuple(ft)
	data := packet.NewTCP(ft, 1, 0, packet.FlagACK|packet.FlagPSH, 1448)
	ack := packet.NewTCP(ft.Reverse(), 1, 1449, packet.FlagACK, 0)

	seq := uint64(1)
	at := simtime.Millisecond
	assertZeroAllocs(t, "data+ack with histogram update", func() {
		data.SeqExt = seq
		data.IPID = uint16(seq)
		dp.ProcessCopy(tap.Copy{Pkt: data, Point: tap.Ingress, At: at})
		ack.AckExt = seq + 1448
		dp.ProcessCopy(tap.Copy{Pkt: ack, Point: tap.Ingress, At: at + 5*simtime.Millisecond})
		seq += 1448
		at += 10 * simtime.Millisecond
	})
	if dp.Stats.RTTSamples == 0 {
		t.Fatal("no RTT samples recorded")
	}
	var count uint64
	assertZeroAllocs(t, "ReadRTTHist", func() {
		h := dp.ReadRTTHist(id)
		count = h.Count()
	})
	if count == 0 {
		t.Fatal("histogram empty after sampled ACKs")
	}
}

// TestAllocFreeReportPath pins the report path's allocation budget, the
// counterpart of the per-packet assertions above for what happens after
// the extraction tick: encoding a report into a reused buffer and
// decoding a line whose strings the connection has seen before allocate
// nothing, and Shipper.Emit allocates nothing per report: it encodes on
// the stack and queues a copy in a 512 B buffer from the shipper's free
// list, which cuts a 64 KiB chunk into 128 of them when it runs dry.
func TestAllocFreeReportPath(t *testing.T) {
	r := controlplane.Report{
		Kind: controlplane.KindMetric, TimeNs: 2_200_000_000, SiteID: "alpha", SwitchID: "sw1",
		FlowID: "9f3c2a7d5be01846", RevID: "46180eb5d7a2c3f9", SrcIP: "10.0.3.17", DstIP: "10.1.0.1",
		SrcPort: 40017, DstPort: 5201, Proto: "tcp",
		Metric: controlplane.MetricRTT, Value: 20.125, Unit: "ms", RTTP50Ms: 16.777216, RTTP95Ms: 33.554432, RTTP99Ms: 33.554432,
	}
	buf := make([]byte, 0, 512)
	assertZeroAllocs(t, "AppendJSONLine into a reused buffer", func() {
		buf, _ = r.AppendJSONLine(buf[:0])
	})

	line := buf[:len(buf)-1]
	var strs controlplane.Interner
	var back controlplane.Report
	assertZeroAllocs(t, "ParseJSONLine of an interned line", func() {
		if !back.ParseJSONLine(line, &strs) {
			t.Fatal("the typed decoder declined the encoder's own line")
		}
	})
	if back != r {
		t.Fatalf("decoded %+v, want %+v", back, r)
	}

	s, err := resilient.New(resilient.Config{Fallback: io.Discard}) // terminal mode: the queue drains into Discard
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	assertZeroAllocs(t, "Shipper.Emit", func() { s.Emit(r) })
}

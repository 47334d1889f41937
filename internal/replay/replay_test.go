package replay

import (
	"net/netip"
	"slices"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/tap"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// TestSynthDeterministic: two generators with identical parameters
// emit byte-identical record streams.
func TestSynthDeterministic(t *testing.T) {
	mk := func() *Synth { return &Synth{Flows: 3, Packets: 5000} }
	a, b := mk(), mk()
	var ra, rb Record
	for i := 0; ; i++ {
		oka, okb := a.Next(&ra), b.Next(&rb)
		if oka != okb {
			t.Fatalf("streams diverge in length at record %d", i)
		}
		if !oka {
			break
		}
		if ra != rb {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra, rb)
		}
	}
}

// TestSynthShape checks the generator produces what it promises:
// the exact record count, monotonic timestamps, both TAP points,
// pure ACKs, and at least one retransmission.
func TestSynthShape(t *testing.T) {
	s := &Synth{Flows: 2, Packets: 4000, RetransEvery: 100}
	var (
		r                   Record
		n                   int
		lastAt              uint64
		egress, acks, datas int
		sawRetrans          bool
		prevSeq             = map[[4]byte]uint64{}
	)
	for s.Next(&r) {
		n++
		if r.At < lastAt {
			t.Fatalf("timestamp went backwards at record %d: %d < %d", n, r.At, lastAt)
		}
		lastAt = r.At
		switch {
		case r.Point == 1:
			egress++
		case r.TotalLen == 40:
			acks++
		default:
			datas++
			if r.Seq < prevSeq[r.SrcIP] {
				sawRetrans = true
			}
			if r.Seq > prevSeq[r.SrcIP] {
				prevSeq[r.SrcIP] = r.Seq
			}
		}
	}
	if n != 4000 {
		t.Fatalf("Packets=4000 produced %d records", n)
	}
	if egress == 0 || acks == 0 || datas == 0 {
		t.Fatalf("workload not mixed: %d data, %d acks, %d egress", datas, acks, egress)
	}
	if !sawRetrans {
		t.Fatal("RetransEvery=100 produced no sequence rewind")
	}
}

// TestSynthMiceNeverResends pins why every loss the sketch tier counts
// on the benchmark's mice workload is a dup-filter false positive: one
// mice generation (200,000 flows, MSS 100, 2,000,000 records) gives
// each flow about ten records, far fewer data segments than the
// default RetransEvery of 997, so no flow ever sends a data record
// whose sequence number is below the highest it has sent.
func TestSynthMiceNeverResends(t *testing.T) {
	const flows = 200_000
	s := &Synth{Flows: flows, MSS: 100, Packets: 2_000_000}
	high := make([]uint64, flows)
	segs := make([]int, flows)
	var r Record
	for s.Next(&r) {
		if r.Point != 0 || r.TotalLen == 40 {
			continue // egress copy or pure ACK
		}
		g := int(r.SrcPort-40000)<<16 | int(r.SrcIP[2])<<8 | int(r.SrcIP[3])
		if r.Seq < high[g] {
			t.Fatalf("flow %d resent seq %d after sending %d (data segment %d)", g, r.Seq, high[g], segs[g]+1)
		}
		high[g] = r.Seq
		segs[g]++
	}
	if n := slices.Max(segs); n == 0 || n >= 997 {
		t.Fatalf("busiest flow sent %d data segments, want 1..996", n)
	}
}

// TestSynthFlowKey: the exported key of flow number g is the key the
// data plane's parser gives the first data record the generator emits
// for that flow, wherever FlowBase puts the split between base and
// index, across the 2^16 boundary where the port starts to carry bits.
func TestSynthFlowKey(t *testing.T) {
	for _, g := range []int{0, 1, 255, 65535, 65536, 199999} {
		for _, base := range []int{0, g / 2, g} {
			// One round: every flow opens with a data segment, so the
			// last record is flow g's first.
			src := &Synth{Flows: g - base + 1, FlowBase: base, Packets: g - base + 1}
			var rec Record
			for src.Next(&rec) {
			}
			var pkt packet.Packet
			rec.Fill(&pkt)
			if rec.Point != 0 || !pkt.CarriesData() {
				t.Fatalf("g=%d base=%d: record %+v is not an ingress data segment", g, base, rec)
			}
			if got, want := SynthFlowKey(g), dataplane.KeyOf(pkt.FiveTuple()); got != want {
				t.Errorf("g=%d base=%d: SynthFlowKey %v, generator emits %v", g, base, got, want)
			}
		}
	}
}

// TestRecordFill: a Record built from a packet's parser-visible fields
// decodes back to them — the five-tuple, sequence space, lengths and
// flags, and the TAP point and timestamp of the copy.
func TestRecordFill(t *testing.T) {
	ft := packet.FiveTuple{
		SrcIP:   mustAddr("192.168.7.9"),
		DstIP:   mustAddr("10.20.30.40"),
		SrcPort: 12345, DstPort: 5201, Proto: packet.ProtoTCP,
	}
	orig := packet.NewTCP(ft, 99991, 417, packet.FlagACK|packet.FlagPSH, 1460)
	orig.IPID = 5151
	r := Record{
		At: 123456789, Seq: orig.SeqExt, Ack: orig.AckExt,
		SrcIP: ft.SrcIP.As4(), DstIP: ft.DstIP.As4(),
		SrcPort: ft.SrcPort, DstPort: ft.DstPort,
		TotalLen: orig.TotalLen, IPID: orig.IPID,
		Proto: uint8(ft.Proto), Flags: orig.Flags, Point: 1,
	}

	var got packet.Packet
	c := r.CopyInto(&got)
	if c.Point != tap.Egress || uint64(c.At) != 123456789 {
		t.Fatalf("copy metadata lost: %+v", c)
	}
	if got.FiveTuple() != ft {
		t.Fatalf("five-tuple mismatch: %v vs %v", got.FiveTuple(), ft)
	}
	if got.SeqExt != orig.SeqExt || got.AckExt != orig.AckExt ||
		got.Seq != orig.Seq || got.Ack != orig.Ack ||
		got.IHL != orig.IHL || got.DataOffset != orig.DataOffset ||
		got.TotalLen != orig.TotalLen || got.IPID != orig.IPID ||
		got.Flags != orig.Flags || got.PayloadLen != orig.PayloadLen ||
		got.ExpectedAck() != orig.ExpectedAck() ||
		got.CarriesData() != orig.CarriesData() ||
		got.IsACKOnly() != orig.IsACKOnly() {
		t.Fatalf("parser-visible fields differ:\n got %+v\nwant %+v", got, *orig)
	}
	if r.WireLen() != uint64(packet.EthernetHeaderLen)+uint64(orig.TotalLen) {
		t.Fatalf("WireLen %d for a %d-byte IP packet", r.WireLen(), orig.TotalLen)
	}
}

// TestRunnerMatchesPerPacketPath: replaying a synthetic source through
// the Runner's batch path leaves the pipeline in exactly the state the
// per-packet ProcessCopy path produces, at 1 and 4 shards.
func TestRunnerMatchesPerPacketPath(t *testing.T) {
	for _, shards := range []int{1, 4} {
		mkSrc := func() *Synth { return &Synth{Flows: 5, Packets: 20000, RetransEvery: 50} }
		cfg := dataplane.Config{FlowTableSize: 512}

		batch := dataplane.NewPipes(cfg, shards)
		got := Runner{Plane: batch, Batch: 100}.Run(mkSrc())

		serial := dataplane.NewPipes(cfg, shards)
		var (
			r   Record
			pkt packet.Packet
			n   uint64
		)
		src := mkSrc()
		for src.Next(&r) {
			serial.ProcessCopy(r.CopyInto(&pkt))
			n++
		}
		serial.Flush()

		if got.Packets != n {
			t.Fatalf("shards=%d: runner saw %d records, serial %d", shards, got.Packets, n)
		}
		if got.Stats.RTTSamples == 0 {
			t.Fatalf("shards=%d: no RTT samples — the workload does not exercise the program", shards)
		}
		if got.Stats != serial.StatsSnapshot() {
			t.Fatalf("shards=%d: stats diverge\n batch %+v\nserial %+v",
				shards, got.Stats, serial.StatsSnapshot())
		}
		for _, name := range batch.Shard(0).RegisterNames() {
			for idx := uint32(0); idx < uint32(cfg.FlowTableSize); idx++ {
				bv, _ := batch.ReadRegister(name, idx)
				sv, _ := serial.ReadRegister(name, idx)
				if bv != sv {
					t.Fatalf("shards=%d: register %s[%d] = %d via batch, %d serial",
						shards, name, idx, bv, sv)
				}
			}
		}
		if got.PPS() <= 0 || got.Gbps() <= 0 {
			t.Fatalf("throughput not measured: pps=%v gbps=%v", got.PPS(), got.Gbps())
		}
	}
}

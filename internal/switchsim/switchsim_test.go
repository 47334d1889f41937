package switchsim

import (
	"net/netip"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
)

func mkPkt(dst string, payload int) *packet.Packet {
	ft := packet.FiveTuple{
		SrcIP:   packet.MustAddr("10.0.0.1"),
		DstIP:   packet.MustAddr(dst),
		SrcPort: 1000,
		DstPort: 2000,
		Proto:   packet.ProtoTCP,
	}
	return packet.NewTCP(ft, 0, 0, packet.FlagACK, payload)
}

func TestSwitchRoutesByPrefix(t *testing.T) {
	e := simtime.NewEngine()
	sw := New(e, "core")
	sinkA := &netsim.Sink{Label: "a"}
	sinkB := &netsim.Sink{Label: "b"}
	la := netsim.NewLink(e, "to-a", sinkA, netsim.Gbps(10), 0, nil)
	lb := netsim.NewLink(e, "to-b", sinkB, netsim.Gbps(10), 0, nil)
	sw.AddRoute(netip.MustParsePrefix("192.168.1.0/24"), la, 0)
	sw.AddRoute(netip.MustParsePrefix("192.168.2.0/24"), lb, 0)

	sw.Receive(mkPkt("192.168.1.5", 100), nil)
	sw.Receive(mkPkt("192.168.2.5", 100), nil)
	sw.Receive(mkPkt("192.168.2.6", 100), nil)
	e.Run(simtime.Second)
	if sinkA.Packets != 1 || sinkB.Packets != 2 {
		t.Fatalf("a=%d b=%d", sinkA.Packets, sinkB.Packets)
	}
}

func TestSwitchLongestPrefixWins(t *testing.T) {
	e := simtime.NewEngine()
	sw := New(e, "core")
	wide := &netsim.Sink{Label: "wide"}
	narrow := &netsim.Sink{Label: "narrow"}
	lw := netsim.NewLink(e, "wide", wide, netsim.Gbps(10), 0, nil)
	ln := netsim.NewLink(e, "narrow", narrow, netsim.Gbps(10), 0, nil)
	sw.AddRoute(netip.MustParsePrefix("192.168.0.0/16"), lw, 0)
	sw.AddRoute(netip.MustParsePrefix("192.168.7.0/24"), ln, 0)
	sw.Receive(mkPkt("192.168.7.1", 10), nil)
	sw.Receive(mkPkt("192.168.8.1", 10), nil)
	e.Run(simtime.Second)
	if narrow.Packets != 1 || wide.Packets != 1 {
		t.Fatalf("narrow=%d wide=%d", narrow.Packets, wide.Packets)
	}
}

func TestSwitchUnroutableDropped(t *testing.T) {
	e := simtime.NewEngine()
	sw := New(e, "core")
	sw.Receive(mkPkt("8.8.8.8", 10), nil)
	if sw.Unroutable != 1 {
		t.Fatal("unroutable packet not counted")
	}
}

func TestSwitchDropTailBuffer(t *testing.T) {
	e := simtime.NewEngine()
	sw := New(e, "core")
	sink := &netsim.Sink{Label: "s"}
	// Slow link so the queue builds instantly.
	l := netsim.NewLink(e, "out", sink, netsim.Mbps(8), 0, nil)
	p := mkPkt("192.168.1.2", 946) // 1000 wire bytes
	port := sw.AddRoute(netip.MustParsePrefix("192.168.1.0/24"), l, 3000)

	for i := 0; i < 5; i++ {
		sw.Receive(p.Clone(), nil)
	}
	// Buffer holds 3 packets of 1000 bytes; 2 dropped.
	if port.DroppedPackets != 2 {
		t.Fatalf("dropped %d, want 2", port.DroppedPackets)
	}
	if port.queuedBytes != 3000 {
		t.Fatalf("occupancy %d, want 3000", port.queuedBytes)
	}
	e.Run(simtime.Second)
	if sink.Packets != 3 {
		t.Fatalf("delivered %d, want 3", sink.Packets)
	}
	if port.queuedBytes != 0 {
		t.Fatalf("queue should drain to 0, got %d", port.queuedBytes)
	}
	if port.PeakQueueBytes != 3000 {
		t.Fatalf("peak %d, want 3000", port.PeakQueueBytes)
	}
}

func TestSwitchTapsSeeQueuingDelay(t *testing.T) {
	e := simtime.NewEngine()
	sw := New(e, "core")
	sink := &netsim.Sink{Label: "s"}
	l := netsim.NewLink(e, "out", sink, netsim.Mbps(8), 7*simtime.Millisecond, nil)
	sw.AddRoute(netip.MustParsePrefix("192.168.1.0/24"), l, 0)

	type stamp struct {
		at  simtime.Time
		seq uint64
	}
	var ins, outs []stamp
	sw.IngressTap = func(p *packet.Packet, at simtime.Time, _ string) { ins = append(ins, stamp{at, p.SeqExt}) }
	sw.EgressTap = func(p *packet.Packet, at simtime.Time, _ string) { outs = append(outs, stamp{at, p.SeqExt}) }

	p1 := mkPkt("192.168.1.2", 946) // 1ms serialisation
	p1.SeqExt = 1
	p2 := p1.Clone()
	p2.SeqExt = 2
	sw.Receive(p1, nil)
	sw.Receive(p2, nil)
	e.Run(simtime.Second)

	if len(ins) != 2 || len(outs) != 2 {
		t.Fatalf("taps saw %d/%d packets", len(ins), len(outs))
	}
	// Packet 1: arrives t=0, departs after 1 ms serialisation. The
	// egress stamp excludes propagation delay — it's the switch exit.
	if d := outs[0].at - ins[0].at; d != simtime.Millisecond {
		t.Fatalf("pkt1 switch transit %v, want 1ms", d)
	}
	// Packet 2: waits behind packet 1, transit 2 ms.
	if d := outs[1].at - ins[1].at; d != 2*simtime.Millisecond {
		t.Fatalf("pkt2 switch transit %v, want 2ms", d)
	}
}

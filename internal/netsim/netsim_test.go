package netsim

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/simtime"
)

func tcpPkt(payload int) *packet.Packet {
	ft := packet.FiveTuple{
		SrcIP:   packet.MustAddr("10.0.0.1"),
		DstIP:   packet.MustAddr("10.0.0.2"),
		SrcPort: 1000,
		DstPort: 2000,
		Proto:   packet.ProtoTCP,
	}
	return packet.NewTCP(ft, 0, 0, packet.FlagACK, payload)
}

func TestLinkDelivery(t *testing.T) {
	e := simtime.NewEngine()
	sink := &Sink{Label: "sink"}
	l := NewLink(e, "l", sink, Gbps(1), 10*simtime.Millisecond, nil)
	p := tcpPkt(1000)
	l.Send(p)
	e.Run(simtime.Second)
	if sink.Packets != 1 {
		t.Fatalf("packet not delivered")
	}
}

func TestLinkLatencyIsSerializationPlusPropagation(t *testing.T) {
	e := simtime.NewEngine()
	var arrived simtime.Time
	sink := &Sink{Label: "sink", OnPacket: func(*packet.Packet) { arrived = e.Now() }}
	l := NewLink(e, "l", sink, Gbps(1), 10*simtime.Millisecond, nil)
	p := tcpPkt(1000)
	l.Send(p)
	e.Run(simtime.Second)
	wire := p.WireLen() // bytes
	wantSer := simtime.Time(float64(wire*8) / Gbps(1) * 1e9)
	want := wantSer + 10*simtime.Millisecond
	if arrived != want {
		t.Fatalf("arrived at %v, want %v", arrived, want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	e := simtime.NewEngine()
	var arrivals []simtime.Time
	sink := &Sink{Label: "sink", OnPacket: func(*packet.Packet) { arrivals = append(arrivals, e.Now()) }}
	l := NewLink(e, "l", sink, Mbps(8), 0, nil) // 1 byte per microsecond
	p := tcpPkt(946)                            // 1000 wire bytes
	if p.WireLen() != 1000 {
		t.Fatalf("setup: wire len %d", p.WireLen())
	}
	l.Send(p)
	l.Send(p.Clone())
	e.Run(simtime.Second)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals: %d", len(arrivals))
	}
	if d := arrivals[1] - arrivals[0]; d != 1000*simtime.Microsecond {
		t.Fatalf("spacing %v, want 1ms", d)
	}
}

func TestLinkLossRate(t *testing.T) {
	e := simtime.NewEngine()
	sink := &Sink{Label: "sink"}
	l := NewLink(e, "l", sink, Gbps(10), 0, simtime.NewRNG(77))
	l.LossRate = 0.1
	const n = 20000
	for i := 0; i < n; i++ {
		l.Send(tcpPkt(100))
	}
	e.Run(simtime.Second)
	lossFrac := float64(l.DroppedPackets) / n
	if lossFrac < 0.08 || lossFrac > 0.12 {
		t.Fatalf("loss fraction %f, want ~0.1", lossFrac)
	}
	if sink.Packets != n-l.DroppedPackets {
		t.Fatalf("delivered %d + dropped %d != sent %d", sink.Packets, l.DroppedPackets, n)
	}
}

func TestLinkDown(t *testing.T) {
	e := simtime.NewEngine()
	sink := &Sink{Label: "sink"}
	l := NewLink(e, "l", sink, Gbps(1), 0, nil)
	l.Down = true
	l.Send(tcpPkt(100))
	e.Run(simtime.Second)
	if sink.Packets != 0 {
		t.Fatal("down link delivered a packet")
	}
	l.Down = false
	l.Send(tcpPkt(100))
	e.Run(2 * simtime.Second)
	if sink.Packets != 1 {
		t.Fatal("restored link did not deliver")
	}
}

func TestLinkOnDepartureTiming(t *testing.T) {
	e := simtime.NewEngine()
	sink := &Sink{Label: "sink"}
	l := NewLink(e, "l", sink, Mbps(8), 5*simtime.Millisecond, nil)
	var departed simtime.Time
	l.OnDeparture = func(_ *packet.Packet, at simtime.Time) { departed = at }
	p := tcpPkt(946) // 1ms serialisation
	l.Send(p)
	e.Run(simtime.Second)
	if departed != simtime.Millisecond {
		t.Fatalf("departure at %v, want 1ms (excludes propagation)", departed)
	}
}

func TestGbpsMbpsHelpers(t *testing.T) {
	if Gbps(10) != 1e10 || Mbps(500) != 5e8 {
		t.Fatal("rate helpers wrong")
	}
}

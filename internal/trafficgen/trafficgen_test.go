package trafficgen

import (
	"net/netip"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/tcp"
)

// wire is a minimal two-host network joined by a forwarding node.
type wire struct {
	engine *simtime.Engine
	a, b   *tcp.Host
	f      *fwd
}

type fwd struct {
	toA, toB *netsim.Link
	aIP      netip.Addr
	toBPort  uint16 // destination port of the last packet sent to b
}

func (f *fwd) Name() string { return "fwd" }
func (f *fwd) Receive(p *packet.Packet, _ *netsim.Link) {
	if p.DstIP == f.aIP {
		f.toA.Send(p)
	} else {
		f.toBPort = p.DstPort
		f.toB.Send(p)
	}
}

func newWire() *wire {
	e := simtime.NewEngine()
	a := tcp.NewHost(e, "a", packet.MustAddr("10.0.0.1"))
	b := tcp.NewHost(e, "b", packet.MustAddr("10.0.0.2"))
	f := &fwd{aIP: a.IP()}
	a.AttachUplink(netsim.NewLink(e, "a-up", f, netsim.Mbps(100), simtime.Millisecond, nil))
	b.AttachUplink(netsim.NewLink(e, "b-up", f, netsim.Mbps(100), simtime.Millisecond, nil))
	f.toA = netsim.NewLink(e, "to-a", a, netsim.Mbps(100), simtime.Millisecond, nil)
	f.toB = netsim.NewLink(e, "to-b", b, netsim.Mbps(100), simtime.Millisecond, nil)
	return &wire{engine: e, a: a, b: b, f: f}
}

func TestTransferSizedCompletes(t *testing.T) {
	w := newWire()
	h := Transfer{
		From:         w.a,
		To:           w.b,
		Bytes:        500_000,
		Start:        simtime.Millisecond,
		SenderConfig: tcp.Config{MSS: 1448},
	}.Launch(w.engine)
	w.engine.Run(30 * simtime.Second)
	if !h.Completed {
		t.Fatal("transfer did not complete")
	}
	if h.Conn.Stats.BytesAcked != 500_000 {
		t.Fatalf("acked %d", h.Conn.Stats.BytesAcked)
	}
}

func TestTransferTimedCompletes(t *testing.T) {
	w := newWire()
	var completed *Handle
	h := Transfer{
		From:         w.a,
		To:           w.b,
		Start:        0,
		Duration:     2 * simtime.Second,
		SenderConfig: tcp.Config{MSS: 1448},
	}.Launch(w.engine)
	h.OnComplete = func(x *Handle) { completed = x }
	w.engine.Run(30 * simtime.Second)
	if completed == nil {
		t.Fatal("timed transfer did not complete")
	}
	if h.CompletedAt < 2*simtime.Second {
		t.Fatalf("completed too early: %v", h.CompletedAt)
	}
}

func TestTransferDefaultPort(t *testing.T) {
	w := newWire()
	h := Transfer{From: w.a, To: w.b, Bytes: 1000, SenderConfig: tcp.Config{MSS: 1448}}.Launch(w.engine)
	w.engine.Run(10 * simtime.Second)
	if !h.Completed {
		t.Fatal("transfer with default port failed")
	}
	if w.f.toBPort != 5201 {
		t.Fatalf("port %d, want iperf3 default 5201", w.f.toBPort)
	}
}

func TestBurstDeliversTrain(t *testing.T) {
	w := newWire()
	var got int
	w.b.OnUDP = func(p *packet.Packet) {
		if p.SrcPort == 30000 { // Burst's source port
			got++
		}
	}
	Burst{
		From:    w.a,
		DstIP:   w.b.IP(),
		Count:   100,
		Payload: 1200,
		At:      simtime.Millisecond,
	}.Launch(w.engine)
	w.engine.Run(simtime.Second)
	if got != 100 {
		t.Fatalf("delivered %d burst packets", got)
	}
}

func TestBurstBackToBack(t *testing.T) {
	// Burst packets are handed to the NIC in the same instant and
	// serialise back to back: arrival spacing equals serialisation.
	w := newWire()
	var arrivals []simtime.Time
	w.b.OnUDP = func(p *packet.Packet) { arrivals = append(arrivals, w.engine.Now()) }
	Burst{From: w.a, DstIP: w.b.IP(), Count: 10, Payload: 1208, At: 0}.Launch(w.engine)
	w.engine.Run(simtime.Second)
	if len(arrivals) != 10 {
		t.Fatalf("arrivals %d", len(arrivals))
	}
	want := simtime.Time(float64(1250*8) / netsim.Mbps(100) * 1e9) // 1250 wire bytes
	for i := 1; i < len(arrivals); i++ {
		if d := arrivals[i] - arrivals[i-1]; d != want {
			t.Fatalf("spacing %v, want %v", d, want)
		}
	}
}

func TestBurstPanicsOnBadArgs(t *testing.T) {
	w := newWire()
	defer func() {
		if recover() == nil {
			t.Fatal("zero count must panic")
		}
	}()
	Burst{From: w.a, DstIP: w.b.IP(), Count: 0, Payload: 100, At: 0}.Launch(w.engine)
}

func TestEchoResponder(t *testing.T) {
	w := newWire()
	EchoResponder(w.b)
	var echoed *packet.Packet
	w.a.OnUDP = func(p *packet.Packet) { echoed = p }
	ft := packet.FiveTuple{
		SrcIP: w.a.IP(), DstIP: w.b.IP(),
		SrcPort: 9999, DstPort: 9999, Proto: packet.ProtoUDP,
	}
	probe := packet.NewUDP(ft, 64)
	probe.IPID = 77
	w.engine.Schedule(0, func() { w.a.SendPacket(probe) })
	w.engine.Run(simtime.Second)
	if echoed == nil {
		t.Fatal("no echo")
	}
	if echoed.IPID != 77 {
		t.Fatalf("echo lost the probe id: %d", echoed.IPID)
	}
	if echoed.SrcIP != w.b.IP() || echoed.DstIP != w.a.IP() {
		t.Fatal("echo direction wrong")
	}
}

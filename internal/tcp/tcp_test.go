package tcp

import (
	"net/netip"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// testNet is a minimal dumbbell: client host -- switch -- server host,
// with a configurable bottleneck rate, one-way delay and switch buffer.
type testNet struct {
	engine *simtime.Engine
	client *Host
	server *Host
	sw     *swNode
}

// swNode is a tiny two-port store-and-forward device local to the tcp
// tests (the real topology uses switchsim; keeping this package free of
// that dependency avoids an import cycle in white-box tests).
type swNode struct {
	engine  *simtime.Engine
	toSrv   *netsim.Link
	toCli   *netsim.Link
	srvIP   netip.Addr
	bufSrv  int
	backlog int
	Dropped uint64
}

func (s *swNode) Name() string { return "sw" }

func (s *swNode) Receive(pkt *packet.Packet, from *netsim.Link) {
	if pkt.DstIP == s.srvIP {
		if s.bufSrv > 0 {
			if s.backlog+pkt.WireLen() > s.bufSrv {
				s.Dropped++
				return
			}
			s.backlog += pkt.WireLen()
		}
		s.toSrv.Send(pkt)
		return
	}
	s.toCli.Send(pkt)
}

func newTestNet(t testing.TB, bottleneckBps float64, oneWay simtime.Time, bufBytes int) *testNet {
	e := simtime.NewEngine()
	cli := NewHost(e, "client", packet.MustAddr("10.0.0.1"))
	srv := NewHost(e, "server", packet.MustAddr("10.0.1.1"))
	sw := &swNode{engine: e, srvIP: srv.IP(), bufSrv: bufBytes}

	// Access links are fast; the switch->server link is the bottleneck.
	cli.AttachUplink(netsim.NewLink(e, "cli-up", sw, bottleneckBps*10, 0, nil))
	srv.AttachUplink(netsim.NewLink(e, "srv-up", sw, bottleneckBps*10, 0, nil))
	sw.toSrv = netsim.NewLink(e, "sw-srv", srv, bottleneckBps, oneWay, nil)
	sw.toCli = netsim.NewLink(e, "sw-cli", cli, bottleneckBps*10, oneWay, nil)
	if bufBytes > 0 {
		sw.toSrv.OnDeparture = func(p *packet.Packet, _ simtime.Time) { sw.backlog -= p.WireLen() }
	}
	return &testNet{engine: e, client: cli, server: srv, sw: sw}
}

func TestHandshakeAndSmallTransfer(t *testing.T) {
	n := newTestNet(t, netsim.Mbps(100), 5*simtime.Millisecond, 0)
	n.server.Listen(5201, Config{})
	done := false
	var recvd *Conn
	n.server.listeners[5201].OnAccept = func(c *Conn) { recvd = c }
	c := n.client.Dial(n.server.IP(), 5201, Config{MSS: 1448})
	c.OnComplete = func(*Conn) { done = true }
	c.StartTransfer(100_000)
	n.engine.Run(10 * simtime.Second)

	if !done {
		t.Fatalf("transfer did not complete; una=%d nxt=%d state=%d", c.sndUna, c.sndNxt, c.state)
	}
	if recvd == nil {
		t.Fatal("server never accepted")
	}
	if recvd.Stats.BytesRecv != 100_000 {
		t.Fatalf("server received %d bytes, want 100000", recvd.Stats.BytesRecv)
	}
	if c.Stats.Retransmissions != 0 {
		t.Fatalf("unexpected retransmissions on a clean path: %d", c.Stats.Retransmissions)
	}
}

func TestThroughputApproachesBottleneck(t *testing.T) {
	// 100 Mbps bottleneck, 10 ms RTT, ample buffer: a 25 MB transfer
	// should take ~2.1 s (plus slow start), i.e. goodput > 70 Mbps.
	n := newTestNet(t, netsim.Mbps(100), 5*simtime.Millisecond, 0)
	n.server.Listen(5201, Config{})
	var end simtime.Time
	c := n.client.Dial(n.server.IP(), 5201, Config{MSS: 1448})
	c.OnComplete = func(*Conn) { end = n.engine.Now() }
	const total = 25_000_000
	c.StartTransfer(total)
	n.engine.Run(60 * simtime.Second)
	if end == 0 {
		t.Fatal("transfer did not complete")
	}
	goodput := float64(total*8) / end.Seconds()
	if goodput < 70e6 || goodput > 100e6 {
		t.Fatalf("goodput %.1f Mbps, want 70-100", goodput/1e6)
	}
}

func TestPacingLimitsRate(t *testing.T) {
	// Sender paced to 20 Mbps on a 100 Mbps path: the Fig. 12 DTN3
	// scenario scaled down. Goodput must sit at the pacing rate.
	n := newTestNet(t, netsim.Mbps(100), 5*simtime.Millisecond, 0)
	n.server.Listen(5201, Config{})
	var end simtime.Time
	c := n.client.Dial(n.server.IP(), 5201, Config{MSS: 1448, PacingBps: netsim.Mbps(20)})
	c.OnComplete = func(*Conn) { end = n.engine.Now() }
	const total = 5_000_000 // 2 s at 20 Mbps
	c.StartTransfer(total)
	n.engine.Run(60 * simtime.Second)
	if end == 0 {
		t.Fatal("transfer did not complete")
	}
	goodput := float64(total*8) / end.Seconds()
	if goodput < 15e6 || goodput > 20.5e6 {
		t.Fatalf("paced goodput %.1f Mbps, want ~20", goodput/1e6)
	}
}

func TestReceiverWindowLimitsRate(t *testing.T) {
	// Receiver buffer 64 KB at 20 ms RTT caps throughput near
	// rwnd/RTT = 26 Mbps on a 100 Mbps path: the Fig. 12 DTN2 scenario.
	n := newTestNet(t, netsim.Mbps(100), 10*simtime.Millisecond, 0)
	n.server.Listen(5201, Config{RcvBufBytes: 64 << 10})
	var end simtime.Time
	c := n.client.Dial(n.server.IP(), 5201, Config{MSS: 1448})
	c.OnComplete = func(*Conn) { end = n.engine.Now() }
	const total = 6_000_000
	c.StartTransfer(total)
	n.engine.Run(60 * simtime.Second)
	if end == 0 {
		t.Fatal("transfer did not complete")
	}
	goodput := float64(total*8) / end.Seconds()
	expected := float64(64<<10) * 8 / 0.020 // rwnd/RTT
	if goodput > expected*1.15 {
		t.Fatalf("goodput %.1f Mbps exceeds rwnd cap %.1f Mbps", goodput/1e6, expected/1e6)
	}
	if goodput < expected*0.5 {
		t.Fatalf("goodput %.1f Mbps far below rwnd cap %.1f Mbps", goodput/1e6, expected/1e6)
	}
	// Flight size must be pinned at the advertised window.
	if c.rwnd > 65<<10 {
		t.Fatalf("advertised window not honoured: %d", c.rwnd)
	}
}

func TestLossRecoveryCompletesTransfer(t *testing.T) {
	// 1% random loss: the transfer must still complete, with
	// retransmissions recorded and loss recovery engaged.
	n := newTestNet(t, netsim.Mbps(100), 5*simtime.Millisecond, 0)
	n.sw.toSrv.LossRate = 0.01
	n.server.Listen(5201, Config{})
	var end simtime.Time
	var recvd *Conn
	n.server.listeners[5201].OnAccept = func(c *Conn) { recvd = c }
	c := n.client.Dial(n.server.IP(), 5201, Config{MSS: 1448})
	c.OnComplete = func(*Conn) { end = n.engine.Now() }
	const total = 3_000_000
	c.StartTransfer(total)
	n.engine.Run(120 * simtime.Second)
	if end == 0 {
		t.Fatalf("transfer did not complete: una=%d nxt=%d max=%d rec=%v", c.sndUna, c.sndNxt, c.sndMax, c.inRecovery)
	}
	if recvd.Stats.BytesRecv != total {
		t.Fatalf("received %d bytes, want %d", recvd.Stats.BytesRecv, total)
	}
	if c.Stats.Retransmissions == 0 {
		t.Fatal("expected retransmissions under 1% loss")
	}
	if c.Stats.FastRecoveries == 0 && c.Stats.Timeouts == 0 {
		t.Fatal("no recovery episodes recorded")
	}
}

func TestSmallBufferCausesDropsAndRecovery(t *testing.T) {
	// Tiny switch buffer: slow-start overshoot must overflow it, and
	// the sender must recover and finish.
	n := newTestNet(t, netsim.Mbps(100), 10*simtime.Millisecond, 30_000)
	n.server.Listen(5201, Config{})
	var end simtime.Time
	c := n.client.Dial(n.server.IP(), 5201, Config{MSS: 1448})
	c.OnComplete = func(*Conn) { end = n.engine.Now() }
	const total = 10_000_000
	c.StartTransfer(total)
	n.engine.Run(120 * simtime.Second)
	if end == 0 {
		t.Fatal("transfer did not complete")
	}
	if n.sw.Dropped == 0 {
		t.Fatal("expected buffer overflow drops")
	}
	if c.Stats.Retransmissions == 0 {
		t.Fatal("expected retransmissions after drops")
	}
}

func TestTimedTransferStopsAtDeadline(t *testing.T) {
	n := newTestNet(t, netsim.Mbps(100), 5*simtime.Millisecond, 0)
	n.server.Listen(5201, Config{})
	var end simtime.Time
	c := n.client.Dial(n.server.IP(), 5201, Config{MSS: 1448})
	c.OnComplete = func(*Conn) { end = n.engine.Now() }
	c.StartTimed(2 * simtime.Second)
	n.engine.Run(30 * simtime.Second)
	if end == 0 {
		t.Fatal("timed transfer did not complete")
	}
	if end < 2*simtime.Second || end > 4*simtime.Second {
		t.Fatalf("completion at %v, want shortly after 2s", end)
	}
	if c.Stats.BytesAcked < 10_000_000 {
		t.Fatalf("timed transfer moved only %d bytes", c.Stats.BytesAcked)
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	// Two concurrent timed flows must split the bottleneck roughly
	// fairly (same RTT, same CC) — the Fig. 9 convergence behaviour.
	n := newTestNet(t, netsim.Mbps(100), 5*simtime.Millisecond, 125_000)
	n.server.Listen(5201, Config{})
	c1 := n.client.Dial(n.server.IP(), 5201, Config{MSS: 1448})
	c2 := n.client.Dial(n.server.IP(), 5201, Config{MSS: 1448})
	c1.StartTimed(20 * simtime.Second)
	c2.StartTimed(20 * simtime.Second)
	n.engine.Run(40 * simtime.Second)

	b1 := float64(c1.Stats.BytesAcked)
	b2 := float64(c2.Stats.BytesAcked)
	if b1 == 0 || b2 == 0 {
		t.Fatal("a flow moved no data")
	}
	ratio := b1 / b2
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("flows badly unfair: %f vs %f bytes (ratio %.2f)", b1, b2, ratio)
	}
	sum := (b1 + b2) * 8 / 20
	if sum < 70e6 {
		t.Fatalf("aggregate %.1f Mbps underutilises the 100 Mbps link", sum/1e6)
	}
}

func TestRTOEstimator(t *testing.T) {
	var r rtoEstimator
	r.init()
	if r.timeout() != simtime.Second {
		t.Fatalf("initial RTO %v, want 1s", r.timeout())
	}
	r.sample(100 * simtime.Millisecond)
	// First sample: srtt=100ms, rttvar=50ms, rto=300ms.
	if r.timeout() != 300*simtime.Millisecond {
		t.Fatalf("RTO after first sample %v, want 300ms", r.timeout())
	}
	r.backoff()
	if r.timeout() != 600*simtime.Millisecond {
		t.Fatalf("backoff RTO %v, want 600ms", r.timeout())
	}
	r.sample(100 * simtime.Millisecond)
	if r.timeout() >= 600*simtime.Millisecond {
		t.Fatal("sample must reset backoff")
	}
}

func TestRTOFloor(t *testing.T) {
	var r rtoEstimator
	r.init()
	r.sample(1 * simtime.Millisecond)
	if r.timeout() != 200*simtime.Millisecond {
		t.Fatalf("RTO %v must respect the 200ms floor", r.timeout())
	}
}

func TestSRTTTracksPathRTT(t *testing.T) {
	n := newTestNet(t, netsim.Mbps(100), 25*simtime.Millisecond, 0)
	n.server.Listen(5201, Config{})
	c := n.client.Dial(n.server.IP(), 5201, Config{MSS: 1448, PacingBps: netsim.Mbps(5)})
	c.StartTransfer(1_000_000)
	n.engine.Run(30 * simtime.Second)
	// Path RTT is 50 ms (25 ms each way on the bottleneck hop); with
	// light pacing there is no queueing, so SRTT must sit near 50 ms.
	srtt := c.rto.srtt
	if srtt < 45*simtime.Millisecond || srtt > 70*simtime.Millisecond {
		t.Fatalf("SRTT %v, want ~50ms", srtt)
	}
}

func TestOOOBufferMerges(t *testing.T) {
	c := &Conn{}
	c.insertOOO(interval{10, 20})
	c.insertOOO(interval{30, 40})
	c.insertOOO(interval{15, 35}) // bridges both
	if len(c.oooSegs) != 1 || c.oooSegs[0] != (interval{10, 40}) {
		t.Fatalf("merge failed: %v", c.oooSegs)
	}
	c.insertOOO(interval{50, 60})
	if len(c.oooSegs) != 2 {
		t.Fatalf("disjoint insert failed: %v", c.oooSegs)
	}
}

func TestCubicReducesOnLoss(t *testing.T) {
	cc := newCubic(1448)
	w0 := cc.window()
	cc.onLoss()
	// The base window must shrink by beta; window() additionally
	// carries the transient 3-MSS recovery inflation (RFC 5681).
	got := cc.cwnd
	want := w0 * cubicBeta
	if got < want*0.99 || got > want*1.01 {
		t.Fatalf("cubic reduction to %.0f, want ~%.0f", got, want)
	}
}

func TestCubicGrowsTowardWmax(t *testing.T) {
	cc := newCubic(1448)
	cc.ssthresh = 0 // force congestion avoidance
	cc.wMax = 100   // segments
	now := simtime.Time(0)
	for i := 0; i < 5000; i++ {
		now += simtime.Millisecond
		cc.onAck(1448, now)
	}
	segs := cc.cwnd / 1448
	if segs < 90 {
		t.Fatalf("cubic failed to regrow toward wMax: %.1f segments", segs)
	}
}

func TestCubicSlowStartDoubles(t *testing.T) {
	cc := newCubic(1000)
	w0 := cc.window()
	// One RTT worth of ACKs in slow start doubles the window.
	for acked := 0; acked < int(w0); acked += 1000 {
		cc.onAck(1000, 0)
	}
	if cc.window() < 2*w0*0.99 {
		t.Fatalf("slow start did not double: %v -> %v", w0, cc.window())
	}
}

// TestCubicRenoFriendlyGrowthLinear: while the cubic curve sits below
// the standard AIMD estimate (here the clock never advances past the
// epoch, so the curve stays at 0.7·wMax), the window follows that
// estimate and grows by about one MSS per window of ACKs, as Reno's
// congestion avoidance would (RFC 8312 §4.2).
func TestCubicRenoFriendlyGrowthLinear(t *testing.T) {
	cc := newCubic(1000)
	cc.ssthresh = cc.cwnd // enter CA immediately
	w0 := cc.window()
	const rounds = 20
	for r := 0; r < rounds; r++ {
		for acked, w := 0.0, cc.window(); acked < w; acked += 1000 {
			cc.onAck(1000, 0)
		}
	}
	perRound := (cc.window() - w0) / rounds
	if perRound < 800 || perRound > 1100 {
		t.Fatalf("CA growth per RTT %.0f, want ~1 MSS", perRound)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MSS != 8960 || cfg.RcvBufBytes != 1<<30 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
}

func TestAdvertisedWindowScaling(t *testing.T) {
	c := &Conn{cfg: Config{RcvBufBytes: 2 << 20}.withDefaults()}
	w := int(c.advertisedWindow()) << WindowScale
	if w < (2<<20)-(1<<WindowScale) || w > 2<<20 {
		t.Fatalf("advertised %d for 2MiB buffer", w)
	}
}

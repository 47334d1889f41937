package tcp

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// TestHyStartExitsBeforeOverflow: with a deep buffer, the delay-based
// slow-start exit must end the exponential phase before the queue
// overflows — no losses at all on a clean path.
func TestHyStartExitsBeforeOverflow(t *testing.T) {
	// Buffer = 2 BDP: plain slow start would overshoot and lose;
	// HyStart sees the RTT rise and exits first.
	n := newTestNet(t, netsim.Mbps(200), 25*simtime.Millisecond, 2*625_000)
	n.server.Listen(5201, Config{})
	c := n.client.Dial(n.server.IP(), 5201, Config{MSS: 1448})
	c.StartTimed(10 * simtime.Second)
	n.engine.Run(12 * simtime.Second)

	if c.Stats.Timeouts != 0 {
		t.Fatalf("timeouts: %d", c.Stats.Timeouts)
	}
	if n.sw.Dropped != 0 {
		t.Fatalf("HyStart failed: %d drops during startup", n.sw.Dropped)
	}
	if c.Stats.BytesAcked < 100_000_000 {
		t.Fatalf("moved only %d bytes in 10s at 200 Mbps", c.Stats.BytesAcked)
	}
}

// TestBareDuplicateAcksDoNotTriggerRecovery: duplicate ACKs without
// SACK blocks (responses to spurious retransmissions) must not count
// as loss signals.
func TestBareDuplicateAcksDoNotTriggerRecovery(t *testing.T) {
	n := newTestNet(t, netsim.Mbps(100), 5*simtime.Millisecond, 0)
	n.server.Listen(5201, Config{})
	c := n.client.Dial(n.server.IP(), 5201, Config{MSS: 1448})
	c.StartTimed(5 * simtime.Second)
	n.engine.Run(simtime.Second)

	// Inject three bare duplicate ACKs at the current sndUna.
	for i := 0; i < 3; i++ {
		dup := packet.NewTCP(c.ft.Reverse(), 1, c.sndUna, packet.FlagACK, 0)
		dup.Window = 0xffff
		c.handle(dup)
	}
	if c.Stats.FastRecoveries != 0 {
		t.Fatal("bare duplicates fabricated a congestion event")
	}

	// The same duplicates carrying SACK evidence must trigger.
	for i := 0; i < 3; i++ {
		dup := packet.NewTCP(c.ft.Reverse(), 1, c.sndUna, packet.FlagACK, 0)
		dup.Window = 0xffff
		dup.SackBlocks = []packet.SackBlock{{Lo: c.sndUna + 2000, Hi: c.sndUna + 4000}}
		c.handle(dup)
	}
	if c.Stats.FastRecoveries != 1 {
		t.Fatalf("SACK-bearing duplicates must trigger recovery, got %d", c.Stats.FastRecoveries)
	}
}

// TestOneCutPerWindow: recoveries chained within one window of data
// must apply a single multiplicative decrease.
func TestOneCutPerWindow(t *testing.T) {
	n := newTestNet(t, netsim.Mbps(100), 5*simtime.Millisecond, 0)
	n.server.Listen(5201, Config{})
	c := n.client.Dial(n.server.IP(), 5201, Config{MSS: 1448})
	c.StartTimed(5 * simtime.Second)
	n.engine.Run(simtime.Second)

	w0 := c.cc.window()
	sendDups := func() {
		for i := 0; i < 3; i++ {
			dup := packet.NewTCP(c.ft.Reverse(), 1, c.sndUna, packet.FlagACK, 0)
			dup.Window = 0xffff
			dup.SackBlocks = []packet.SackBlock{{Lo: c.sndUna + 2000, Hi: c.sndUna + 4000}}
			c.handle(dup)
		}
	}
	sendDups()
	if !c.inRecovery {
		t.Fatal("not in recovery")
	}
	w1 := c.cc.window()
	if w1 >= w0 {
		t.Fatalf("no cut applied: %.0f -> %.0f", w0, w1)
	}
	// Force an exit and an immediate re-entry within the same window.
	c.exitRecovery()
	c.dupAcks = 0
	sendDups()
	if got := c.cc.window(); got < w1*0.99 {
		t.Fatalf("second cut within one window: %.0f -> %.0f", w1, got)
	}
}

// TestPRRBudgetLimitsRecoveryOutput: during recovery, output must be
// bounded by delivered data scaled to the post-loss window, not by the
// access-link rate.
func TestPRRBudgetLimitsRecoveryOutput(t *testing.T) {
	c := &Conn{cfg: Config{MSS: 1000}.withDefaults()}
	c.cfg.MSS = 1000
	c.cc = newCubic(1000)
	c.inRecovery = true
	c.recoverFlight = 100_000
	c.cc.cwnd = 50_000 // post-cut window

	// Nothing delivered yet: only the one-MSS slack is allowed.
	if c.prrAllow(1000) && c.prrAllow(3000) {
		t.Fatal("budget must be tight before deliveries")
	}
	// 20 kB delivered -> ~10 kB of output allowed (50k/100k scaling).
	c.prrDelivered = 20_000
	allowed := 0
	for c.prrAllow(1000) {
		c.prrOut += 1000
		allowed += 1000
	}
	if allowed < 9000 || allowed > 12_000 {
		t.Fatalf("PRR allowed %d bytes for 20kB delivered, want ~10kB", allowed)
	}
}

// TestTTLDecrementAndExpiry checks that packets sent by hosts carry
// TTL 64. No simulated switch decrements it, so it never expires; the
// name is the test's historical one.
func TestTTLDecrementAndExpiry(t *testing.T) {
	n := newTestNet(t, netsim.Mbps(100), simtime.Millisecond, 0)
	p := packet.NewUDP(packet.FiveTuple{
		SrcIP: n.client.IP(), DstIP: n.server.IP(),
		SrcPort: 9, DstPort: 9, Proto: packet.ProtoUDP,
	}, 10)
	if p.TTL != 64 {
		t.Fatalf("default TTL %d", p.TTL)
	}
}

// Package trafficgen provides the workload generators the experiments
// use: iPerf3-style bulk and timed TCP transfers, application-paced
// senders, and UDP microburst injection — the knobs §5's tests turn.
package trafficgen

import (
	"fmt"
	"net/netip"

	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/tcp"
)

// Transfer describes one iPerf3-like TCP data movement.
type Transfer struct {
	From *tcp.Host
	To   *tcp.Host
	Port uint16
	// Bytes moves a fixed volume; zero means run until Duration.
	Bytes uint64
	// Start is the absolute simulation time the transfer begins.
	Start simtime.Time
	// Duration bounds a timed transfer (iperf3 -t); ignored when Bytes
	// is set.
	Duration simtime.Time
	// SenderConfig tunes the sending endpoint (MSS, pacing); every
	// sender runs CUBIC.
	SenderConfig tcp.Config
	// ReceiverConfig tunes the receiving endpoint (RcvBufBytes).
	ReceiverConfig tcp.Config
}

// Launch schedules the transfer on the engine and returns a handle
// whose Conn field is populated once the transfer starts.
func (tr Transfer) Launch(e *simtime.Engine) *Handle {
	if tr.Port == 0 {
		tr.Port = 5201 // iperf3's default port
	}
	h := &Handle{}
	tr.To.Listen(tr.Port, tr.ReceiverConfig)
	e.At(tr.Start, func() {
		c := tr.From.Dial(tr.To.IP(), tr.Port, tr.SenderConfig)
		h.Conn = c
		c.OnComplete = func(*tcp.Conn) {
			h.Completed = true
			h.CompletedAt = e.Now()
			if h.OnComplete != nil {
				h.OnComplete(h)
			}
		}
		if tr.Bytes > 0 {
			c.StartTransfer(tr.Bytes)
		} else {
			dur := tr.Duration
			if dur <= 0 {
				dur = 10 * simtime.Second
			}
			c.StartTimed(tr.Start + dur)
		}
	})
	return h
}

// Handle tracks a launched transfer.
type Handle struct {
	Conn        *tcp.Conn
	Completed   bool
	CompletedAt simtime.Time
	OnComplete  func(*Handle)
}

// Burst injects a UDP microburst: count packets of payload bytes sent
// back-to-back from the host at time at. At the host's access-link rate
// the burst arrives at the core switch as a packet train that fills the
// bottleneck queue within microseconds — the §5.4.1 stimulus.
type Burst struct {
	From    *tcp.Host
	DstIP   netip.Addr
	Count   int
	Payload int
	At      simtime.Time
}

// Launch schedules the burst.
func (b Burst) Launch(e *simtime.Engine) {
	if b.Count <= 0 || b.Payload <= 0 {
		panic(fmt.Sprintf("trafficgen: burst needs positive count and payload, got %d x %d", b.Count, b.Payload))
	}
	e.At(b.At, func() {
		ft := packet.FiveTuple{
			SrcIP:   b.From.IP(),
			DstIP:   b.DstIP,
			SrcPort: 30000,
			DstPort: 9, // discard
			Proto:   packet.ProtoUDP,
		}
		// Burst packets come from the arena: the receiving host (or the
		// drop point) recycles them, so a large train allocates nothing.
		for i := 0; i < b.Count; i++ {
			b.From.SendPacket(packet.GetUDP(ft, b.Payload))
		}
	})
}

// EchoResponder installs a UDP echo service on the host: every inbound
// UDP packet is reflected back to its sender. The pScheduler latency
// test uses it as its far end.
func EchoResponder(h *tcp.Host) {
	h.OnUDP = func(pkt *packet.Packet) {
		reply := packet.NewUDP(pkt.FiveTuple().Reverse(), pkt.PayloadLen)
		reply.IPID = pkt.IPID // echo carries the probe identifier back
		h.SendPacket(reply)
	}
}

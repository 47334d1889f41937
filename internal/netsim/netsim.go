// Package netsim provides the nodes-and-links layer of the simulator:
// hosts and switches exchange packets over duplex links with configurable
// bandwidth, propagation delay and (for impairment experiments) random
// loss. The package deliberately models only what the paper's testbed
// exercises — point-to-point full-duplex links and store-and-forward
// devices.
package netsim

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/simtime"
)

// Node is anything that can receive packets from a link: a host NIC, a
// switch port, a TAP monitor port.
type Node interface {
	// Name identifies the node in topology descriptions and logs.
	Name() string
	// Receive is invoked by the engine when a packet fully arrives at
	// the node (after serialisation and propagation delay).
	Receive(pkt *packet.Packet, from *Link)
}

// Gbps expresses a link rate in bits per second.
func Gbps(g float64) float64 { return g * 1e9 }

// Mbps expresses a link rate in bits per second.
func Mbps(m float64) float64 { return m * 1e6 }

// Link is a unidirectional channel between two nodes. Packets are
// serialised at the link bandwidth (back-to-back packets queue behind
// each other at the transmitter) and then experience the propagation
// delay.
type Link struct {
	name      string
	engine    *simtime.Engine
	dst       Node
	bandwidth float64      // bits per second
	delay     simtime.Time // one-way propagation delay

	// busyUntil is the time at which the transmitter finishes the last
	// scheduled serialisation; it implements transmitter serialisation
	// without modelling a separate queue (senders that need a bounded
	// queue, i.e. switches, queue before the link).
	busyUntil simtime.Time

	// LossRate drops packets independently with this probability. Used
	// to emulate the netem-style 0.01% impairment of the Fig. 12 DTN1
	// test. Zero disables loss.
	LossRate float64
	rng      *simtime.RNG

	// Down simulates a severed link (mmWave blockage): packets are
	// silently discarded while true.
	Down bool

	// OnDeparture, if set, is invoked at the instant the packet's last
	// bit leaves the transmitter. The egress optical TAP hangs here: it
	// observes packets exactly when they exit the core switch.
	OnDeparture func(pkt *packet.Packet, at simtime.Time)

	// Stats
	SentPackets    uint64
	SentBytes      uint64
	DroppedPackets uint64
}

// NewLink creates a unidirectional link to dst.
func NewLink(e *simtime.Engine, name string, dst Node, bandwidthBps float64, delay simtime.Time, rng *simtime.RNG) *Link {
	if bandwidthBps <= 0 {
		panic(fmt.Sprintf("netsim: link %s bandwidth must be positive", name))
	}
	if rng == nil {
		rng = simtime.NewRNG(1)
	}
	return &Link{
		name:      name,
		engine:    e,
		dst:       dst,
		bandwidth: bandwidthBps,
		delay:     delay,
		rng:       rng,
	}
}

// Name returns the link's identifier.
func (l *Link) Name() string { return l.name }

// SerializationDelay returns how long the link needs to clock out a
// packet of n bytes.
func (l *Link) SerializationDelay(n int) simtime.Time {
	return simtime.Time(float64(n*8) / l.bandwidth * 1e9)
}

// Scheduler thunks. These are package-level simtime.CallFunc values so
// that the per-packet Send path schedules without allocating closures;
// the link and packet ride in the event's argument slots (pointers, so
// boxing them into any is also allocation-free).

func departureThunk(now simtime.Time, a, b any) {
	l := a.(*Link)
	l.OnDeparture(b.(*packet.Packet), now)
}

func arrivalThunk(_ simtime.Time, a, b any) {
	l := a.(*Link)
	l.dst.Receive(b.(*packet.Packet), l)
}

func releaseThunk(_ simtime.Time, a, _ any) {
	a.(*packet.Packet).Release()
}

// Send transmits pkt toward the destination node. The packet arrives at
// dst after waiting for the transmitter to free up, serialising at the
// link rate, and propagating. Loss injection and link-down are applied
// at send time (the packet never arrives).
//
// p4:hotpath
func (l *Link) Send(pkt *packet.Packet) {
	now := l.engine.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	txEnd := start + l.SerializationDelay(pkt.WireLen())
	l.busyUntil = txEnd
	l.SentPackets++
	l.SentBytes += uint64(pkt.WireLen())
	if l.OnDeparture != nil {
		l.engine.AtCall(txEnd, departureThunk, l, pkt)
	}
	// Loss and link-down are applied on the wire: the packet serialises
	// normally (so upstream queue accounting stays correct) and is then
	// lost in flight, never reaching the receiver. A lost pooled packet
	// is recycled — after the departure event (if any) has observed it:
	// the release event is scheduled later at the same instant, so the
	// engine's FIFO tie-break guarantees it fires second.
	if l.Down || (l.LossRate > 0 && l.rng.Float64() < l.LossRate) {
		l.DroppedPackets++
		if l.OnDeparture != nil {
			l.engine.AtCall(txEnd, releaseThunk, pkt, nil)
		} else {
			pkt.Release()
		}
		return
	}
	l.engine.AtCall(txEnd+l.delay, arrivalThunk, l, pkt)
}

// Sink is a Node that counts and discards everything it receives; handy
// as a default destination and in tests.
type Sink struct {
	Label    string
	Packets  uint64
	Bytes    uint64
	LastSeen *packet.Packet
	OnPacket func(*packet.Packet)
}

// Name implements Node.
func (s *Sink) Name() string { return s.Label }

// Receive implements Node.
func (s *Sink) Receive(pkt *packet.Packet, from *Link) {
	s.Packets++
	s.Bytes += uint64(pkt.WireLen())
	s.LastSeen = pkt
	if s.OnPacket != nil {
		s.OnPacket(pkt)
	}
}

// Package tcp implements packet-level TCP endpoints for the simulator:
// CUBIC congestion control (the Linux default the testbed DTNs run),
// slow start, fast retransmit and NewReno/SACK recovery, retransmission
// timeouts with exponential backoff, delayed acknowledgments, receiver
// flow control, and application-rate pacing. The model is deliberately scoped to what the paper's
// experiments exercise — unidirectional bulk transfers whose dynamics
// (slow-start bursts, loss sawtooth, fairness convergence, rwnd and
// pacing caps) the P4 data plane observes.
package tcp

import (
	"fmt"
	"net/netip"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// WindowScale is the fixed TCP window-scale factor every simulated host
// uses (as if negotiated during the handshake). 2^14 with a 16-bit
// window field allows advertising up to 1 GiB, enough for the 125 MB
// BDP of the paper's 10 Gbps x 100 ms path.
const WindowScale = 14

// Host is a simulated end system (a DTN or a perfSONAR node). It owns
// one access link toward its first-hop switch and demultiplexes inbound
// packets to connections by 5-tuple.
type Host struct {
	name   string
	engine *simtime.Engine
	ip     netip.Addr

	uplink    *netsim.Link
	conns     map[packet.FiveTuple]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16
	nextIPID  uint16

	// OnUDP, if set, handles inbound UDP packets (echo responders for
	// latency tests, burst sinks). Unset, UDP is silently consumed.
	OnUDP func(pkt *packet.Packet)

	// ReceivedPackets counts everything delivered to this host.
	ReceivedPackets uint64
}

// NewHost creates a host with the given address.
func NewHost(e *simtime.Engine, name string, ip netip.Addr) *Host {
	return &Host{
		name:      name,
		engine:    e,
		ip:        ip,
		conns:     make(map[packet.FiveTuple]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  40000,
	}
}

// Name implements netsim.Node.
func (h *Host) Name() string { return h.name }

// IP returns the host address.
func (h *Host) IP() netip.Addr { return h.ip }

// AttachUplink wires the host's outbound link (toward its first-hop
// switch). Must be called before any traffic is generated.
func (h *Host) AttachUplink(l *netsim.Link) { h.uplink = l }

// send transmits a packet out the access link.
func (h *Host) send(pkt *packet.Packet) {
	if h.uplink == nil {
		panic(fmt.Sprintf("tcp: host %s has no uplink", h.name))
	}
	pkt.SentAt = h.engine.Now()
	if pkt.IPID == 0 {
		h.nextIPID++
		if h.nextIPID == 0 {
			h.nextIPID = 1
		}
		pkt.IPID = h.nextIPID
	}
	h.uplink.Send(pkt)
}

// Receive implements netsim.Node: demultiplex to an existing connection
// or to a listener for SYN packets. The host is the packet's terminal
// owner: handlers run synchronously and do not retain it, so the packet
// is recycled on return.
//
// p4:hotpath
func (h *Host) Receive(pkt *packet.Packet, from *netsim.Link) {
	h.ReceivedPackets++
	if pkt.Proto != packet.ProtoTCP {
		if pkt.Proto == packet.ProtoUDP && h.OnUDP != nil {
			h.OnUDP(pkt)
		}
		pkt.Release()
		return
	}
	key := pkt.FiveTuple().Reverse() // connection keyed by our outbound tuple
	if c, ok := h.conns[key]; ok {
		c.handle(pkt)
		pkt.Release()
		return
	}
	if pkt.Flags&packet.FlagSYN != 0 && pkt.Flags&packet.FlagACK == 0 {
		if ln, ok := h.listeners[pkt.DstPort]; ok {
			c := ln.accept(pkt)
			h.conns[key] = c
			c.handle(pkt)
		}
	}
	pkt.Release()
}

// SendPacket transmits an arbitrary packet out the access link. Traffic
// generators use it for UDP probes and microburst injection.
func (h *Host) SendPacket(pkt *packet.Packet) { h.send(pkt) }

// allocPort hands out an ephemeral source port.
func (h *Host) allocPort() uint16 {
	p := h.nextPort
	h.nextPort++
	if h.nextPort == 0 {
		h.nextPort = 40000
	}
	return p
}

// Listener accepts inbound connections on a port, creating a receiving
// endpoint per new flow.
type Listener struct {
	host *Host
	port uint16
	cfg  Config

	// OnAccept is invoked with each newly accepted connection.
	OnAccept func(*Conn)
}

// Listen registers a listener with the given receive-side configuration
// (notably RcvBufBytes for receiver-limited scenarios).
func (h *Host) Listen(port uint16, cfg Config) *Listener {
	cfg = cfg.withDefaults()
	ln := &Listener{host: h, port: port, cfg: cfg}
	h.listeners[port] = ln
	return ln
}

func (ln *Listener) accept(syn *packet.Packet) *Conn {
	ft := syn.FiveTuple().Reverse() // our tuple: local -> remote
	c := newConn(ln.host, ft, ln.cfg, roleReceiver)
	if ln.OnAccept != nil {
		ln.OnAccept(c)
	}
	return c
}

// Dial opens a sending connection to dstIP:dstPort and begins the
// three-way handshake. The returned connection transmits data once
// StartTransfer (or StartTimed) is called; calls made before the
// handshake completes are queued automatically.
func (h *Host) Dial(dstIP netip.Addr, dstPort uint16, cfg Config) *Conn {
	cfg = cfg.withDefaults()
	ft := packet.FiveTuple{
		SrcIP:   h.ip,
		DstIP:   dstIP,
		SrcPort: h.allocPort(),
		DstPort: dstPort,
		Proto:   packet.ProtoTCP,
	}
	c := newConn(h, ft, cfg, roleSender)
	h.conns[ft] = c
	c.sendSYN()
	return c
}

// Package switchsim models the legacy (non-programmable) switches of the
// paper's testbed: store-and-forward devices with longest-prefix routing
// and drop-tail, byte-limited output buffers. The core switch in the
// topology is one of these; the buffer-size experiments (Fig. 11) tune
// its output-queue capacity, and the optical TAPs attach to its ports.
package switchsim

import (
	"net/netip"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// TapHook observes a packet at a fixed point in the switch with a
// nanosecond timestamp and the name of the link involved (the arrival
// link for ingress, the departure port's link for egress; empty when
// unknown). The ingress hook fires when the packet arrives at the
// switch; the egress hook fires when its last bit leaves.
type TapHook func(pkt *packet.Packet, at simtime.Time, link string)

// Port is one switch interface: the attached outbound link plus its
// drop-tail buffer accounting.
type Port struct {
	Link *netsim.Link

	// BufferBytes caps the bytes that may wait in this port's output
	// queue (including the packet currently serialising). Zero means
	// effectively unbounded (1 GiB), which stands in for a deep-buffered
	// core switch.
	BufferBytes int

	queuedBytes  int // bytes accepted but not yet fully transmitted
	drainedUntil simtime.Time

	// Stats
	EnqueuedPackets uint64
	DroppedPackets  uint64
	DroppedBytes    uint64
	PeakQueueBytes  int
}

// Switch is a store-and-forward legacy switch.
type Switch struct {
	name   string
	engine *simtime.Engine
	routes []route
	ports  map[string]*Port

	// IngressTap and EgressTap are the two mirror points the paper's
	// optical TAPs provide (§4.2): one copy as the packet enters the
	// core switch, one as it exits. Either may be nil.
	IngressTap TapHook
	EgressTap  TapHook

	// Stats
	ReceivedPackets uint64
	ForwardedBytes  uint64
	Unroutable      uint64
}

type route struct {
	prefix netip.Prefix
	port   *Port
}

// New creates a switch.
func New(e *simtime.Engine, name string) *Switch {
	return &Switch{
		name:   name,
		engine: e,
		ports:  make(map[string]*Port),
	}
}

// Name implements netsim.Node.
func (s *Switch) Name() string { return s.name }

// AddRoute attaches an output link for destinations inside prefix and
// returns the port so callers can set its buffer size. Longer prefixes
// win; insertion order breaks ties.
func (s *Switch) AddRoute(prefix netip.Prefix, link *netsim.Link, bufferBytes int) *Port {
	port, ok := s.ports[link.Name()]
	if !ok {
		port = &Port{Link: link, BufferBytes: bufferBytes}
		s.ports[link.Name()] = port
		// The egress TAP copy and the queue-byte release both happen
		// when a packet's last bit leaves the port; the link's
		// transmitter provides that instant.
		link.OnDeparture = func(p *packet.Packet, at simtime.Time) {
			port.queuedBytes -= p.WireLen()
			if s.EgressTap != nil {
				s.EgressTap(p, at, link.Name())
			}
		}
	}
	s.routes = append(s.routes, route{prefix: prefix, port: port})
	return port
}

// PortFor returns the port a destination address routes to, or nil.
func (s *Switch) PortFor(dst netip.Addr) *Port {
	var best *Port
	bestBits := -1
	for _, r := range s.routes {
		if r.prefix.Contains(dst) && r.prefix.Bits() > bestBits {
			best = r.port
			bestBits = r.prefix.Bits()
		}
	}
	return best
}

// Receive implements netsim.Node: route the packet, apply drop-tail
// admission against the output buffer, and forward. Dropped packets are
// recycled here — the switch is the last owner on both drop paths.
//
// p4:hotpath
func (s *Switch) Receive(pkt *packet.Packet, from *netsim.Link) {
	now := s.engine.Now()
	s.ReceivedPackets++
	if s.IngressTap != nil {
		fromName := ""
		if from != nil {
			fromName = from.Name()
		}
		s.IngressTap(pkt, now, fromName)
	}

	port := s.PortFor(pkt.DstIP)
	if port == nil {
		s.Unroutable++
		pkt.Release()
		return
	}

	capacity := port.BufferBytes
	if capacity <= 0 {
		capacity = 1 << 30
	}
	wire := pkt.WireLen()
	if port.queuedBytes+wire > capacity {
		port.DroppedPackets++
		port.DroppedBytes += uint64(wire)
		pkt.Release()
		return
	}
	port.queuedBytes += wire
	port.EnqueuedPackets++
	if port.queuedBytes > port.PeakQueueBytes {
		port.PeakQueueBytes = port.queuedBytes
	}
	s.ForwardedBytes += uint64(wire)
	port.Link.Send(pkt)
}

// Package replay is the batch-path ingest front-end: it streams
// multi-million-packet synthetic workloads (Synth) directly into the
// data plane's run-to-completion Front path, bypassing the netsim
// event loop entirely. Where the simulator answers "what does the
// pipeline measure", replay answers "how fast does the pipeline go":
// the Runner reports wall-clock packets/sec and Gbps (bench/'s
// elephants workload is the gated reading of this path, and the root
// BenchmarkIngestSynth profiles it).
//
// The package deliberately lives outside the deterministic simulation
// scope: record timestamps are simulated time (so the pipeline's
// registers behave exactly as under the event loop), but throughput is
// measured on the wall clock, because throughput is a property of this
// machine, not of the model.
package replay

import (
	"net/netip"

	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/tap"
)

// Record is one TAP copy in value form: exactly the fields the
// data-plane parser reads, so a generator can stream copies through the
// batch path without building full packets.
type Record struct {
	// At is the simulated nanosecond timestamp at the TAP.
	At uint64
	// Seq and Ack are the extended TCP sequence/acknowledgment numbers.
	Seq, Ack uint64
	// SrcIP and DstIP are the IPv4 addresses in network byte order.
	SrcIP, DstIP [4]byte
	// SrcPort and DstPort are the transport ports.
	SrcPort, DstPort uint16
	// TotalLen is the IPv4 total length (header + transport + payload).
	TotalLen uint16
	// IPID is the IPv4 identification field pairing the two TAP copies.
	IPID uint16
	// Proto is the IANA transport protocol number.
	Proto uint8
	// Flags carries the TCP flag bits (0 for UDP).
	Flags uint8
	// Point is the TAP position: 0 ingress, 1 egress.
	Point uint8
}

// Source produces records one at a time into a caller-owned scratch
// Record — the zero-allocation streaming contract the Runner drains.
// Synth implements it; wrappers bound or interleave Synths.
type Source interface {
	// Next fills r with the next record and reports whether one was
	// produced. After Next returns false the source is exhausted.
	Next(r *Record) bool
}

// Fill decodes the record into a caller-owned scratch packet,
// overwriting every field the data-plane parser reads. Header length
// fields assume option-less headers (IHL 5, data offset 5), matching
// what the simulator emits; the payload length is derived from
// TotalLen so CarriesData/IsACKOnly classify exactly as the original
// packet did.
//
// p4:hotpath
func (r *Record) Fill(p *packet.Packet) {
	p.Proto = packet.Proto(r.Proto)
	p.SrcIP = netip.AddrFrom4(r.SrcIP)
	p.DstIP = netip.AddrFrom4(r.DstIP)
	p.SrcPort = r.SrcPort
	p.DstPort = r.DstPort
	p.IHL = 5
	p.TotalLen = r.TotalLen
	p.IPID = r.IPID
	p.SeqExt = r.Seq
	p.AckExt = r.Ack
	p.Seq = uint32(r.Seq)
	p.Ack = uint32(r.Ack)
	p.DataOffset = 5
	p.Flags = r.Flags
	overhead := packet.IPv4HeaderLen + packet.UDPHeaderLen
	if p.Proto == packet.ProtoTCP {
		overhead = packet.IPv4HeaderLen + packet.TCPHeaderLen
	}
	if n := int(r.TotalLen) - overhead; n > 0 {
		p.PayloadLen = n
	} else {
		p.PayloadLen = 0
	}
}

// CopyInto decodes the record into the scratch packet and wraps it as
// the TAP copy the front-end appends.
//
// p4:hotpath
func (r *Record) CopyInto(p *packet.Packet) tap.Copy {
	r.Fill(p)
	pt := tap.Ingress
	if r.Point == 1 {
		pt = tap.Egress
	}
	return tap.Copy{Pkt: p, Point: pt, At: simtime.Time(r.At)}
}

// WireLen is the on-the-wire size the record represents, including the
// Ethernet header — the byte count the Gbps figure is computed from.
func (r *Record) WireLen() uint64 {
	return uint64(packet.EthernetHeaderLen) + uint64(r.TotalLen)
}

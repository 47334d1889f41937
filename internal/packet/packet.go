// Package packet models the network packets the simulated Science DMZ
// carries and the P4 data plane parses. Headers mirror real Ethernet,
// IPv4, TCP and UDP fields and lengths; packets travel as structs, and
// the data plane consumes their parsed fields, never wire bytes.
package packet

import (
	"fmt"
	"net/netip"

	"repro/internal/simtime"
)

// Proto identifies the transport protocol, using IANA protocol numbers
// as they appear in the IPv4 header.
type Proto uint8

// Transport protocol numbers used by the simulator.
const (
	ProtoTCP Proto = 6
	ProtoUDP Proto = 17
)

// String names the IP protocol (tcp/udp, or the numeric value).
func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// TCP header flag bits.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
	FlagURG uint8 = 1 << 5
)

// SackBlock is one selectively-acknowledged byte range [Lo, Hi).
type SackBlock struct {
	Lo, Hi uint64
}

// FiveTuple identifies a flow the way the paper's data plane does:
// source IP, destination IP, source port, destination port, protocol.
type FiveTuple struct {
	SrcIP   netip.Addr
	DstIP   netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// Reverse returns the 5-tuple with source and destination swapped. The
// paper hashes this "reversed ID" to match acknowledgment packets to the
// flow that elicited them (§4).
func (f FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		SrcIP:   f.DstIP,
		DstIP:   f.SrcIP,
		SrcPort: f.DstPort,
		DstPort: f.SrcPort,
		Proto:   f.Proto,
	}
}

// String renders the flow as src:port>dst:port/proto for logs.
func (f FiveTuple) String() string {
	return fmt.Sprintf("%s:%d>%s:%d/%s", f.SrcIP, f.SrcPort, f.DstIP, f.DstPort, f.Proto)
}

// Packet is a simulated network packet. Length fields are kept
// consistent with the header model: TotalLen covers the IPv4 header and
// everything after it; payload bytes are represented by PayloadLen and
// are not materialised (the simulator never needs payload content).
type Packet struct {
	// Ethernet
	SrcMAC [6]byte
	DstMAC [6]byte

	// IPv4
	TTL      uint8
	Proto    Proto
	SrcIP    netip.Addr
	DstIP    netip.Addr
	IHL      uint8  // header length in 32-bit words, normally 5
	TotalLen uint16 // IPv4 total length: IP header + transport header + payload
	IPID     uint16 // identification field; hosts increment it per packet,
	// and the data plane uses (5-tuple, IPID) to pair the ingress-TAP
	// and egress-TAP copies of the same packet for queuing-delay
	// measurement (§4.2)

	// Transport
	SrcPort uint16
	DstPort uint16

	// TCP only
	Seq        uint32 // wire sequence number (low 32 bits of SeqExt)
	Ack        uint32 // wire acknowledgment number (low 32 bits of AckExt)
	DataOffset uint8  // TCP header length in 32-bit words, normally 5
	Flags      uint8
	Window     uint16 // advertised receive window (scaled value, in WindowScale units)

	// SeqExt and AckExt carry 64-bit extended sequence numbers so the
	// simulator can move more than 4 GB per flow without wrap ambiguity
	// (see DESIGN.md substitution table). Seq and Ack hold their low
	// 32 bits, the wire fields.
	SeqExt uint64
	AckExt uint64

	// PayloadLen is the number of transport payload bytes the packet
	// carries. The bytes themselves are not stored.
	PayloadLen int

	// SackBlocks carries the receiver's selective-acknowledgment
	// ranges (RFC 2018), newest first, at most three — as they would
	// ride in TCP options. The simulator keeps them as struct fields
	// rather than marshalling options bytes; the P4 data plane ignores
	// them (as the paper's pipeline does).
	SackBlocks []SackBlock

	// TSVal and TSEcr model the TCP timestamps option (RFC 7323):
	// senders stamp data with TSVal and receivers echo it back as
	// TSEcr, giving the sender one RTT sample per ACK — what real
	// stacks (and HyStart) rely on. Zero means absent.
	TSVal, TSEcr int64

	// Simulation metadata (not on the wire).

	// SentAt is the virtual time the packet left its origin host.
	SentAt simtime.Time

	// pooled marks packets owned by the package arena (see pool.go).
	// Release is a no-op on packets built with NewTCP/NewUDP or plain
	// struct literals, so callers that retain packets (sinks, recorders)
	// stay safe without knowing how the packet was produced.
	pooled bool
}

// Standard header sizes in bytes.
const (
	EthernetHeaderLen = 14
	IPv4HeaderLen     = 20
	TCPHeaderLen      = 20
	UDPHeaderLen      = 8
)

// NewTCP builds a TCP packet with consistent length fields.
func NewTCP(ft FiveTuple, seq, ack uint64, flags uint8, payload int) *Packet {
	p := &Packet{
		TTL:        64,
		Proto:      ProtoTCP,
		SrcIP:      ft.SrcIP,
		DstIP:      ft.DstIP,
		IHL:        5,
		SrcPort:    ft.SrcPort,
		DstPort:    ft.DstPort,
		SeqExt:     seq,
		AckExt:     ack,
		Seq:        uint32(seq),
		Ack:        uint32(ack),
		DataOffset: 5,
		Flags:      flags,
		PayloadLen: payload,
	}
	p.TotalLen = uint16(IPv4HeaderLen + TCPHeaderLen + payload)
	return p
}

// NewUDP builds a UDP packet with consistent length fields.
func NewUDP(ft FiveTuple, payload int) *Packet {
	p := &Packet{
		TTL:        64,
		Proto:      ProtoUDP,
		SrcIP:      ft.SrcIP,
		DstIP:      ft.DstIP,
		IHL:        5,
		SrcPort:    ft.SrcPort,
		DstPort:    ft.DstPort,
		PayloadLen: payload,
	}
	p.TotalLen = uint16(IPv4HeaderLen + UDPHeaderLen + payload)
	return p
}

// FiveTuple extracts the packet's flow identity.
func (p *Packet) FiveTuple() FiveTuple {
	return FiveTuple{
		SrcIP:   p.SrcIP,
		DstIP:   p.DstIP,
		SrcPort: p.SrcPort,
		DstPort: p.DstPort,
		Proto:   p.Proto,
	}
}

// WireLen is the packet's on-the-wire size in bytes including the
// Ethernet header; this is the size links serialise.
func (p *Packet) WireLen() int {
	return EthernetHeaderLen + int(p.TotalLen)
}

// IsACKOnly reports whether the packet is a pure TCP acknowledgment:
// the ACK flag set and no payload. Algorithm 1 classifies packets into
// "Seq" (carries data) and "ACK" using the TCP flags and total length;
// this is the ACK side of that classification.
func (p *Packet) IsACKOnly() bool {
	return p.Proto == ProtoTCP && p.Flags&FlagACK != 0 && p.PayloadLen == 0
}

// CarriesData reports whether the packet has transport payload — the
// "Seq" packet type in Algorithm 1.
func (p *Packet) CarriesData() bool {
	return p.PayloadLen > 0
}

// ExpectedAck computes the future acknowledgment number that will cover
// this data packet, exactly as the paper's data plane does:
//
//	eACK = seq_no + (ip.total_len - 4*ip.ihl - 4*tcp.data_offset)
func (p *Packet) ExpectedAck() uint64 {
	payload := int(p.TotalLen) - 4*int(p.IHL) - 4*int(p.DataOffset)
	ack := p.SeqExt + uint64(payload)
	if p.Flags&(FlagSYN|FlagFIN) != 0 {
		ack++
	}
	return ack
}

// Clone returns a copy of the packet. TAPs use Clone so that the
// monitoring path cannot mutate the packet still traversing the
// production path.
//
// p4:hotpath-exempt: Clone is the non-pooled deep copy and allocates by
// design; hot configurations set tap.Pair.Recycle and go through
// ClonePooled, leaving this as the debug-tap fallback.
func (p *Packet) Clone() *Packet {
	q := *p
	q.pooled = false
	if len(p.SackBlocks) > 0 {
		q.SackBlocks = append([]SackBlock(nil), p.SackBlocks...)
	}
	return &q
}

// String summarises the headers for debugging output.
func (p *Packet) String() string {
	if p.Proto == ProtoTCP {
		return fmt.Sprintf("%s seq=%d ack=%d flags=%02x len=%d",
			p.FiveTuple(), p.SeqExt, p.AckExt, p.Flags, p.PayloadLen)
	}
	return fmt.Sprintf("%s len=%d", p.FiveTuple(), p.PayloadLen)
}

// MustAddr parses a dotted-quad address, panicking on malformed input.
// Topology builders use it for literal addresses.
func MustAddr(s string) netip.Addr {
	a, err := netip.ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

package packet

import "sync"

// The packet arena. At Fig9 scale the simulator moves tens of millions
// of packets through a handful of switches; allocating each one
// individually made the garbage collector the largest consumer of wall
// time after the scheduler. Pooling is safe here because the simulation
// is single-threaded per engine and packet lifetimes are explicit: a
// packet is owned by exactly one component at a time (host send queue,
// link in flight, switch queue, TAP mirror), and the owner either passes
// it on or releases it.
//
// Ownership rules:
//
//   - Whoever drops a packet (queue overflow, link loss, no route)
//     releases it.
//   - The terminal receiver (tcp.Host after demux, the data plane after
//     a mirrored copy is processed) releases it.
//   - Components that retain packets (netsim.Sink, test recorders) must
//     receive non-pooled packets — Clone() and the New* constructors
//     produce those — or simply never call Release, which is always safe.
var pool = sync.Pool{New: func() any { return new(Packet) }}

// Get returns a zeroed pooled packet. Slice capacity from previous use
// is retained (length reset to zero) so SACK blocks appended later reuse
// the old backing array.
func Get() *Packet {
	if !poolEnabled {
		return new(Packet)
	}
	p := pool.Get().(*Packet)
	p.pooled = true
	return p
}

// Release returns the packet to the arena. It is a no-op for nil
// packets and for packets not obtained from the pool, so callers can
// release unconditionally at their ownership boundary. After Release the
// caller must not touch the packet again.
//
// p4:hotpath
func (p *Packet) Release() {
	if p == nil || !p.pooled {
		return
	}
	sack := p.SackBlocks[:0]
	*p = Packet{}
	p.SackBlocks = sack
	pool.Put(p)
}

// ClonePooled copies the packet into an arena slot, reusing that slot's
// retained SACK backing array. TAPs use it for mirror copies when
// the attached monitor is known not to retain them.
//
// p4:hotpath
func (p *Packet) ClonePooled() *Packet {
	q := Get()
	sack := q.SackBlocks[:0]
	pooled := q.pooled
	*q = *p
	q.pooled = pooled
	q.SackBlocks = append(sack, p.SackBlocks...)
	return q
}

// GetTCP is the pooled equivalent of NewTCP: a TCP packet with
// consistent length fields, drawn from the arena.
//
// p4:hotpath
func GetTCP(ft FiveTuple, seq, ack uint64, flags uint8, payload int) *Packet {
	p := Get()
	p.TTL = 64
	p.Proto = ProtoTCP
	p.SrcIP = ft.SrcIP
	p.DstIP = ft.DstIP
	p.IHL = 5
	p.SrcPort = ft.SrcPort
	p.DstPort = ft.DstPort
	p.SeqExt = seq
	p.AckExt = ack
	p.Seq = uint32(seq)
	p.Ack = uint32(ack)
	p.DataOffset = 5
	p.Flags = flags
	p.PayloadLen = payload
	p.TotalLen = uint16(IPv4HeaderLen + TCPHeaderLen + payload)
	return p
}

// GetUDP is the pooled equivalent of NewUDP.
//
// p4:hotpath
func GetUDP(ft FiveTuple, payload int) *Packet {
	p := Get()
	p.TTL = 64
	p.Proto = ProtoUDP
	p.SrcIP = ft.SrcIP
	p.DstIP = ft.DstIP
	p.IHL = 5
	p.SrcPort = ft.SrcPort
	p.DstPort = ft.DstPort
	p.PayloadLen = payload
	p.TotalLen = uint16(IPv4HeaderLen + UDPHeaderLen + payload)
	return p
}

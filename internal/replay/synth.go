package replay

import (
	"net/netip"

	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// Synth generates a deterministic synthetic workload in trace-record
// form: round-robined TCP flows sending MSS-sized segments, with pure
// ACKs in the reverse direction every AckEvery data packets, an egress
// TAP copy for every EgressEvery-th data packet (closing the
// queuing-delay pairing), and a periodic retransmission so Algorithm
// 1's loss branch executes. No RNG and no wall clock — two Synths with
// the same parameters emit byte-identical streams, so benchmark runs
// and the equivalence tests see a stable workload.
//
// The zero value is not usable; parameters default on the first Next
// call (4 flows, 1460-byte MSS, 1 µs spacing, ACK every 4 data
// packets, egress copy every 4th data packet, retransmit every 997th).
// Packets must be set: it is the total number of records produced.
type Synth struct {
	// Flows is the number of concurrent flows, interleaved per record.
	Flows int
	// Packets is the total number of TAP records to produce.
	Packets int
	// MSS is the TCP payload size per data segment.
	MSS int
	// AckEvery inserts one reverse-direction pure ACK after every
	// AckEvery data packets on a flow.
	AckEvery int
	// EgressEvery emits the egress TAP copy for every EgressEvery-th
	// data packet (the others model packets mirrored only at ingress).
	EgressEvery int
	// RetransEvery rewinds the sequence cursor one segment every
	// RetransEvery data packets, exercising the loss counter.
	RetransEvery int
	// Spacing is the simulated timestamp distance between records.
	Spacing simtime.Time
	// EgressDelay is the simulated core-switch transit time applied to
	// egress copies; it must stay below Spacing to keep timestamps
	// monotonic.
	EgressDelay simtime.Time
	// FlowBase offsets the flow numbering used for addresses and
	// ports, letting two Synths emit disjoint flow populations. Zero
	// keeps the original numbering.
	FlowBase int

	n        int
	flow     int
	at       uint64
	init     bool
	pending  bool
	pend     Record
	seq      []uint64
	sent     []uint64 // cumulative data segments per flow
	sinceAck []uint64 // data segments since the flow's last pure ACK
	ipid     []uint16
}

// synthServerPort is the receiver's iperf3-style port on every flow.
const synthServerPort = 5201

// synthEndpoints is the Synth addressing: flow number g (FlowBase
// included) runs 10.0.x.y -> 10.1.x.y with the low 16 bits of g in the
// host bytes and any higher bits folded into the sender's port, so
// flows stay pairwise-distinct 5-tuples past 65536 of them while
// numbers below 2^16 keep the original byte-identical addressing (port
// 40000).
func synthEndpoints(g int) (src, dst [4]byte, port uint16) {
	src = [4]byte{10, 0, byte(g >> 8), byte(g)}
	dst = [4]byte{10, 1, byte(g >> 8), byte(g)}
	return src, dst, uint16(40000 + g>>16)
}

// SynthFlowNumbers is how many flow numbers (FlowBase included) the
// addressing keeps distinct with the sender port at most 65535.
const SynthFlowNumbers = (1<<16 - 40000) << 16

// SynthFlowKey returns the forward (data-direction) flow key of Synth
// flow number g, FlowBase included: the key the data plane files the
// flow's data segments under.
func SynthFlowKey(g int) dataplane.FlowKey {
	src, dst, port := synthEndpoints(g)
	return dataplane.KeyOf(packet.FiveTuple{
		SrcIP:   netip.AddrFrom4(src),
		DstIP:   netip.AddrFrom4(dst),
		SrcPort: port,
		DstPort: synthServerPort,
		Proto:   packet.ProtoTCP,
	})
}

func (s *Synth) defaults() {
	if s.Flows <= 0 {
		s.Flows = 4
	}
	if s.MSS <= 0 {
		s.MSS = 1460
	}
	if s.AckEvery <= 0 {
		s.AckEvery = 4
	}
	if s.EgressEvery <= 0 {
		s.EgressEvery = 4
	}
	if s.RetransEvery <= 0 {
		s.RetransEvery = 997
	}
	if s.Spacing <= 0 {
		s.Spacing = simtime.Microsecond
	}
	if s.EgressDelay <= 0 || s.EgressDelay >= s.Spacing {
		s.EgressDelay = s.Spacing / 2
	}
	s.seq = make([]uint64, s.Flows)
	s.sent = make([]uint64, s.Flows)
	s.sinceAck = make([]uint64, s.Flows)
	s.ipid = make([]uint16, s.Flows)
	for f := range s.seq {
		s.seq[f] = 1 // post-SYN relative sequence space
	}
	s.init = true
}

// Next implements Source. One call emits one record; an egress copy
// scheduled by EgressEvery is emitted by the following call, keeping
// the stream strictly sequential.
//
// p4:hotpath
func (s *Synth) Next(r *Record) bool {
	if s.n >= s.Packets {
		return false
	}
	if !s.init {
		s.defaults()
	}
	s.n++
	if s.pending {
		s.pending = false
		*r = s.pend
		return true
	}
	f := s.flow
	s.flow++
	if s.flow == s.Flows {
		s.flow = 0
	}
	s.at += uint64(s.Spacing)

	src, dst, port := synthEndpoints(f + s.FlowBase)

	if s.sinceAck[f] >= uint64(s.AckEvery) {
		s.sinceAck[f] = 0
		// Pure ACK from the receiver, cumulative up to everything sent.
		// Written field by field, here and below: a Record literal is
		// built on the stack and then copied out.
		r.At, r.Seq, r.Ack = s.at, 0, s.seq[f]
		r.SrcIP, r.DstIP, r.SrcPort, r.DstPort = dst, src, synthServerPort, port
		r.TotalLen = 40 // IPv4 + TCP headers only
		r.IPID, r.Proto, r.Flags, r.Point = s.ipid[f], 6, 0x10, 0
		s.ipid[f]++
		return true
	}

	seq := s.seq[f]
	if s.sent[f] > 1 && s.sent[f]%uint64(s.RetransEvery) == 0 {
		// Resend the segment before the previous one: strictly below the
		// pipeline's prev-seq register, so Algorithm 1 counts a loss.
		seq -= 2 * uint64(s.MSS)
	} else {
		s.seq[f] += uint64(s.MSS)
	}
	s.sent[f]++
	s.sinceAck[f]++
	r.At, r.Seq, r.Ack = s.at, seq, 0
	r.SrcIP, r.DstIP, r.SrcPort, r.DstPort = src, dst, port, synthServerPort
	r.TotalLen = uint16(40 + s.MSS)
	r.IPID, r.Proto, r.Flags, r.Point = s.ipid[f], 6, 0x10, 0
	if s.sent[f]%uint64(s.EgressEvery) == 0 {
		s.pend = *r
		s.pend.At = s.at + uint64(s.EgressDelay)
		s.pend.Point = 1
		s.pending = true
	}
	s.ipid[f]++
	return true
}

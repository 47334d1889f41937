// Package oracle is the reference the data plane's per-flow numbers are
// checked against: the paper's per-packet rules as plainly as they read,
// over an unbounded map keyed by the 5-tuple, with no hashing, register
// widths, 48-bit stamps, tiers, batches or shards (DESIGN.md §5.11):
//
//   - Algorithm 1: a TCP data segment whose 64-bit sequence number is
//     below the flow's previous one is a loss; any other becomes the
//     previous one and stamps its expected ACK. A pure ACK equal to a
//     stamped expected ACK of the reverse flow is that flow's RTT sample.
//   - Queue delay: an egress copy pairs with the ingress copy of the same
//     flow and IP ID; the delay is the difference of their timestamps.
//   - Flight (Dapper): the highest expected ACK sent minus the highest
//     ACK seen, once one is seen; FlightMaxW and FlightMinW are its
//     extremes over the whole observation (no control plane resets them).
//
// A stamp is dropped once no packet can consume it: an ACK consumes the
// expected ACKs at or below it (TCP acknowledges cumulatively), an
// egress copy the ingress copies of its flow up to its own (a port sends
// one flow's packets in order).
package oracle

import (
	"math"

	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/tap"
)

// Flow is one direction's truth, in the dataplane.FlowSnapshot fields
// the rules define. RTT and flight belong to the data direction.
type Flow struct {
	Bytes, Pkts, PktLoss uint64
	// RTT and QDelay are the latest samples, zero before the first.
	RTT, QDelay simtime.Time
	// FlightMinW is math.MaxUint64 before the first ACK.
	Flight, FlightMaxW, FlightMinW uint64

	prevSeq, highSeq, highAck uint64
	data                      bool
	eacks, ingress            []stamp // pending, oldest first
}

// stamp is the arrival time of the segment an expected ACK will
// acknowledge, or of the ingress copy of an IP ID.
type stamp struct {
	key uint64
	at  simtime.Time
}

// Oracle accumulates the truth of every flow it is shown.
type Oracle struct {
	flows map[packet.FiveTuple]*Flow
	data  []packet.FiveTuple
	loss  uint64
	slab  []Flow // flows are allocated 1024 at a time: fewer objects to collect
}

// New returns an empty oracle.
func New() *Oracle { return &Oracle{flows: map[packet.FiveTuple]*Flow{}} }

// Observe applies one TAP copy; the packet is not retained.
func (o *Oracle) Observe(c tap.Copy) {
	p, ft := c.Pkt, c.Pkt.FiveTuple()
	f := o.flows[ft]
	if f == nil {
		if len(o.slab) == 0 {
			o.slab = make([]Flow, 1024)
		}
		f, o.slab = &o.slab[0], o.slab[1:]
		f.FlightMinW = math.MaxUint64
		o.flows[ft] = f
	}
	if c.Point == tap.Egress {
		for i, s := range f.ingress {
			if s.key == uint64(p.IPID) {
				f.QDelay = c.At - s.at
				f.ingress = append(f.ingress[:0], f.ingress[i+1:]...)
				break
			}
		}
		return
	}
	f.ingress = append(f.ingress, stamp{uint64(p.IPID), c.At})
	f.Bytes += uint64(p.TotalLen)
	f.Pkts++
	switch {
	case p.CarriesData():
		if !f.data {
			f.data = true
			o.data = append(o.data, ft)
		}
		if p.Proto != packet.ProtoTCP {
			return
		}
		eack := p.ExpectedAck()
		if p.SeqExt < f.prevSeq {
			f.PktLoss++
			o.loss++
		} else {
			f.prevSeq = p.SeqExt
			f.eacks = append(f.eacks, stamp{eack, c.At})
		}
		f.highSeq = max(f.highSeq, eack)
		f.updateFlight()
	case p.IsACKOnly():
		d := o.flows[ft.Reverse()]
		if d == nil {
			return
		}
		ack, kept := p.AckExt, d.eacks[:0]
		for _, s := range d.eacks {
			if s.key == ack {
				d.RTT = c.At - s.at
			} else if s.key > ack {
				kept = append(kept, s)
			}
		}
		d.eacks = kept
		d.highAck = max(d.highAck, ack)
		d.updateFlight()
	}
}

func (f *Flow) updateFlight() {
	if f.highAck == 0 {
		return
	}
	f.Flight = 0
	if f.highSeq > f.highAck {
		f.Flight = f.highSeq - f.highAck
	}
	f.FlightMaxW = max(f.FlightMaxW, f.Flight)
	f.FlightMinW = min(f.FlightMinW, f.Flight)
}

// Flow returns one direction's truth; a Flow with no packets if unseen.
func (o *Oracle) Flow(ft packet.FiveTuple) Flow {
	if f := o.flows[ft]; f != nil {
		return *f
	}
	return Flow{FlightMinW: math.MaxUint64}
}

// DataFlows lists the flows that carried data, in order of their first.
func (o *Oracle) DataFlows() []packet.FiveTuple { return o.data }

// Loss is the total of every flow's PktLoss.
func (o *Oracle) Loss() uint64 { return o.loss }

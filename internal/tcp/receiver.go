package tcp

import (
	"repro/internal/packet"
	"repro/internal/simtime"
)

const (
	// delayedAckEvery makes the receiver acknowledge every second
	// in-order segment. Out-of-order arrivals are acked immediately.
	delayedAckEvery = 2
	// delayedAckTimeout bounds how long a lone segment may wait for a
	// companion before being acknowledged anyway (the Linux quick-ack
	// range). Without it, the final odd segment of a transfer would sit
	// unacknowledged until the sender's RTO.
	delayedAckTimeout = 40 * simtime.Millisecond
)

// advertisedWindow converts the free receive-buffer space into the
// scaled 16-bit window field. The simulated application consumes data
// instantly, so the free space is the whole configured buffer.
func (c *Conn) advertisedWindow() uint16 {
	w := c.cfg.RcvBufBytes >> WindowScale
	if w > 0xffff {
		w = 0xffff
	}
	if w == 0 {
		w = 1
	}
	return uint16(w)
}

// handleData processes an inbound data segment on the receiver side:
// advance rcvNxt for in-order data, buffer out-of-order ranges, and
// generate (possibly delayed) acknowledgments. Out-of-order arrivals
// are acknowledged immediately, producing the duplicate ACKs the sender
// and the P4 data plane both rely on to detect loss.
func (c *Conn) handleData(pkt *packet.Packet) {
	if c.role != roleReceiver {
		return
	}
	c.Stats.SegmentsRecv++
	if pkt.TSVal != 0 {
		c.tsRecent = pkt.TSVal
	}
	lo := pkt.SeqExt
	hi := lo + uint64(pkt.PayloadLen)

	switch {
	case hi <= c.rcvNxt:
		// Entirely duplicate data (sender retransmitted something we
		// already have): re-acknowledge immediately.
		c.sendAck()
	case lo <= c.rcvNxt:
		// In-order (possibly overlapping the left edge).
		delivered := hi - c.rcvNxt
		c.rcvNxt = hi
		c.Stats.BytesRecv += delivered
		c.absorbOOO()
		c.unackedSegs++
		if c.unackedSegs >= delayedAckEvery {
			c.sendAck()
		} else if !c.delackTimer.Armed() {
			// Delayed-ACK timer: a lone segment must not wait for a
			// companion longer than the timeout, or the sender's RTO
			// fires spuriously on the last odd segment of a transfer.
			// When the timer fires it acknowledges whatever is pending
			// — even segments that arrived after it was armed.
			c.delackTimer.Reset(delayedAckTimeout)
		}
	default:
		// Out of order: buffer and send an immediate duplicate ACK.
		c.Stats.OutOfOrderRecv++
		c.insertOOO(interval{lo, hi})
		c.lastOOO = interval{lo, hi}
		c.sendAck()
	}
}

// absorbOOO merges buffered out-of-order ranges that rcvNxt has reached.
func (c *Conn) absorbOOO() {
	for len(c.oooSegs) > 0 && c.oooSegs[0].lo <= c.rcvNxt {
		seg := c.oooSegs[0]
		if seg.hi > c.rcvNxt {
			c.Stats.BytesRecv += seg.hi - c.rcvNxt
			c.rcvNxt = seg.hi
		}
		c.oooSegs = c.oooSegs[1:]
	}
}

// insertOOO adds a byte range to the sorted, disjoint out-of-order list.
func (c *Conn) insertOOO(iv interval) {
	// Find insertion point.
	i := 0
	for i < len(c.oooSegs) && c.oooSegs[i].lo < iv.lo {
		i++
	}
	c.oooSegs = append(c.oooSegs, interval{})
	copy(c.oooSegs[i+1:], c.oooSegs[i:])
	c.oooSegs[i] = iv
	// Merge overlaps around i.
	merged := c.oooSegs[:0]
	for _, seg := range c.oooSegs {
		n := len(merged)
		if n > 0 && seg.lo <= merged[n-1].hi {
			if seg.hi > merged[n-1].hi {
				merged[n-1].hi = seg.hi
			}
		} else {
			merged = append(merged, seg)
		}
	}
	c.oooSegs = merged
}

// delackFire is the delayed-ACK timer callback: acknowledge whatever is
// pending, even segments that arrived after the timer was armed.
func (c *Conn) delackFire() {
	if c.unackedSegs > 0 {
		c.sendAck()
	}
}

// sendAck emits a pure acknowledgment carrying the advertised window
// and up to three SACK blocks describing buffered out-of-order data
// (RFC 2018) — what lets the sender repair large burst losses in a few
// round trips instead of one hole per RTT. ACKs come from the packet
// arena; the sending host releases them after processing.
//
// p4:hotpath
func (c *Conn) sendAck() {
	ack := packet.GetTCP(c.ft, c.sndNxt, c.rcvNxt, packet.FlagACK, 0)
	ack.Window = c.advertisedWindow()
	ack.TSEcr = c.tsRecent // echo the most recent timestamp (RFC 7323)
	// RFC 2018: report the most recently changed range first, then
	// rotate the remaining slots across the list so that, over a train
	// of duplicate ACKs, the sender learns every buffered range.
	if n := len(c.oooSegs); n > 0 {
		if c.lastOOO.hi > c.lastOOO.lo && c.lastOOO.hi > c.rcvNxt {
			ack.SackBlocks = append(ack.SackBlocks, packet.SackBlock{Lo: c.lastOOO.lo, Hi: c.lastOOO.hi})
		}
		for i := 0; i < n && len(ack.SackBlocks) < 3; i++ {
			seg := c.oooSegs[c.sackCursor%n]
			c.sackCursor++
			ack.SackBlocks = append(ack.SackBlocks, packet.SackBlock{Lo: seg.lo, Hi: seg.hi})
		}
	}
	c.unackedSegs = 0
	c.host.send(ack)
}

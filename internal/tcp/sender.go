package tcp

import (
	"repro/internal/packet"
	"repro/internal/simtime"
)

// effectiveWindow is min(cwnd, peer rwnd) in bytes.
func (c *Conn) effectiveWindow() int {
	w := int(c.cc.window())
	if c.rwnd < w {
		w = c.rwnd
	}
	return w
}

// available reports how many application bytes remain undispatched at
// sndNxt. After a timeout rolls sndNxt back, previously sent data counts
// as available again (go-back-N retransmission).
func (c *Conn) available() uint64 {
	if c.sndEnd == 0 || c.sndNxt >= c.sndEnd {
		return 0
	}
	return c.sndEnd - c.sndNxt
}

// trySend transmits as many new segments as the congestion window,
// receiver window, pacing rate and application supply allow.
func (c *Conn) trySend() {
	if c.state != stateEstablished || c.role != roleSender {
		return
	}
	now := c.host.engine.Now()
	for {
		avail := c.available()
		if avail == 0 {
			c.maybeFinish()
			return
		}
		inFlight := int(c.sndNxt - c.sndUna)
		if c.inRecovery {
			// RFC 6675-style pipe accounting: selectively-acknowledged
			// bytes are no longer in the network, so they do not count
			// against the window. Without this (or with RFC 5681 window
			// inflation) a long recovery would keep pumping new data
			// into an already-overflowing bottleneck queue.
			inFlight -= c.sackedBytes()
		}
		win := c.effectiveWindow()
		if inFlight+c.cfg.MSS > win {
			return // window closed; ACKs will reopen it
		}
		if c.cfg.PacingBps > 0 && c.nextSendAt > now {
			// Pacing gate closed: keep exactly one wake-up armed.
			if !c.paceTimer.Armed() {
				c.paceTimer.Reset(c.nextSendAt - now)
			}
			return
		}
		size := c.cfg.MSS
		if uint64(size) > avail {
			size = int(avail)
		}
		if c.inRecovery {
			if !c.prrAllow(size) {
				return
			}
			c.prrOut += size
		}
		c.sendSegment(c.sndNxt, size, false)
		c.sndNxt += uint64(size)
		if c.sndNxt > c.sndMax {
			c.sndMax = c.sndNxt
		}
		if c.cfg.PacingBps > 0 {
			wire := simtime.Time(float64((size+headerOverhead)*8) / c.cfg.PacingBps * 1e9)
			base := c.nextSendAt
			if base < now {
				base = now
			}
			c.nextSendAt = base + wire
		}
	}
}

// headerOverhead approximates per-segment framing bytes for pacing-rate
// computation (Ethernet + IPv4 + TCP headers).
const headerOverhead = packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.TCPHeaderLen

// sendSegment emits one data segment. Retransmissions are flagged so
// that RTT sampling obeys Karn's algorithm. Segments come from the
// packet arena: the receiving host releases them after demux.
//
// p4:hotpath
func (c *Conn) sendSegment(seq uint64, size int, isRetransmit bool) {
	pkt := packet.GetTCP(c.ft, seq, c.rcvNxt, packet.FlagACK|packet.FlagPSH, size)
	pkt.Window = c.advertisedWindow()
	if !isRetransmit {
		// TCP timestamps (RFC 7323): retransmissions carry no fresh
		// stamp so their echoes cannot produce bogus RTT samples.
		pkt.TSVal = int64(c.host.engine.Now())
	}
	c.host.send(pkt)

	c.Stats.SegmentsSent++
	c.Stats.BytesSent += uint64(size)
	if isRetransmit {
		c.Stats.Retransmissions++
	}
	// RFC 6298 (5.1): start the timer only when it is not already
	// running. Restarting it on every transmission would let a steady
	// stream of sends push the expiry forever into the future, so a
	// lost retransmission would never time out.
	c.ensureRTO()
}

// maybeFinish sends a FIN once all data is dispatched and acknowledged.
func (c *Conn) maybeFinish() {
	if c.role != roleSender || c.finSent || c.state != stateEstablished {
		return
	}
	if c.available() != 0 || c.sndUna != c.sndNxt {
		return
	}
	fin := packet.NewTCP(c.ft, c.sndNxt, c.rcvNxt, packet.FlagFIN|packet.FlagACK, 0)
	fin.Window = c.advertisedWindow()
	fin.TSVal = int64(c.host.engine.Now())
	c.finSent = true
	c.sndNxt++
	c.sndMax = c.sndNxt
	c.host.send(fin)
	c.armRTO()
}

// ---------------------------------------------------------------------
// ACK processing (NewReno loss recovery, RFC 6582)
// ---------------------------------------------------------------------

func (c *Conn) handleAck(pkt *packet.Packet) {
	ack := pkt.AckExt
	c.rwnd = int(pkt.Window) << WindowScale
	c.Stats.AcksReceived++
	now := c.host.engine.Now()
	sackDelta := 0
	if len(pkt.SackBlocks) > 0 {
		before := 0
		if c.inRecovery {
			before = c.sackedBytes()
		}
		for _, b := range pkt.SackBlocks {
			c.mergeSack(interval{b.Lo, b.Hi})
		}
		if c.inRecovery {
			if d := c.sackedBytes() - before; d > 0 {
				sackDelta = d
			}
		}
	}

	if ack > c.sndUna {
		acked := ack - c.sndUna
		payloadAcked := acked
		if c.finSent && ack == c.sndNxt {
			payloadAcked-- // the FIN consumed one sequence number
		}
		c.Stats.BytesAcked += payloadAcked
		c.sndUna = ack
		c.dupAcks = 0
		for len(c.sacked) > 0 && c.sacked[0].hi <= c.sndUna {
			c.sacked = c.sacked[1:]
		}

		// RTT sample from the timestamp echo (RFC 7323): one sample per
		// ACK. Retransmissions carry no timestamp (Karn), and samples
		// during loss recovery are suppressed — a partial ACK can echo
		// a stamp unrelated to the path delay.
		if pkt.TSEcr != 0 && !c.inRecovery {
			rtt := now - simtime.Time(pkt.TSEcr)
			if rtt > 0 {
				c.rto.sample(rtt)
				if c.minRTT == 0 || rtt < c.minRTT {
					c.minRTT = rtt
				}
				// HyStart-style delay-based exit: a clear RTT rise
				// during slow start means the bottleneck queue is
				// already building — stop doubling before the
				// overshoot becomes a loss storm.
				if c.cc.inSlowStart() {
					threshold := c.minRTT + maxTime(4*simtime.Millisecond, c.minRTT/8)
					if rtt > threshold {
						c.cc.exitSlowStart()
					}
				}
			}
		}

		if c.inRecovery {
			c.prrDelivered += int(acked) + sackDelta
			if ack >= c.recover {
				// Full acknowledgment: leave fast recovery.
				c.exitRecovery()
			} else {
				// Partial ACK: the byte at the new sndUna is another
				// hole. Retransmit it immediately unless the
				// scoreboard says it is already delivered, then keep
				// repairing further holes.
				if sacked, _ := c.isSacked(c.sndUna); !sacked {
					c.retransmitHead()
				}
				c.retransmitHoles(2)
			}
		} else {
			c.cc.onAck(int(acked), now)
		}

		if c.sndUna == c.sndNxt {
			c.disarmRTO()
			if c.finSent {
				c.completeSender()
				return
			}
		} else {
			c.armRTO()
		}
		c.trySend()
		c.maybeFinish()
		return
	}

	// Duplicate ACK (ack == sndUna and there is outstanding data).
	// Only duplicates carrying SACK information count toward loss
	// detection: a genuine hole means the receiver is buffering
	// out-of-order data and reports it, whereas the bare duplicate
	// ACKs elicited by spurious retransmissions carry no blocks and
	// must not fabricate congestion events.
	if ack == c.sndUna && c.sndNxt > c.sndUna && len(pkt.SackBlocks) > 0 {
		c.dupAcks++
		if c.inRecovery {
			// Each duplicate ACK signals another delivered packet:
			// credit the PRR budget and spend it repairing the next
			// SACK hole.
			c.prrDelivered += sackDelta
			if sackDelta == 0 {
				c.prrDelivered += c.cfg.MSS
			}
			c.retransmitHoles(1)
			c.trySend()
			return
		}
		if c.dupAcks == 3 {
			c.enterFastRecovery()
		}
	}
}

// mergeSack folds one SACK block into the scoreboard, keeping the list
// sorted and disjoint.
func (c *Conn) mergeSack(iv interval) {
	if iv.hi <= iv.lo || iv.hi <= c.sndUna {
		return
	}
	if iv.lo < c.sndUna {
		iv.lo = c.sndUna
	}
	i := 0
	for i < len(c.sacked) && c.sacked[i].lo < iv.lo {
		i++
	}
	c.sacked = append(c.sacked, interval{})
	copy(c.sacked[i+1:], c.sacked[i:])
	c.sacked[i] = iv
	merged := c.sacked[:0]
	for _, seg := range c.sacked {
		n := len(merged)
		if n > 0 && seg.lo <= merged[n-1].hi {
			if seg.hi > merged[n-1].hi {
				merged[n-1].hi = seg.hi
			}
		} else {
			merged = append(merged, seg)
		}
	}
	c.sacked = merged
}

// prrAllow reports whether the PRR budget admits another transmission
// of size bytes during recovery: cumulative output is proportional to
// cumulative delivery, scaled by the post-loss window over the flight
// at loss (RFC 6937's sndcnt), with one MSS of slack so the head
// retransmission always goes out.
func (c *Conn) prrAllow(size int) bool {
	if !c.inRecovery {
		return true
	}
	rf := c.recoverFlight
	if rf < 1 {
		rf = 1
	}
	target := int(float64(c.prrDelivered) * c.cc.window() / float64(rf))
	return c.prrOut+size <= target+c.cfg.MSS
}

// sackedBytes sums the scoreboard ranges above sndUna.
func (c *Conn) sackedBytes() int {
	var sum uint64
	for _, seg := range c.sacked {
		lo := seg.lo
		if lo < c.sndUna {
			lo = c.sndUna
		}
		if seg.hi > lo {
			sum += seg.hi - lo
		}
	}
	return int(sum)
}

// isSacked reports whether the byte at seq is covered by the scoreboard.
func (c *Conn) isSacked(seq uint64) (bool, uint64) {
	for _, seg := range c.sacked {
		if seq >= seg.lo && seq < seg.hi {
			return true, seg.hi
		}
		if seg.lo > seq {
			break
		}
	}
	return false, 0
}

// retransmitHoles resends up to n MSS-sized unsacked segments between
// the recovery scan pointer and the recovery point — the SACK-driven
// loss repair that lets a burst of drops heal in a couple of RTTs.
func (c *Conn) retransmitHoles(n int) {
	if !c.inRecovery {
		return
	}
	scan := c.holeScan
	if scan < c.sndUna {
		scan = c.sndUna
	}
	// A "round" is one smoothed RTT. Each round gets a fresh
	// retransmission budget, and if the previous scan pass completed
	// without the cumulative ACK reaching the recovery point, the
	// retransmissions themselves were lost (tail drop on the same
	// saturated queue) — rescan from the head.
	now := c.host.engine.Now()
	srtt := c.rto.srtt
	if srtt <= 0 {
		srtt = 100 * simtime.Millisecond
	}
	if now-c.holeRound >= srtt {
		c.holeRound = now
		c.roundBytes = 0
		if scan >= c.recover && c.sndUna < c.recover {
			scan = c.sndUna
		}
	}
	// One congestion window of retransmissions per rescan round: if
	// the scoreboard is incomplete, blasting the whole range again at
	// line rate would mostly duplicate delivered data.
	if c.roundBytes >= int(c.cc.window()) {
		c.holeScan = scan
		return
	}
	for n > 0 && scan < c.recover {
		if sacked, hi := c.isSacked(scan); sacked {
			scan = hi
			continue
		}
		size := c.cfg.MSS
		if uint64(size) > c.recover-scan {
			size = int(c.recover - scan)
		}
		// Clip the segment at the next sacked range so we never resend
		// delivered bytes.
		for _, seg := range c.sacked {
			if seg.lo > scan && seg.lo < scan+uint64(size) {
				size = int(seg.lo - scan)
				break
			}
		}
		if size <= 0 {
			break
		}
		if scan == c.sndUna && c.finSent && c.sndUna == c.sndNxt-1 {
			break // only the FIN remains; retransmitHead handles it
		}
		if !c.prrAllow(size) {
			break
		}
		c.prrOut += size
		c.sendSegment(scan, size, true)
		c.roundBytes += size
		scan += uint64(size)
		n--
		if c.roundBytes >= int(c.cc.window()) {
			break
		}
	}
	c.holeScan = scan
}

// exitRecovery leaves fast recovery and clears the SACK scoreboard.
func (c *Conn) exitRecovery() {
	c.inRecovery = false
	c.sacked = nil
	c.holeScan = 0
}

func (c *Conn) enterFastRecovery() {
	c.inRecovery = true
	c.recover = c.sndNxt
	c.Stats.FastRecoveries++
	c.holeRound = c.host.engine.Now()
	c.roundBytes = 0
	c.recoverFlight = int(c.sndNxt - c.sndUna)
	c.prrDelivered = 0
	c.prrOut = 0
	// One multiplicative decrease per window of data: chained
	// recoveries within the same window belong to one congestion event.
	if !c.hasCut || c.sndUna > c.cutSeq {
		c.cc.onLoss()
		c.cutSeq = c.sndNxt
		c.hasCut = true
	}
	c.retransmitHead()
	c.holeScan = c.sndUna + uint64(c.cfg.MSS)
}

// retransmitHead resends the segment starting at sndUna.
func (c *Conn) retransmitHead() {
	size := c.cfg.MSS
	outstanding := c.sndNxt - c.sndUna
	if uint64(size) > outstanding {
		size = int(outstanding)
	}
	if size <= 0 {
		return
	}
	// A FIN occupying the last sequence number retransmits as FIN.
	if c.finSent && c.sndUna == c.sndNxt-1 {
		fin := packet.NewTCP(c.ft, c.sndUna, c.rcvNxt, packet.FlagFIN|packet.FlagACK, 0)
		fin.Window = c.advertisedWindow()
		c.host.send(fin)
		c.Stats.Retransmissions++
	} else {
		c.sendSegment(c.sndUna, size, true)
	}
	c.armRTO()
}

func (c *Conn) completeSender() {
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	c.Stats.EndTime = c.host.engine.Now()
	c.disarmRTO()
	c.paceTimer.Stop()
	if c.OnComplete != nil {
		c.OnComplete(c)
	}
}

// ---------------------------------------------------------------------
// Retransmission timer
// ---------------------------------------------------------------------

func (c *Conn) armRTO() {
	c.rtoTimer.Reset(c.rto.timeout())
}

// ensureRTO arms the timer only if it is not already running.
func (c *Conn) ensureRTO() {
	if !c.rtoTimer.Armed() {
		c.armRTO()
	}
}

func (c *Conn) disarmRTO() {
	c.rtoTimer.Stop()
}

func (c *Conn) onTimeout() {
	if c.state == stateClosed {
		return
	}
	c.Stats.Timeouts++
	if c.state == stateSynSent {
		// Re-send the lost SYN.
		syn := packet.NewTCP(c.ft, 0, 0, packet.FlagSYN, 0)
		syn.Window = c.advertisedWindow()
		c.host.send(syn)
		c.rto.backoff()
		c.armRTO()
		return
	}
	if c.sndUna == c.sndNxt {
		return // nothing outstanding
	}
	// RTO: collapse to one segment and go back to sndUna (RFC 5681).
	c.inRecovery = false
	c.sacked = nil
	c.holeScan = 0
	c.dupAcks = 0
	c.cc.onTimeout()
	if c.finSent && c.sndMax == c.sndUna+1 {
		// Only the FIN is outstanding; resend it.
		fin := packet.NewTCP(c.ft, c.sndUna, c.rcvNxt, packet.FlagFIN|packet.FlagACK, 0)
		fin.Window = c.advertisedWindow()
		c.host.send(fin)
		c.Stats.Retransmissions++
	} else {
		// Go-back-N: retransmit the head segment now; trySend resends
		// the rest as the window reopens.
		c.finSent = false
		size := minInt(c.cfg.MSS, int(c.sndMax-c.sndUna))
		c.sendSegment(c.sndUna, size, true)
		c.sndNxt = c.sndUna + uint64(size)
	}
	c.rto.backoff()
	c.armRTO()
	c.trySend()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxTime(a, b simtime.Time) simtime.Time {
	if a > b {
		return a
	}
	return b
}

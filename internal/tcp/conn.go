package tcp

import (
	"repro/internal/packet"
	"repro/internal/simtime"
)

// Config carries the per-connection knobs the experiments turn.
type Config struct {
	// MSS is the maximum segment payload in bytes. Defaults to 8960,
	// the payload of a 9000-byte jumbo frame (standard for Science DMZ
	// DTNs).
	MSS int
	// RcvBufBytes caps the receiver's advertised window. The Fig. 12
	// DTN2 test shrinks this to make the receiver the bottleneck.
	// Defaults to 1 GiB (effectively unlimited).
	RcvBufBytes int
	// PacingBps, when positive, caps the sender's transmission rate.
	// The Fig. 12 DTN3 test sets 500 Mbps to make the sender the
	// bottleneck (an application-limited source).
	PacingBps float64
}

func (c Config) withDefaults() Config {
	if c.MSS <= 0 {
		c.MSS = 8960
	}
	if c.RcvBufBytes <= 0 {
		c.RcvBufBytes = 1 << 30
	}
	return c
}

type role int

const (
	roleSender role = iota
	roleReceiver
)

type connState int

const (
	stateSynSent connState = iota
	stateSynReceived
	stateEstablished
	stateClosed
)

// Stats aggregates what a connection did, feeding the terminated-flow
// reports of §3.3.2.
type Stats struct {
	StartTime       simtime.Time
	EndTime         simtime.Time
	SegmentsSent    uint64
	BytesSent       uint64 // payload bytes, including retransmissions
	Retransmissions uint64
	Timeouts        uint64
	FastRecoveries  uint64
	AcksReceived    uint64
	BytesAcked      uint64
	SegmentsRecv    uint64
	BytesRecv       uint64 // in-order payload bytes delivered
	OutOfOrderRecv  uint64
}

// Conn is one endpoint of a simulated TCP connection. A sender endpoint
// transmits application data; a receiver endpoint acknowledges it.
type Conn struct {
	host *Host
	ft   packet.FiveTuple // our outbound tuple (src = this host)
	cfg  Config
	role role

	state connState
	Stats Stats

	// ---- sender state ----
	sndUna  uint64 // lowest unacknowledged sequence
	sndNxt  uint64 // next sequence to transmit
	sndMax  uint64 // highest sequence ever transmitted
	rwnd    int    // peer's advertised window, bytes
	cc      *cubic
	rto     rtoEstimator
	dupAcks int
	// fast-recovery (NewReno + SACK) state
	inRecovery bool
	recover    uint64
	// sacked holds the peer's selectively-acknowledged ranges; holeScan
	// tracks how far hole retransmission has progressed this recovery
	// round, and holeRound stamps when the scan last wrapped so lost
	// retransmissions are retried once per SRTT.
	sacked    []interval
	holeScan  uint64
	holeRound simtime.Time
	// roundBytes caps how much one rescan round may retransmit (one
	// congestion window), so an incomplete scoreboard cannot trigger
	// line-rate duplicate retransmission.
	roundBytes int
	// Proportional rate reduction (RFC 6937-style): during recovery,
	// transmissions are budgeted against delivered data so the sender
	// cannot blast at NIC rate into an already-overflowing bottleneck.
	prrDelivered  int
	prrOut        int
	recoverFlight int
	// cutSeq rate-limits multiplicative decreases to one per window of
	// data (RFC 5681's congestion-event rule): a single overload
	// episode spawns several back-to-back recoveries — losses keep
	// occurring in data sent during the previous recovery — but they
	// are one congestion event, and compounding the cut would collapse
	// the window far below what one event justifies. A new cut is
	// allowed only once everything outstanding at the previous cut has
	// been acknowledged.
	cutSeq uint64
	hasCut bool
	// rtoTimer is the retransmission timer: one resettable simtime.Timer
	// per connection, re-armed in place (no per-arm closure).
	rtoTimer *simtime.Timer
	// pacing: at most one wake-up is armed at any time — re-arming on
	// every gated trySend call would grow an ever-larger population of
	// stale wake events.
	nextSendAt simtime.Time
	paceTimer  *simtime.Timer
	// minRTT backs the HyStart-style delay-based slow-start exit.
	minRTT simtime.Time
	// application supply: data occupies sequence numbers [1, sndEnd).
	// sndEnd == 0 means the application has not started; maxUint64
	// means a timed transfer still producing data.
	sndEnd       uint64
	finSent      bool
	pendingStart func()

	// ---- receiver state ----
	rcvNxt      uint64
	oooSegs     []interval // out-of-order byte ranges, sorted, disjoint
	unackedSegs int
	// lastOOO is the most recently created/extended out-of-order range
	// (reported first, per RFC 2018); sackCursor rotates the remaining
	// report slots across the whole list so the sender's scoreboard
	// eventually learns every hole even when losses fragment the
	// sequence space into many ranges.
	lastOOO    interval
	sackCursor int
	// tsRecent is the latest timestamp received, echoed back in ACKs
	// (RFC 7323).
	tsRecent int64
	// delackTimer bounds how long a lone segment waits for a companion.
	delackTimer *simtime.Timer

	// OnComplete fires on the sender when every byte of a sized
	// transfer has been acknowledged (and on the receiver when FIN is
	// received).
	OnComplete func(*Conn)

	// SRTT returns smoothed RTT for inspection by tests and the
	// pScheduler baseline tools.
}

type interval struct{ lo, hi uint64 } // [lo, hi)

func newConn(h *Host, ft packet.FiveTuple, cfg Config, r role) *Conn {
	c := &Conn{
		host:  h,
		ft:    ft,
		cfg:   cfg,
		role:  r,
		rwnd:  1 << 30,
		state: stateSynSent,
	}
	c.rto.init()
	c.cc = newCubic(cfg.MSS)
	if r == roleReceiver {
		c.state = stateSynReceived
	}
	c.rtoTimer = simtime.NewTimer(h.engine, c.onTimeout)
	c.paceTimer = simtime.NewTimer(h.engine, c.trySend)
	c.delackTimer = simtime.NewTimer(h.engine, c.delackFire)
	c.Stats.StartTime = h.engine.Now()
	return c
}

// ---------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------

func (c *Conn) sendSYN() {
	syn := packet.NewTCP(c.ft, 0, 0, packet.FlagSYN, 0)
	syn.Window = c.advertisedWindow()
	c.sndUna, c.sndNxt, c.sndMax = 0, 1, 1
	c.host.send(syn)
	c.armRTO()
}

func (c *Conn) sendSYNACK() {
	sa := packet.NewTCP(c.ft, 0, c.rcvNxt, packet.FlagSYN|packet.FlagACK, 0)
	sa.Window = c.advertisedWindow()
	c.host.send(sa)
}

// StartTransfer begins sending exactly totalBytes of application data.
// Safe to call immediately after Dial; transmission starts once the
// handshake completes.
func (c *Conn) StartTransfer(totalBytes uint64) {
	start := func() {
		c.sndEnd = 1 + totalBytes
		c.trySend()
	}
	if c.state == stateEstablished {
		start()
	} else {
		c.pendingStart = start
	}
}

// StartTimed sends continuously until the given absolute virtual time,
// like a duration-limited iPerf3 run.
func (c *Conn) StartTimed(until simtime.Time) {
	start := func() {
		c.sndEnd = ^uint64(0)
		c.trySend()
		c.host.engine.At(until, func() {
			if c.state != stateEstablished || c.finSent {
				return
			}
			// Stop producing new data; everything already transmitted
			// at least once is still delivered reliably.
			c.sndEnd = c.sndMax
			c.maybeFinish()
		})
	}
	if c.state == stateEstablished {
		start()
	} else {
		c.pendingStart = start
	}
}

// ---------------------------------------------------------------------
// Packet handling
// ---------------------------------------------------------------------

func (c *Conn) handle(pkt *packet.Packet) {
	switch {
	case pkt.Flags&packet.FlagSYN != 0 && pkt.Flags&packet.FlagACK == 0:
		// Receiver side: SYN consumes one sequence number.
		c.rcvNxt = pkt.SeqExt + 1
		c.sendSYNACK()
		c.sndUna, c.sndNxt, c.sndMax = 0, 1, 1
	case pkt.Flags&packet.FlagSYN != 0 && pkt.Flags&packet.FlagACK != 0:
		// Sender side: handshake complete.
		if c.state == stateSynSent {
			c.state = stateEstablished
			c.sndUna = 1
			c.rcvNxt = pkt.SeqExt + 1
			c.rwnd = int(pkt.Window) << WindowScale
			c.disarmRTO()
			c.sendAck() // completes the 3-way handshake
			if c.pendingStart != nil {
				start := c.pendingStart
				c.pendingStart = nil
				start()
			}
		}
	case pkt.CarriesData():
		c.handleData(pkt)
	case pkt.Flags&packet.FlagFIN != 0:
		c.handleFIN(pkt)
	case pkt.Flags&packet.FlagACK != 0:
		if c.state == stateSynReceived {
			c.state = stateEstablished
		}
		if c.role == roleSender {
			c.handleAck(pkt)
		}
	}
}

func (c *Conn) handleFIN(pkt *packet.Packet) {
	if c.role != roleReceiver {
		return
	}
	if pkt.TSVal != 0 {
		c.tsRecent = pkt.TSVal
	}
	if pkt.SeqExt == c.rcvNxt {
		c.rcvNxt++
		c.sendAck()
		c.state = stateClosed
		c.Stats.EndTime = c.host.engine.Now()
		if c.OnComplete != nil {
			c.OnComplete(c)
		}
	} else {
		c.sendAck()
	}
}

// Package dataplane reproduces the paper's P4 measurement pipeline in
// pure Go: per-flow registers (bytes, packets, loss, RTT, flight,
// queue delay), a count-min sketch, and microburst/long-flow
// detection, all driven by TAP copies at line rate with zero
// allocations per packet. DataPlane is one pipe; Pipes drives one or
// more of them — flows sharded by canonical flow-key hash, Tofino's
// multi-pipe model — and is the surface the control plane extracts
// from: each register declares in New how its cells merge across
// pipes (see DESIGN.md §5.4).
package dataplane

import (
	"runtime"
	"sort"

	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/sketch"
	"repro/internal/tap"
)

// Config sizes the pipeline's state, mirroring the resource choices a
// P4 program makes at compile time.
type Config struct {
	// FlowTableSize is the number of cells in each per-flow register
	// array. The paper's program tracks 2048 active flows (§3.3.2).
	FlowTableSize int
	// EACKTableSize is the number of cells in the expected-ACK
	// signature/timestamp registers of Algorithm 1.
	EACKTableSize int
	// CMSWidth and CMSDepth set the count-min sketch geometry used for
	// long-flow detection.
	CMSWidth, CMSDepth int
	// LongFlowBytes is the byte volume at which a flow is declared
	// "long" and announced to the control plane.
	LongFlowBytes uint64
	// BurstFloor is the absolute queuing delay below which no
	// excursion counts as a microburst (see burstFactor).
	BurstFloor simtime.Time
	// SketchEpsilon is the lean tier's ε error target: a sketch
	// estimate overcounts by more than ε·N with probability at most
	// δ = 0.01 (DESIGN.md §5.8). Zero takes the sketch package default
	// (ε = 1e-3).
	SketchEpsilon float64
	// DupFilterInserts sizes the lean tier's duplicate filter for the
	// expected number of (flow, seq) pairs at a 1% false-positive rate.
	// Nothing clears the filter, so it fills for the pipe's life, past
	// this design point on a long run. Zero takes the sketch package
	// default.
	DupFilterInserts int
}

// WithDefaults fills unset fields with the paper-faithful defaults.
func (c Config) WithDefaults() Config {
	if c.FlowTableSize <= 0 {
		c.FlowTableSize = 2048
	}
	if c.EACKTableSize <= 0 {
		c.EACKTableSize = 1 << 16
	}
	if c.CMSWidth <= 0 {
		c.CMSWidth = 8192
	}
	if c.CMSDepth <= 0 {
		c.CMSDepth = 4
	}
	if c.LongFlowBytes == 0 {
		c.LongFlowBytes = 1 << 20 // 1 MB
	}
	if c.BurstFloor == 0 {
		c.BurstFloor = simtime.Millisecond
	}
	return c
}

// qSigTableSize is the number of cells in the ingress-timestamp table
// that pairs the two TAP copies of a packet (§4.2).
const qSigTableSize = 1 << 16

// Microburst detection (§3.3.3). A microburst is a *sudden* queue
// excursion, so the detector compares each packet's queuing delay
// against an exponentially-weighted baseline: a burst starts when the
// delay exceeds burstFactor x baseline AND the absolute
// Config.BurstFloor; it ends when the delay falls back below
// burstEndFactor x baseline (or under half the floor). The adaptive
// baseline keeps slow phenomena — CUBIC's standing queue, gradual
// ramps — from registering as bursts. burstBaselineTau is the
// baseline's adaptation time constant: it adapts by elapsed time, not
// by packet count, because a back-to-back packet train ramps the queue
// within microseconds and a per-packet average would chase the ramp and
// never see it as sudden.
const (
	burstFactor      = 4
	burstEndFactor   = 1.5
	burstBaselineTau = 50 * simtime.Millisecond
)

// LongFlowEvent is the digest the data plane sends when a flow crosses
// the long-flow threshold: "the ID of the flow, its source and
// destination IP, and its reversed ID" (§4).
type LongFlowEvent struct {
	// ID is the flow's hash identifier; RevID identifies the reverse
	// direction (the paper announces both so the control plane can join
	// RTT samples stored under the ACK flow's ID).
	ID    FlowID
	RevID FlowID
	// Tuple is the announced flow's 5-tuple.
	Tuple packet.FiveTuple
	// At is the simulation time of the announcement.
	At simtime.Time
	// Bytes is the sketch's byte estimate when the threshold tripped.
	Bytes uint64
	// Shard is the pipe that observed the flow (see Pipes).
	Shard int
}

// MicroburstEvent reports one detected microburst with nanosecond
// granularity (§3.3.3): its start time, duration, peak queuing delay
// and how many packets rode the burst.
type MicroburstEvent struct {
	// Start and Duration bound the burst in simulation time.
	Start    simtime.Time
	Duration simtime.Time
	// PeakDelay is the largest queuing delay observed inside the burst.
	PeakDelay simtime.Time
	// Packets counts the packets that rode the burst.
	Packets int
	// Shard is the pipe whose egress queue saw the burst (see Pipes).
	Shard int
}

// Stats counts pipeline-internal events — once, here: tests, the
// ablation benchmarks and the p4_dataplane_*_total series all read
// these fields (RegisterObs).
type Stats struct {
	IngressCopies  uint64
	EgressCopies   uint64
	RTTSamples     uint64
	EACKEvictions  uint64 // eACK cells overwritten before being matched
	QSigMismatches uint64 // egress copies whose ingress stamp was evicted
	SlotCollisions uint64 // distinct flows aliasing one register cell
	Microbursts    uint64
	// SkippedPackets is always 0: nothing filters packets. The
	// benchmark's skipped_zero check still reads it; the field goes
	// with that check in the next change to the benchmark.
	SkippedPackets uint64
	AliasedPackets uint64 // packets the admission gate routed to the sketch tier
	Evictions      uint64 // flow-table cells evicted by the aging sweep
}

// add accumulates another pipe's counters (Pipes.StatsSnapshot).
func (s *Stats) add(o Stats) {
	s.IngressCopies += o.IngressCopies
	s.EgressCopies += o.EgressCopies
	s.RTTSamples += o.RTTSamples
	s.EACKEvictions += o.EACKEvictions
	s.QSigMismatches += o.QSigMismatches
	s.SlotCollisions += o.SlotCollisions
	s.Microbursts += o.Microbursts
	s.SkippedPackets += o.SkippedPackets
	s.AliasedPackets += o.AliasedPackets
	s.Evictions += o.Evictions
}

// flightNoSample marks a flight-size window with no observations yet.
const flightNoSample = ^uint64(0)

// DataPlane is the P4 pipeline model. It implements tap.Monitor: every
// TAP copy flows through ProcessCopy exactly as mirrored packets flow
// through the switch's programmable parser and match-action stages.
type DataPlane struct {
	cfg Config

	// Per-flow register arrays, indexed by hash(5-tuple) % FlowTableSize.
	bytesReg   *Register // cumulative IPv4 total-length bytes
	pktsReg    *Register // cumulative packets
	prevSeqReg *Register // Algorithm 1: previous sequence number
	pktLossReg *Register // Algorithm 1: retransmission counter
	rttReg     *Register // Algorithm 1: latest RTT (ns), indexed by ACK-flow ID
	qdelayReg  *Register // latest per-flow queuing delay (ns)
	highSeqReg *Register // highest seq+payload seen (flight-size numerator)
	highAckReg *Register // highest cumulative ACK seen for the flow
	flightReg  *Register // current flight estimate (bytes)
	flightMaxW *Register // per-window flight maximum
	flightMinW *Register // per-window flight minimum (flightNoSample = none)
	lastArrReg *Register // last data-packet arrival (ns) for IAT
	maxIATReg  *Register // per-window maximum inter-arrival time (ns)
	firstSeen  *Register
	lastSeen   *Register
	finSeenReg *Register // 1 once a FIN was observed on the flow
	announced  *Register // 1 once the long-flow digest was emitted
	ownerLo    *Register // low 32 bits of owning flow ID, admission witness
	rttHist    *Register // per-flow RTT log₂ histogram, RTTHistBuckets cells per flow

	// ownerKeys is the admission gate's exact side table: the full
	// 13-byte key of each cell's owner, disambiguating the rare CRC32
	// collision the 32-bit ownerLo witness cannot (see admitCell).
	ownerKeys []FlowKey

	// lean is the sketch tier: every packet the admission gate turns
	// away, and every evicted cell's folded history, lands here with
	// (ε, δ)-bounded counters (DESIGN.md §5.8).
	lean *sketch.Lean

	// tableN caches FlowTableSize for the packet path's cell-index
	// reduction (ownerKeys is a plain slice, so unlike Register ops the
	// index must be reduced before use).
	tableN uint32

	// Algorithm 1 expected-ACK table.
	eackSig *Register
	eackTS  *Register

	// Ingress-timestamp table for queuing-delay pairing.
	qSig *Register
	qTS  *Register

	cms *CMS

	// Microburst detector state (per monitored queue; the paper taps
	// one core-switch port).
	inBurst    bool
	burstStart simtime.Time
	burstPeak  simtime.Time
	burstPkts  int
	qBaseline  float64 // time-weighted EWMA of queuing delay, ns
	qBaseTs    simtime.Time
	qBaseInit  bool
	lastQDelay simtime.Time

	// OnLongFlow and OnMicroburst deliver data-plane digests to the
	// control plane.
	OnLongFlow   func(LongFlowEvent)
	OnMicroburst func(MicroburstEvent)

	// regs holds every register instance in declaration order (a
	// register's slot indexes it, identically on every shard), the
	// first perFlow of them indexed by flow-table cell; registry indexes
	// the same instances by P4 name for Pipes.ReadRegister.
	regs     []*Register
	perFlow  int
	registry map[string]*Register

	// obs is the optional sample histograms (RegisterObs); nil keeps
	// the pipeline uninstrumented at the cost of one branch per sample.
	obs *dpObs

	// one is the front ProcessCopy parses a lone copy into: capacity
	// one, owned by the pipe, so the per-packet path allocates nothing.
	one Front

	Stats Stats
}

// New builds a pipeline with the given configuration.
func New(cfg Config) *DataPlane {
	cfg = cfg.WithDefaults()
	n := cfg.FlowTableSize
	d := &DataPlane{
		cfg: cfg,
		// Widths mirror the P4 program and the cells enforce them:
		// Tofino's clock (and therefore every timestamp and timestamp
		// difference) is 48-bit, flag registers are single bits, the
		// queue signature packs a 32-bit flow ID over a 16-bit IP ID, and
		// the paired 32-bit counters present as full 64-bit cells.
		bytesReg:   NewRegister("flow_bytes", n, 64),
		pktsReg:    NewRegister("flow_pkts", n, 64),
		prevSeqReg: NewRegister("prev_seq", n, 64),
		pktLossReg: NewRegister("pkt_loss", n, 64),
		rttReg:     NewRegister("rtt", n, 48),
		qdelayReg:  NewRegister("qdelay", n, 48),
		highSeqReg: NewRegister("high_seq", n, 64),
		highAckReg: NewRegister("high_ack", n, 64),
		flightReg:  NewRegister("flight", n, 64),
		flightMaxW: NewRegister("flight_max_w", n, 64),
		flightMinW: NewRegister("flight_min_w", n, 64),
		lastArrReg: NewRegister("last_arrival", n, 48),
		maxIATReg:  NewRegister("max_iat_w", n, 48),
		firstSeen:  NewRegister("first_seen", n, 48),
		lastSeen:   NewRegister("last_seen", n, 48),
		finSeenReg: NewRegister("fin_seen", n, 1),
		announced:  NewRegister("announced", n, 1),
		ownerLo:    NewRegister("owner_lo", n, 32),
		rttHist:    NewRegister("rtt_hist", n*RTTHistBuckets, 32),
		ownerKeys:  make([]FlowKey, n),
		tableN:     uint32(n),
		one:        *NewFront(1),
		lean: sketch.NewLean(sketch.Config{
			Epsilon:            cfg.SketchEpsilon,
			DupExpectedInserts: cfg.DupFilterInserts,
			Cells:              n,
		}),
		eackSig: NewRegister("eack_sig", cfg.EACKTableSize, 64),
		eackTS:  NewRegister("eack_ts", cfg.EACKTableSize, 48),
		qSig:    NewRegister("qsig", qSigTableSize, 48),
		qTS:     NewRegister("qts", qSigTableSize, 48),
		cms:     NewCMS(cfg.CMSWidth, cfg.CMSDepth),
	}
	d.registry = make(map[string]*Register)
	d.declare(mergeSum, d.bytesReg, d.pktsReg, d.pktLossReg, d.flightReg, d.rttHist)
	d.declare(mergeFirst, d.firstSeen)
	d.declare(mergeMin, d.flightMinW)
	d.declare(mergeMax, d.prevSeqReg, d.rttReg, d.qdelayReg, d.highSeqReg, d.highAckReg,
		d.flightMaxW, d.lastArrReg, d.maxIATReg, d.lastSeen, d.finSeenReg, d.announced, d.ownerLo)
	// The port-level signature tables go last: every register before
	// them is per-flow state (FlowTableMemoryBytes).
	d.perFlow = len(d.regs)
	d.declare(mergeMax, d.eackSig, d.eackTS, d.qSig, d.qTS)
	for i := 0; i < n; i++ {
		d.flightMinW.Write(uint32(i), flightNoSample)
	}
	return d
}

// declare enters registers into the pipeline's register file under
// one cross-pipe merge rule: the single place a register's name, slot
// and rule are bound.
func (d *DataPlane) declare(rule mergeRule, regs ...*Register) {
	for _, r := range regs {
		r.merge, r.slot = rule, len(d.regs)
		d.regs = append(d.regs, r)
		d.registry[r.Name()] = r
	}
}

// Config returns the pipeline configuration after defaulting.
func (d *DataPlane) Config() Config { return d.cfg }

// view is the parsed, value-typed form of one TAP copy: every packet
// field the measurement program reads, captured before the tap pair
// recycles the packet. The sharded front-end (Pipes) batches views and
// replays them on per-shard goroutines, so nothing downstream of
// parseCopy may retain a *packet.Packet.
type view struct {
	flowHash
	at       simtime.Time
	seqExt   uint64
	ackExt   uint64
	expAck   uint64 // precomputed ExpectedAck (pure function of the header)
	point    tap.CopyPoint
	totalLen uint16
	ipid     uint16
	proto    packet.Proto
	flags    uint8
	data     bool // CarriesData
	ackOnly  bool // IsACKOnly
}

// parseCopy extracts the pipeline's working set from a TAP copy. The
// flow key is packed and hashed exactly once, here (flowHash.hash): the
// match-action stages, the shard choice and both sketch tiers reuse
// the view's hashes. Egress copies parse light: the egress program
// (queue-delay pairing + microburst detection) reads only the flow
// hash, the IP ID and the timestamp, so the full header capture would
// be pure per-packet overhead on half the TAP stream.
//
// p4:hotpath
func parseCopy(v *view, c tap.Copy) {
	pkt := c.Pkt
	v.key.pack(pkt.SrcIP, pkt.DstIP, pkt.SrcPort, pkt.DstPort, pkt.Proto)
	v.hash()
	v.at, v.ipid, v.point = c.At, pkt.IPID, c.Point
	if c.Point == tap.Egress {
		return
	}
	v.seqExt, v.ackExt, v.expAck = pkt.SeqExt, pkt.AckExt, pkt.ExpectedAck()
	v.totalLen, v.proto, v.flags = pkt.TotalLen, pkt.Proto, pkt.Flags
	v.data, v.ackOnly = pkt.CarriesData(), pkt.IsACKOnly()
}

// ProcessCopy implements tap.Monitor. Ingress copies drive the
// measurement algorithms; egress copies close the queuing-delay
// measurement and feed the microburst detector. Copies are not retained:
// the TAP pair may recycle the packet as soon as this returns.
// ProcessCopy is the front of one: the copy is parsed into the pipe's
// own one-view front and drained by ProcessFront, exactly like a batch.
//
// p4:hotpath
func (d *DataPlane) ProcessCopy(c tap.Copy) {
	d.one.Reset()
	d.one.AppendCopy(c)
	d.ProcessFront(&d.one)
}

// ProcessFront drains a parsed batch through the entire ingress/egress
// match-action program run-to-completion — the yanet2 packet_front
// idiom — and is the only place a view is dispatched to the two
// programs. Per-view cost approaches a few array ops: the copy counts
// are accumulated in registers and committed once per batch, and every
// view arrives already hashed. State after ProcessFront is
// byte-identical to feeding the same views through ProcessCopy — the
// front of one — one at a time (the batch equivalence property test
// pins this). The front may be reused by the caller as soon as
// ProcessFront returns.
//
// p4:hotpath
func (d *DataPlane) ProcessFront(f *Front) {
	b := f.views
	if len(b) == 0 {
		return
	}
	var ingress, egress uint64
	for k := range b {
		if b[k].point == tap.Ingress {
			ingress++
			d.processIngress(&b[k])
		} else {
			egress++
			d.processEgress(&b[k])
		}
	}
	d.Stats.IngressCopies += ingress
	d.Stats.EgressCopies += egress
	runtime.KeepAlive(d)
}

// processIngress executes the per-packet measurement program: byte and
// packet counting, long-flow detection, Algorithm 1 (RTT and packet
// loss), flight-size tracking and inter-arrival times.
//
// p4:hotpath
func (d *DataPlane) processIngress(v *view) {
	now := v.at
	id := v.id
	idx := uint32(id) % d.tableN

	// Stamp the ingress time for queuing-delay pairing with the egress
	// copy (both directions transit the core switch). Port-level state,
	// not per-flow cells — stamped for every monitored packet so the
	// queue and microburst view covers the sketch-tier traffic too.
	qidx := hash2(id, uint64(v.ipid))
	d.qSig.Write(qidx, uint64(id)<<16|uint64(v.ipid))
	d.qTS.Write(qidx, uint64(now))

	// Admission gate: only the cell's owner writes the exact per-flow
	// registers; everyone else is counted in the sketch tier with
	// (ε, δ)-bounded error instead of silently corrupting the cell.
	if !d.admitCell(idx, id, &v.key) {
		d.leanIngress(v)
		return
	}

	// Byte and packet counters come from the IPv4 total-length field.
	d.bytesReg.Add(idx, uint64(v.totalLen))
	d.pktsReg.Add(idx, 1)
	if d.firstSeen.Read(idx) == 0 {
		d.firstSeen.Write(idx, uint64(now))
	}
	d.lastSeen.Write(idx, uint64(now))

	if v.proto == packet.ProtoTCP && v.flags&packet.FlagFIN != 0 {
		d.finSeenReg.Write(idx, 1)
	}

	switch {
	case v.data:
		d.processData(v, idx, now)
	case v.ackOnly:
		d.processAck(v, now)
	}
}

// processData is the Seq branch of Algorithm 1 plus the auxiliary
// long-flow, flight and IAT bookkeeping.
//
// p4:hotpath
func (d *DataPlane) processData(v *view, idx uint32, now simtime.Time) {
	// Inter-arrival time (the mmWave blockage signal, §5.4.3).
	if last := d.lastArrReg.Read(idx); last != 0 {
		iat := Elapsed(now, simtime.Time(last))
		d.maxIATReg.Max(idx, uint64(iat))
	}
	d.lastArrReg.Write(idx, uint64(now))

	// Long-flow detection via the count-min sketch.
	est := d.cms.s.Add(longFlowHash(v.id, v.h), uint64(v.totalLen))
	if est >= d.cfg.LongFlowBytes && d.announced.Read(idx) == 0 {
		d.announced.Write(idx, 1)
		if d.OnLongFlow != nil {
			d.OnLongFlow(LongFlowEvent{
				ID:    v.id,
				RevID: v.revID,
				Tuple: v.key.Tuple(),
				At:    now,
				Bytes: est,
			})
		}
	}

	if v.proto != packet.ProtoTCP {
		return
	}

	// Warm the lean tier's duplicate filter even while admitted: if
	// this cell is later evicted, a retransmission of a segment sent
	// during the admitted era must still test positive in the sketch
	// tier. Nobody reads an answer here — the exact counter below owns
	// loss accounting while the flow holds its cell — so the insert is
	// deferred in the cell's run: its bits are set before this pipe's
	// next filter test or read of the bits, never sooner.
	d.lean.NoteSeq(idx, v.key.sketchKey(), v.seqExt, uint32(v.expAck-v.seqExt))

	// Algorithm 1, Seq branch: a sequence number below the previous one
	// is a retransmission, i.e. evidence of packet loss.
	prev := d.prevSeqReg.Read(idx)
	if v.seqExt < prev {
		d.pktLossReg.Add(idx, 1)
	} else {
		d.prevSeqReg.Write(idx, v.seqExt)

		// Store the expected-ACK signature and timestamp.
		eack := v.expAck
		sig := uint64(v.revID)<<32 | (eack & 0xffffffff)
		eidx := hash2(v.revID, eack)
		if old := d.eackSig.Read(eidx); old != 0 && old != sig {
			d.Stats.EACKEvictions++
		}
		d.eackSig.Write(eidx, sig)
		d.eackTS.Write(eidx, uint64(now))
	}

	// Flight size numerator: highest sequence byte dispatched.
	d.highSeqReg.Max(idx, v.expAck)
	d.updateFlight(idx, now)
}

// processAck is the ACK branch of Algorithm 1: match the cumulative ACK
// against a stored expected-ACK signature to produce an RTT sample, and
// advance the data flow's acknowledged high-water mark.
//
// p4:hotpath
func (d *DataPlane) processAck(v *view, now simtime.Time) {
	id, revID := v.id, v.revID
	// The data flow's cell: histogram, high-ACK and flight writes land
	// there, so they require the reverse direction to own it.
	rslot := uint32(revID) % d.tableN
	revOwns := d.ownerLo.Read(rslot) == uint64(revID) && d.ownerKeys[rslot].reverses(&v.key)

	ack := v.ackExt
	sig := uint64(id)<<32 | (ack & 0xffffffff)
	eidx := hash2(id, ack)
	if d.eackSig.Read(eidx) == sig {
		ts := d.eackTS.Read(eidx)
		if ts != 0 {
			rtt := uint64(Elapsed(now, simtime.Time(ts)))
			// Algorithm 1 stores the RTT at the ACK packet's flow ID;
			// the control plane joins it back via the reversed ID.
			d.rttReg.Write(uint32(id), rtt)
			if revOwns {
				// P4TG-style distribution: the sample also lands in the
				// data flow's in-register log₂ histogram.
				d.rttHist.Add(rslot*RTTHistBuckets+rttBucket(rtt), 1)
			}
			d.Stats.RTTSamples++
			if o := d.obs; o != nil {
				o.rttNs.Observe(rtt)
			}
		}
		d.eackSig.Write(eidx, 0)
		d.eackTS.Write(eidx, 0)
	}

	// The ACK acknowledges the reverse flow's data.
	if revOwns {
		d.highAckReg.Max(rslot, ack)
		d.updateFlight(rslot, now)
	}
}

// updateFlight recomputes the flow's bytes-in-flight estimate
// (transmitted but unacknowledged, §4.4) and folds it into the
// per-window min/max registers the limitation classifier reads.
func (d *DataPlane) updateFlight(idx uint32, now simtime.Time) {
	hi := d.highSeqReg.Read(idx)
	lo := d.highAckReg.Read(idx)
	var flight uint64
	if hi > lo && lo != 0 {
		flight = hi - lo
	}
	d.flightReg.Write(idx, flight)
	if lo == 0 {
		return // no ACK observed yet; window stats would be misleading
	}
	d.flightMaxW.Max(idx, flight)
	if cur := d.flightMinW.Read(idx); flight < cur {
		d.flightMinW.Write(idx, flight)
	}
}

// processEgress pairs the egress copy with its stored ingress timestamp
// to measure the packet's time inside the core switch (§4.2), updates
// the per-flow queuing-delay register, and runs the per-packet
// microburst detector (§3.3.3).
//
// p4:hotpath
func (d *DataPlane) processEgress(v *view) {
	now := v.at
	id := v.id
	qidx := hash2(id, uint64(v.ipid))
	want := uint64(id)<<16 | uint64(v.ipid)
	if d.qSig.Read(qidx) != want {
		d.Stats.QSigMismatches++
		return
	}
	ingressTS := d.qTS.Read(qidx)
	d.qSig.Write(qidx, 0)
	d.qTS.Write(qidx, 0)
	qdelay := Elapsed(now, simtime.Time(ingressTS))
	if ingressTS == 0 || qdelay < 0 {
		d.Stats.QSigMismatches++
		return
	}
	if o := d.obs; o != nil {
		o.qdelayNs.Observe(uint64(qdelay))
	}
	// The per-flow cell only takes the sample from its owner; the
	// port-level microburst detector below sees every paired packet
	// regardless of which tier the flow lives in.
	slot := uint32(id) % d.tableN
	if d.ownsCell(slot, id, &v.key) {
		d.qdelayReg.Write(slot, uint64(qdelay))
	}
	d.lastQDelay = qdelay
	d.detectMicroburst(qdelay, now)
}

// detectMicroburst compares each packet's queuing delay against the
// adaptive EWMA baseline: a sudden excursion above burstFactor x
// baseline (and the absolute floor) opens a burst; falling back toward
// the baseline closes it and emits the event with nanosecond start
// time and duration. The baseline keeps adapting slowly during a burst
// so a sustained congestion episode self-terminates rather than being
// reported as one endless microburst.
// p4:hotpath
func (d *DataPlane) detectMicroburst(qdelay simtime.Time, now simtime.Time) {
	q := float64(qdelay)
	if !d.qBaseInit {
		d.qBaseline = q
		d.qBaseTs = now
		d.qBaseInit = true
		return
	}
	if !d.inBurst {
		if q > burstFactor*d.qBaseline && qdelay >= d.cfg.BurstFloor {
			d.inBurst = true
			d.burstStart = now - qdelay // the burst began as the queue built
			if d.burstStart < 0 {
				d.burstStart = 0
			}
			d.burstPeak = qdelay
			d.burstPkts = 1
			d.qBaseTs = now
			return
		}
		d.updateQBaseline(q, now, 1)
		return
	}
	d.burstPkts++
	if qdelay > d.burstPeak {
		d.burstPeak = qdelay
	}
	// During a burst the baseline still adapts (slower), so a sustained
	// congestion episode self-terminates instead of reporting as one
	// endless microburst.
	d.updateQBaseline(q, now, 0.25)
	if q < burstEndFactor*d.qBaseline || qdelay < d.cfg.BurstFloor/2 {
		d.inBurst = false
		d.Stats.Microbursts++
		if o := d.obs; o != nil {
			o.burstNs.Observe(uint64(now - d.burstStart))
		}
		if d.OnMicroburst != nil {
			d.OnMicroburst(MicroburstEvent{
				Start:     d.burstStart,
				Duration:  now - d.burstStart,
				PeakDelay: d.burstPeak,
				Packets:   d.burstPkts,
			})
		}
	}
}

// updateQBaseline folds one queuing-delay sample into the time-weighted
// EWMA baseline: alpha = dt/tau (scaled), clamped to 1. Back-to-back
// trains (dt ~ microseconds) barely move it; slow ramps (dt comparable
// to tau) track.
//
// p4:hotpath
func (d *DataPlane) updateQBaseline(q float64, now simtime.Time, scale float64) {
	dt := float64(now - d.qBaseTs)
	alpha := dt / float64(burstBaselineTau) * scale
	if alpha > 1 {
		alpha = 1
	}
	if alpha > 0 {
		d.qBaseline += (q - d.qBaseline) * alpha
	}
	d.qBaseTs = now
}

// CurrentQueueDelay returns the most recent per-packet queuing delay —
// what a control plane sampling the queue would read.
func (d *DataPlane) CurrentQueueDelay() simtime.Time { return d.lastQDelay }

// Plane is the pipeline surface the control plane drives: per-flow
// extraction, window resets, flow release, sketch clearing and the
// data-plane digest hooks. *Pipes implements it at every pipe count
// (a bare *DataPlane is the per-shard unit Pipes drives, not a Plane);
// the interface exists so scenarios can script a stand-in plane under
// the real control plane.
type Plane interface {
	// ReadFlow extracts the merged per-flow snapshot for a flow and
	// its reverse direction.
	ReadFlow(id, revID FlowID) FlowSnapshot
	// ResetWindow clears the per-window registers (flight min/max,
	// max IAT) after an extraction cycle.
	ResetWindow(id FlowID)
	// ReleaseFlow returns a terminated flow's cells to the pool.
	ReleaseFlow(id FlowID)
	// ReadRTTHist extracts the flow's in-register RTT histogram (pass
	// the data-direction flow ID; the distribution lives at its cell).
	ReadRTTHist(id FlowID) RTTHist
	// AgeFlows evicts unannounced flow-table cells idle longer than
	// window, folding their exact counters into the sketch tier, and
	// returns the number of cells evicted.
	AgeFlows(now, window simtime.Time) int
	// ClearCMS zeroes the long-flow sketch (periodic decay).
	ClearCMS()
	// Flush establishes the barrier: all batched packet work is
	// replayed and joined, and deferred events are delivered, before
	// Flush returns.
	Flush()
	// SetLongFlowHandler and SetMicroburstHandler install the digest
	// callbacks that deliver data-plane events upward.
	SetLongFlowHandler(func(LongFlowEvent))
	SetMicroburstHandler(func(MicroburstEvent))
}

// RegisterByName looks up a register instance by its P4 name. Returns
// nil when unknown.
func (d *DataPlane) RegisterByName(name string) *Register { return d.registry[name] }

// RegisterNames lists the pipeline's register instances, sorted.
func (d *DataPlane) RegisterNames() []string {
	names := make([]string, 0, len(d.registry))
	for n := range d.registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

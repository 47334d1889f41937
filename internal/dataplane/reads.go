package dataplane

import (
	"time"

	"repro/internal/simtime"
)

// FlowSnapshot is one flow's register state as the control plane reads
// it through the switch-manufacturer APIs (§3.2). RTT is joined from
// the reverse-flow register using the reversed ID the long-flow digest
// carried.
type FlowSnapshot struct {
	Bytes      uint64
	Pkts       uint64
	PktLoss    uint64
	RTT        simtime.Time
	QDelay     simtime.Time
	Flight     uint64
	FlightMaxW uint64
	FlightMinW uint64 // flightNoSample if no observation this window
	MaxIAT     simtime.Time
	FirstSeen  simtime.Time
	LastSeen   simtime.Time
	FinSeen    bool
}

// HasFlightWindow reports whether the window min/max registers carried
// any sample.
func (s FlowSnapshot) HasFlightWindow() bool { return s.FlightMinW != flightNoSample }

// ReadFlow performs the control plane's per-flow register reads. id is
// the flow's own hash; revID is its reversed ID (for the RTT join).
// The snapshot is returned by value — the extraction tick reads every
// tracked flow once per metric, and a value snapshot keeps that loop
// heap-allocation-free (callers needing bulk register dumps pass their
// own buffer to Register.Snapshot instead).
func (d *DataPlane) ReadFlow(id, revID FlowID) FlowSnapshot {
	// Self-telemetry: the wall-clock cost of one register extraction
	// (the equivalent of a bfrt read RPC). Only when instrumented —
	// the uninstrumented read pays a single nil check.
	if d.obs != nil {
		defer d.observeExtract(time.Now())
	}
	idx := uint32(id)
	return FlowSnapshot{
		Bytes:      d.bytesReg.Read(idx),
		Pkts:       d.pktsReg.Read(idx),
		PktLoss:    d.pktLossReg.Read(idx),
		RTT:        simtime.Time(d.rttReg.Read(uint32(revID))),
		QDelay:     simtime.Time(d.qdelayReg.Read(idx)),
		Flight:     d.flightReg.Read(idx),
		FlightMaxW: d.flightMaxW.Read(idx),
		FlightMinW: d.flightMinW.Read(idx),
		MaxIAT:     simtime.Time(d.maxIATReg.Read(idx)),
		FirstSeen:  simtime.Time(d.firstSeen.Read(idx)),
		LastSeen:   simtime.Time(d.lastSeen.Read(idx)),
		FinSeen:    d.finSeenReg.Read(idx) == 1,
	}
}

// ResetWindow clears the flow's per-extraction-window registers
// (flight min/max, max IAT). The control plane writes these after each
// read, exactly as a Tofino control plane resets registers through the
// runtime API.
func (d *DataPlane) ResetWindow(id FlowID) {
	idx := uint32(id)
	d.flightMaxW.Write(idx, 0)
	d.flightMinW.Write(idx, flightNoSample)
	d.maxIATReg.Write(idx, 0)
}

// ReleaseFlow clears a terminated flow's announcement latch and
// first/last-seen stamps so the register cell can host a future flow
// cleanly. Cumulative counters are left intact until reused (hardware
// behaviour: the control plane zeroes what it needs).
func (d *DataPlane) ReleaseFlow(id FlowID) {
	idx := uint32(id)
	d.announced.Write(idx, 0)
	d.firstSeen.Write(idx, 0)
	d.lastSeen.Write(idx, 0)
	d.finSeenReg.Write(idx, 0)
	d.bytesReg.Write(idx, 0)
	d.pktsReg.Write(idx, 0)
	d.pktLossReg.Write(idx, 0)
	d.prevSeqReg.Write(idx, 0)
	d.highSeqReg.Write(idx, 0)
	d.highAckReg.Write(idx, 0)
	d.flightReg.Write(idx, 0)
	d.lastArrReg.Write(idx, 0)
	d.qdelayReg.Write(idx, 0)
	d.ownerLo.Write(idx, 0)
	// Release the admission record and the cell's RTT histogram so the
	// next owner starts from a clean distribution.
	slot := idx % d.tableN
	d.ownerKeys[slot] = FlowKey{}
	base := slot * RTTHistBuckets
	for b := uint32(0); b < RTTHistBuckets; b++ {
		d.rttHist.Write(base+b, 0)
	}
	d.ResetWindow(id)
}

// ClearCMS resets the long-flow sketch; the control plane does this
// periodically so stale counts do not keep old flows "long" forever.
func (d *DataPlane) ClearCMS() { d.cms.Clear() }

// Sketch exposes the long-flow CMS for white-box tests and the CMS
// ablation bench.
func (d *DataPlane) Sketch() *CMS { return d.cms }

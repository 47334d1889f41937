package dataplane

import (
	"math"
	"math/bits"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/sketch"
)

// This file is the two-tier memory model (DESIGN.md §5.8): the exact
// register tier admits one flow per cell — first writer owns it until
// released or aged out — and every non-admitted packet lands in the
// lean sketch tier (internal/sketch) with (ε, δ)-bounded counters.
// Aliasing, which the single-tier pipeline silently absorbed as
// corrupted cells, becomes a counted event plus a bounded-error
// estimate. Flow-table aging evicts idle unannounced cells, folding
// their exact history into the sketches so no traffic is ever lost to
// the estimate, and per-flow RTT histograms (log₂ buckets, the
// internal/obs layout windowed to plausible RTTs) live in a flat
// register the control plane extracts p50/p95/p99 from.

// RTTHistBuckets is the number of log₂ RTT buckets per flow cell.
// Bucket i covers RTT values whose bit length is rttHistMinBits+i
// (the internal/obs Histogram rule, windowed): bucket 0 absorbs
// everything under 2^rttHistMinBits ns ≈ 1 µs, the last bucket
// everything from 2^(rttHistMinBits+RTTHistBuckets-1) ns ≈ 137 s up.
const RTTHistBuckets = 28

// rttHistMinBits is the histogram window's low edge: bit lengths at or
// below it clamp to bucket 0 (sub-microsecond "RTTs" are measurement
// artifacts, not round trips worth resolution).
const rttHistMinBits = 10

// rttBucket maps an RTT in nanoseconds to its histogram bucket — the
// same bits.Len64 rule internal/obs.Histogram applies, clamped to the
// [rttHistMinBits, rttHistMinBits+RTTHistBuckets) window.
//
// p4:hotpath
func rttBucket(rttNs uint64) uint32 {
	b := bits.Len64(rttNs)
	if b <= rttHistMinBits {
		return 0
	}
	if b >= rttHistMinBits+RTTHistBuckets {
		return RTTHistBuckets - 1
	}
	return uint32(b - rttHistMinBits)
}

// RTTHistUpper returns the inclusive upper bound (ns) of histogram
// bucket i — the obs.BucketUpper of the bucket's absolute bit length.
func RTTHistUpper(i int) simtime.Time {
	if i <= 0 {
		return simtime.Time(obs.BucketUpper(rttHistMinBits))
	}
	if i >= RTTHistBuckets {
		i = RTTHistBuckets - 1
	}
	return simtime.Time(obs.BucketUpper(rttHistMinBits + i))
}

// RTTHist is one flow's extracted RTT distribution: per-bucket sample
// counts read out of the rtt_hist register. A value type — extraction
// loops stay heap-allocation-free.
type RTTHist struct {
	// Buckets holds the per-bucket sample counts (see RTTHistBuckets
	// for the bucket rule).
	Buckets [RTTHistBuckets]uint64
}

// Count returns the histogram's total sample count.
func (h *RTTHist) Count() uint64 {
	var n uint64
	for _, c := range h.Buckets {
		n += c
	}
	return n
}

// Quantile returns the smallest bucket upper bound covering fraction q
// of the samples (0 when the histogram is empty). Quantiles from log₂
// buckets are upper bounds with at most one-octave resolution — the
// trade the P4TG histogram approach makes for in-register storage.
func (h *RTTHist) Quantile(q float64) simtime.Time {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range h.Buckets {
		cum += h.Buckets[i]
		if cum >= rank {
			return RTTHistUpper(i)
		}
	}
	return RTTHistUpper(RTTHistBuckets - 1)
}

// admitCell is the exact-tier admission gate: the first flow to touch
// a cell owns it (ID witness plus full-key side record) until
// ReleaseFlow or aging frees it. Packets from any other flow are not
// admitted — they must be routed to the lean tier. SlotCollisions
// preserves its historical meaning (distinct flow IDs contending for
// one cell); AliasedPackets counts every packet the gate turned away,
// including the rare full-ID collision where two keys share a CRC32.
//
// p4:hotpath
func (d *DataPlane) admitCell(idx uint32, id FlowID, key *FlowKey) bool {
	owner := d.ownerLo.Read(idx)
	if owner == 0 {
		d.ownerLo.Write(idx, uint64(id))
		d.ownerKeys[idx] = *key
		return true
	}
	if owner == uint64(id) && d.ownerKeys[idx] == *key {
		return true
	}
	if owner != uint64(id) {
		d.Stats.SlotCollisions++
	}
	d.Stats.AliasedPackets++
	return false
}

// ownsCell reports whether the flow (id, key) currently owns its cell
// — the read-only admission check the ACK and egress paths use before
// writing into a cell the data path may not have admitted them to.
//
// p4:hotpath
func (d *DataPlane) ownsCell(idx uint32, id FlowID, key *FlowKey) bool {
	return d.ownerLo.Read(idx) == uint64(id) && d.ownerKeys[idx] == *key
}

// leanIngress counts one non-admitted ingress packet in the sketch
// tier: bytes and packets always, plus dup-filter loss detection for
// TCP data (a (key, seq) pair seen before is a retransmission, counted
// as a loss when the filter's log drains).
//
// p4:hotpath
func (d *DataPlane) leanIngress(v *view) {
	d.lean.ObserveHash(v.h, uint64(v.totalLen))
	if v.data && v.proto == packet.ProtoTCP {
		d.lean.TestSeq(v.key.sketchKey(), v.seqExt, v.h)
	}
}

// AgeFlows is the flow-table aging sweep: every unannounced cell whose
// last_seen is older than window is evicted — its exact byte, packet
// and loss counters fold into the lean sketches under the stored owner
// key (the estimate keeps covering the flow's full history) and the
// cell is released for the next admission. Announced cells are the
// control plane directory's responsibility (its FIN/idle sweep
// releases them with a flow-summary report) and are skipped here, so
// a directory entry never reads a cell that restarted under it.
// Returns the number of cells evicted. O(FlowTableSize): an epoch
// sweep for the extraction cadence, not the packet path.
func (d *DataPlane) AgeFlows(now, window simtime.Time) int {
	evicted := 0
	for i := uint32(0); i < d.tableN; i++ {
		if d.ownerLo.Read(i) == 0 || d.announced.Read(i) == 1 {
			continue
		}
		last := simtime.Time(d.lastSeen.Read(i))
		if last == 0 || Elapsed(now, last) <= window {
			continue
		}
		d.lean.Fold(d.ownerKeys[i].sketchKey().Hash(), d.bytesReg.Read(i), d.pktsReg.Read(i), d.pktLossReg.Read(i))
		d.ReleaseFlow(FlowID(i))
		evicted++
	}
	d.Stats.Evictions += uint64(evicted)
	return evicted
}

// ReadRTTHist extracts one flow's RTT histogram from the rtt_hist
// register. The histogram lives at the data flow's cell (P4TG-style:
// the distribution belongs to the flow whose segments were timed), so
// pass the data-direction flow ID.
func (d *DataPlane) ReadRTTHist(id FlowID) RTTHist {
	var h RTTHist
	base := (uint32(id) % d.tableN) * RTTHistBuckets
	for b := uint32(0); b < RTTHistBuckets; b++ {
		h.Buckets[b] = d.rttHist.Read(base + b)
	}
	return h
}

// FlowEstimate is the two-tier answer to "how much did this flow
// send": the sketch estimate plus, when the flow owns its exact cell,
// the cell's exact counters. Estimates never undercount; each Bound
// field is the sketch's current analytical ⌈ε·N⌉ overcount cap
// (holding per query with probability ≥ 1-δ).
type FlowEstimate struct {
	// Bytes, Pkts and Loss are the combined totals: sketch estimate
	// plus exact cell when admitted.
	Bytes, Pkts, Loss uint64
	// ExactBytes, ExactPkts and ExactLoss are the exact-tier cell
	// counters (zero when not admitted).
	ExactBytes, ExactPkts, ExactLoss uint64
	// BytesBound, PktsBound and LossBound are the sketches' analytical
	// overcount bounds at the current fill.
	BytesBound, PktsBound, LossBound uint64
	// Admitted reports whether the flow currently owns its exact cell.
	Admitted bool
}

// EstimateFlow returns the flow's two-tier estimate. A flow that was
// admitted, evicted and not re-admitted answers purely from the
// sketches (where its eviction fold lives); a currently-admitted flow
// adds its exact cell on top of whatever sketch residue pre-admission
// or post-eviction traffic left.
func (d *DataPlane) EstimateFlow(key FlowKey) FlowEstimate {
	f := hashFlow(key)
	return d.estimate(&f)
}

// estimate is EstimateFlow for an already-hashed key.
func (d *DataPlane) estimate(f *flowHash) FlowEstimate {
	var e FlowEstimate
	e.Bytes, e.Pkts, e.Loss = d.lean.EstimateHash(f.h)
	e.BytesBound, e.PktsBound, e.LossBound = d.lean.Bounds()
	idx := uint32(f.id) % d.tableN
	if d.ownsCell(idx, f.id, &f.key) {
		e.Admitted = true
		e.ExactBytes = d.bytesReg.Read(idx)
		e.ExactPkts = d.pktsReg.Read(idx)
		e.ExactLoss = d.pktLossReg.Read(idx)
		e.Bytes += e.ExactBytes
		e.Pkts += e.ExactPkts
		e.Loss += e.ExactLoss
	}
	return e
}

// Lean exposes the sketch tier for white-box tests and telemetry.
func (d *DataPlane) Lean() *sketch.Lean { return d.lean }

// FlowTableMemoryBytes returns the exact tier's per-flow storage
// footprint: every per-flow register array (including the RTT
// histogram) plus the 13-byte owner-key side table. The denominator of
// the accuracy-vs-memory trade the scale sweep tables.
func (d *DataPlane) FlowTableMemoryBytes() uint64 {
	var b uint64
	for _, r := range d.regs[:d.perFlow] {
		b += uint64(r.Size()) * 8
	}
	return b + uint64(len(d.ownerKeys))*13
}

// LeanMemoryBytes returns the sketch tier's storage footprint.
func (d *DataPlane) LeanMemoryBytes() uint64 { return d.lean.MemoryBytes() }

package dataplane

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/sketch"
	"repro/internal/tap"
)

// ttFlow returns the i-th synthetic flow of the two-tier tests.
func ttFlow(i int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   packet.MustAddr("10.0.0.10"),
		DstIP:   packet.MustAddr(fmt.Sprintf("10.1.%d.%d", (i>>8)&0xff, i&0xff)),
		SrcPort: uint16(41000 + i%1000),
		DstPort: 5201,
		Proto:   packet.ProtoTCP,
	}
}

// sendData feeds one TCP data segment (mss payload bytes at seq)
// through the ingress path.
func sendData(d *DataPlane, ft packet.FiveTuple, seq uint64, mss int, at simtime.Time) {
	pkt := packet.NewTCP(ft, seq, 0, packet.FlagACK|packet.FlagPSH, mss)
	d.ProcessCopy(tap.Copy{Pkt: pkt, Point: tap.Ingress, At: at})
}

// estimateFlow is Pipes.EstimateFlow for one bare pipe.
func estimateFlow(d *DataPlane, key FlowKey) FlowEstimate {
	f := hashFlow(key)
	return d.estimate(&f)
}

// TestAdmissionRoutesAliasedFlowToSketch pins the admission gate: with
// a one-cell table, the first flow owns the exact tier and the second
// flow's traffic is counted — not silently merged into the first
// flow's cell — in the sketch tier, with the aliasing surfaced in
// Stats.
func TestAdmissionRoutesAliasedFlowToSketch(t *testing.T) {
	d := New(Config{FlowTableSize: 1})
	a, b := ttFlow(1), ttFlow(2)
	const mss = 1460
	wire := uint64(mss + 40)
	for k := 0; k < 10; k++ {
		sendData(d, a, uint64(1+k*mss), mss, simtime.Time(k+1)*simtime.Millisecond)
	}
	for k := 0; k < 5; k++ {
		sendData(d, b, uint64(1+k*mss), mss, simtime.Time(k+20)*simtime.Millisecond)
	}
	// A retransmission of b's first segment: the sketch tier must see
	// the duplicate and count the loss.
	sendData(d, b, 1, mss, 30*simtime.Millisecond)

	if d.Stats.AliasedPackets != 6 {
		t.Errorf("AliasedPackets = %d, want 6 (all of b's packets)", d.Stats.AliasedPackets)
	}
	if d.Stats.SlotCollisions == 0 {
		t.Error("SlotCollisions = 0, want aliasing witnessed")
	}

	// The exact cell holds only the owner's traffic.
	ea := estimateFlow(d, KeyOf(a))
	if !ea.Admitted {
		t.Fatal("owner flow not admitted")
	}
	if ea.ExactBytes != 10*wire || ea.ExactPkts != 10 {
		t.Errorf("owner exact cell = %d B / %d pkts, want %d / 10", ea.ExactBytes, ea.ExactPkts, 10*wire)
	}

	// The aliased flow answers from the sketch tier: never undercounts,
	// and its overcount is within the analytical bound.
	eb := estimateFlow(d, KeyOf(b))
	if eb.Admitted {
		t.Fatal("aliased flow reported admitted")
	}
	if eb.Bytes < 6*wire || eb.Pkts < 6 {
		t.Errorf("aliased flow estimate %d B / %d pkts undercounts truth %d / 6", eb.Bytes, eb.Pkts, 6*wire)
	}
	if eb.Bytes > 6*wire+eb.BytesBound || eb.Pkts > 6+eb.PktsBound {
		t.Errorf("aliased flow estimate %d B / %d pkts above truth + bound (%d / %d)",
			eb.Bytes, eb.Pkts, 6*wire+eb.BytesBound, 6+eb.PktsBound)
	}
	if eb.Loss < 1 {
		t.Errorf("aliased flow sketch loss = %d, want ≥ 1 (retransmitted segment)", eb.Loss)
	}
}

// TestAgeFlowsEvictsIdleToSketch is the eviction regression: an idle
// unannounced flow's cells are released by the aging sweep, its exact
// history folds into the sketch tier (estimates keep covering the full
// history, never undercounting), and a retransmission arriving after
// eviction is still detected via the warm duplicate filter.
func TestAgeFlowsEvictsIdleToSketch(t *testing.T) {
	d := New(Config{})
	a := ttFlow(3)
	const mss = 1460
	wire := uint64(mss + 40)
	for k := 0; k < 8; k++ {
		sendData(d, a, uint64(1+k*mss), mss, simtime.Time(k+1)*simtime.Millisecond)
	}
	if got := d.OccupiedCells(); got != 1 {
		t.Fatalf("occupancy before aging = %d, want 1", got)
	}

	// Not yet idle: a generous window evicts nothing.
	if n := d.AgeFlows(20*simtime.Millisecond, simtime.Second); n != 0 {
		t.Fatalf("AgeFlows evicted %d flows inside the window", n)
	}
	// Idle past the window: evicted.
	if n := d.AgeFlows(10*simtime.Second, simtime.Second); n != 1 {
		t.Fatalf("AgeFlows evicted %d flows, want 1", n)
	}
	if d.Stats.Evictions != 1 {
		t.Errorf("Stats.Evictions = %d, want 1", d.Stats.Evictions)
	}
	if got := d.OccupiedCells(); got != 0 {
		t.Errorf("occupancy after eviction = %d, want 0", got)
	}
	id, rev := HashFiveTuple(a), HashReverse(a)
	if snap := d.ReadFlow(id, rev); snap.Bytes != 0 || snap.Pkts != 0 || snap.LastSeen != 0 {
		t.Errorf("evicted cell not released: %+v", snap)
	}

	// The history lives on in the sketch tier.
	e := estimateFlow(d, KeyOf(a))
	if e.Admitted {
		t.Fatal("evicted flow reported admitted")
	}
	if e.Bytes < 8*wire || e.Pkts < 8 {
		t.Errorf("post-eviction estimate %d B / %d pkts undercounts folded truth %d / 8", e.Bytes, e.Pkts, 8*wire)
	}

	// A returning flow re-admits (its cell is free again) and the
	// two-tier estimate keeps covering the full history.
	sendData(d, a, uint64(1+8*mss), mss, 11*simtime.Second)
	e = estimateFlow(d, KeyOf(a))
	if !e.Admitted {
		t.Fatal("returning flow did not re-admit after eviction")
	}
	if e.Bytes < 9*wire || e.Pkts < 9 {
		t.Errorf("re-admitted estimate %d B / %d pkts undercounts total truth %d / 9", e.Bytes, e.Pkts, 9*wire)
	}

	// The warm duplicate filter remembers admitted-era segments across
	// the eviction, so a retransmission that later lands in the sketch
	// tier is still recognised as a duplicate.
	lk := sketch.Key(KeyOf(a))
	if !d.lean.SeenSeq(&lk, 1) {
		t.Error("warm duplicate filter forgot an admitted-era segment after eviction")
	}
}

// shardMate returns the first two-tier test flow after a that takes a's
// shard at two shards.
func shardMate(a packet.FiveTuple) packet.FiveTuple {
	b := ttFlow(2)
	for i := 3; shardOf(KeyOf(b), 2) != shardOf(KeyOf(a), 2); i++ {
		b = ttFlow(i)
	}
	return b
}

// TestEvictedFlowRetransmitFindsLoggedInsert is the write-behind
// regression: the exact tier only defers its duplicate-filter inserts
// (Lean.NoteSeq), and the sketch tier must still find them. Flow a
// sends three segments while admitted and nothing tests the filter, so
// all three still wait in the cell's run when the aging sweep evicts a.
// Flow b then takes the cell, which logs a's run, and a's
// retransmission of its first segment, now in the sketch tier, must
// count as a loss. The same two-part trace fed per packet, as one front
// per part and through two shards leaves the same lean tier.
func TestEvictedFlowRetransmitFindsLoggedInsert(t *testing.T) {
	cfg := Config{FlowTableSize: 1}
	const mss = 1460
	// b shares a's shard, so that at two shards it contends for the same
	// one-cell table and the other shard stays empty.
	a := ttFlow(1)
	b := shardMate(a)
	data := func(ft packet.FiveTuple, seg int, at simtime.Time) tap.Copy {
		pkt := packet.NewTCP(ft, uint64(1+seg*mss), 0, packet.FlagACK|packet.FlagPSH, mss)
		return tap.Copy{Pkt: pkt, Point: tap.Ingress, At: at}
	}
	admitted := []tap.Copy{
		data(a, 0, 1*simtime.Millisecond),
		data(a, 1, 2*simtime.Millisecond),
		data(a, 2, 3*simtime.Millisecond),
	}
	evicted := []tap.Copy{
		data(b, 0, 11*simtime.Second),
		data(a, 0, 11*simtime.Second+simtime.Millisecond), // the retransmission
		data(a, 3, 11*simtime.Second+2*simtime.Millisecond),
		data(b, 1, 11*simtime.Second+3*simtime.Millisecond),
	}
	age := func(evict func(now, window simtime.Time) int) {
		t.Helper()
		if n := evict(10*simtime.Second, simtime.Second); n != 1 {
			t.Fatalf("AgeFlows evicted %d flows, want 1", n)
		}
	}

	perPacket := New(cfg)
	for _, c := range admitted {
		perPacket.ProcessCopy(c)
	}
	age(perPacket.AgeFlows)
	for _, c := range evicted {
		perPacket.ProcessCopy(c)
	}
	if _, _, loss := perPacket.lean.Totals(); loss != 1 {
		t.Errorf("lean tier counted %d losses, want 1: the admitted-era insert was still logged at the test", loss)
	}
	if e := estimateFlow(perPacket, KeyOf(a)); e.Admitted || e.Loss < 1 {
		t.Errorf("evicted flow: admitted=%v loss=%d, want sketch-tier loss ≥ 1", e.Admitted, e.Loss)
	}
	if e := estimateFlow(perPacket, KeyOf(b)); !e.Admitted || e.ExactPkts != 2 {
		t.Errorf("colliding flow: admitted=%v exact pkts=%d, want the cell and 2 packets", e.Admitted, e.ExactPkts)
	}

	fronts := New(cfg)
	f := NewFront(8)
	for i, part := range [][]tap.Copy{admitted, evicted} {
		for _, c := range part {
			f.AppendCopy(c)
		}
		fronts.ProcessFront(f)
		f.Reset()
		if i == 0 {
			age(fronts.AgeFlows)
		}
	}
	if fronts.Stats != perPacket.Stats || !fronts.lean.Equal(perPacket.lean) {
		t.Errorf("one front per part: stats %+v, per packet %+v, or lean tiers differ", fronts.Stats, perPacket.Stats)
	}

	sharded := NewPipes(cfg, 2)
	for _, c := range admitted {
		sharded.ProcessCopy(c)
	}
	age(sharded.AgeFlows)
	for _, c := range evicted {
		sharded.ProcessCopy(c)
	}
	if got := sharded.StatsSnapshot(); got != perPacket.Stats {
		t.Errorf("two shards: stats %+v, per packet %+v", got, perPacket.Stats)
	}
	own := shardOf(KeyOf(a), 2)
	if !sharded.Shard(own).lean.Equal(perPacket.lean) {
		t.Error("two shards: the owning shard's lean tier differs from the single pipe's")
	}
	if !sharded.Shard(1 - own).lean.Equal(New(cfg).lean) {
		t.Error("two shards: the other shard's lean tier is not empty")
	}
}

// dupBitsSet counts the bits set in a lean tier's dup filter, read in
// place: every reader through the API logs the open runs first.
func dupBitsSet(l *sketch.Lean) int {
	words := reflect.ValueOf(l).Elem().FieldByName("dup").Elem().FieldByName("bits")
	n := 0
	for i := range words.Len() {
		n += bits.OnesCount64(words.Index(i).Uint())
	}
	return n
}

// TestWarmInsertsWaitForTheFirstTest pins the exact tier's deferred
// warm inserts. An admitted flow's in-order segments and its resends
// set no dup-filter bit while nothing reads them: every pair counts as
// an insert at once, and each distinct one waits in the cell's run (a
// resend is already there). One aliased data packet is a sketch-tier
// test, so it logs the run ahead of itself; the lean tier is then equal
// to one fed every warm pair eagerly (SeenSeq) and the aliased packet
// as the sketch tier counts it.
func TestWarmInsertsWaitForTheFirstTest(t *testing.T) {
	d := New(Config{FlowTableSize: 1})
	ref := sketch.NewLean(sketch.Config{})
	a, b := ttFlow(1), ttFlow(2)
	ka, kb := sketch.Key(KeyOf(a)), sketch.Key(KeyOf(b))
	const mss = 1460
	var sent, distinct uint64
	at := simtime.Millisecond
	send := func(seg int) {
		seq := uint64(1 + seg*mss)
		sendData(d, a, seq, mss, at)
		ref.SeenSeq(&ka, seq)
		sent++
		at += simtime.Millisecond
	}
	for seg := range 40 {
		send(seg)
		distinct++
		if seg%10 == 9 {
			send(seg - 3) // a resend, inside the run
		}
	}
	if d.Stats.AliasedPackets != 0 || d.pktLossReg.Read(0) != 4 {
		t.Fatalf("aliased %d, exact losses %d: want 0 and the 4 resends", d.Stats.AliasedPackets, d.pktLossReg.Read(0))
	}
	if n := dupBitsSet(d.lean); n != 0 {
		t.Errorf("%d dup-filter bits set before anything read them, want 0", n)
	}
	if ins, def := d.lean.DupLoad(); ins != sent || def != distinct {
		t.Errorf("DupLoad = %d inserts, %d deferred; want the %d pairs sent, %d of them distinct", ins, def, sent, distinct)
	}

	sendData(d, b, 1, mss, at)
	ref.ObserveHash(kb.Hash(), mss+40)
	ref.TestSeq(&kb, 1, kb.Hash())
	if d.Stats.AliasedPackets != 1 {
		t.Fatalf("aliased %d packets, want 1", d.Stats.AliasedPackets)
	}
	if _, def := d.lean.DupLoad(); def != 0 {
		t.Errorf("%d pairs still deferred after a sketch-tier test, want the run logged", def)
	}
	if !d.Lean().Equal(ref) {
		t.Error("lean tier differs from one fed the same pairs eagerly")
	}
}

// TestSketchLossReadAfterFront is the logged-test regression: the
// sketch tier's dup-filter tests wait in the filter's log, and their
// losses are counted only when it drains. A retransmission inside one
// front, read straight after it through EstimateFlow, must already
// count — at one shard and at two, where the front replays on a shard
// goroutine and the read joins it first.
func TestSketchLossReadAfterFront(t *testing.T) {
	const mss = 1460
	// b shares a's shard and so, with a one-cell table, its sketch tier.
	a := ttFlow(1)
	b := shardMate(a)
	for _, shards := range []int{1, 2} {
		p := NewPipes(Config{FlowTableSize: 1}, shards)
		f := NewFront(8)
		for i, c := range []struct {
			ft  packet.FiveTuple
			seg int
		}{{a, 0}, {b, 0}, {b, 1}, {b, 0}} {
			pkt := packet.NewTCP(c.ft, uint64(1+c.seg*mss), 0, packet.FlagACK|packet.FlagPSH, mss)
			f.AppendCopy(tap.Copy{Pkt: pkt, Point: tap.Ingress, At: simtime.Time(i+1) * simtime.Millisecond})
		}
		p.ProcessFront(f)
		if e := p.EstimateFlow(KeyOf(b)); e.Admitted || e.Loss != 1 {
			t.Errorf("%d shards: aliased flow admitted=%v loss=%d, want the sketch tier's 1", shards, e.Admitted, e.Loss)
		}
	}
}

// TestAgeFlowsSkipsAnnouncedFlows: announced (directory-owned) cells
// belong to the control plane's FIN/idle sweep, not the aging sweep.
func TestAgeFlowsSkipsAnnouncedFlows(t *testing.T) {
	d := New(Config{LongFlowBytes: 2048})
	a := ttFlow(5)
	for k := 0; k < 4; k++ {
		sendData(d, a, uint64(1+k*1460), 1460, simtime.Time(k+1)*simtime.Millisecond)
	}
	idx := uint32(HashFiveTuple(a)) % d.tableN
	if d.announced.Read(idx) != 1 {
		t.Fatal("flow did not announce at the 2 KiB threshold")
	}
	if n := d.AgeFlows(time10s(), simtime.Second); n != 0 {
		t.Fatalf("AgeFlows evicted %d announced flows, want 0", n)
	}
}

func time10s() simtime.Time { return 10 * simtime.Second }

// TestRTTHistogramExtraction drives Algorithm 1's eACK exchange and
// checks the sample lands in the data flow's in-register histogram
// with the right bucket semantics, and that ReleaseFlow clears it.
func TestRTTHistogramExtraction(t *testing.T) {
	d := New(Config{})
	a := ttFlow(6)
	const mss = 1460
	rtts := []simtime.Time{
		3 * simtime.Millisecond,
		5 * simtime.Millisecond,
		40 * simtime.Millisecond,
	}
	at := simtime.Millisecond
	for k, rtt := range rtts {
		seq := uint64(1 + k*mss)
		pkt := packet.NewTCP(a, seq, 0, packet.FlagACK|packet.FlagPSH, mss)
		d.ProcessCopy(tap.Copy{Pkt: pkt, Point: tap.Ingress, At: at})
		ack := packet.NewTCP(a.Reverse(), 1, seq+mss, packet.FlagACK, 0)
		d.ProcessCopy(tap.Copy{Pkt: ack, Point: tap.Ingress, At: at + rtt})
		at += 100 * simtime.Millisecond
	}
	if d.Stats.RTTSamples != uint64(len(rtts)) {
		t.Fatalf("RTT samples = %d, want %d", d.Stats.RTTSamples, len(rtts))
	}
	id := HashFiveTuple(a)
	h := d.ReadRTTHist(id)
	if h.Count() != uint64(len(rtts)) {
		t.Fatalf("histogram count = %d, want %d", h.Count(), len(rtts))
	}
	// Log₂ buckets answer quantiles as upper bounds within one octave.
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 < rtts[1] || p50 >= 2*rtts[1] {
		t.Errorf("p50 = %v, want in [%v, %v)", p50, rtts[1], 2*rtts[1])
	}
	if p99 < rtts[2] || p99 >= 2*rtts[2] {
		t.Errorf("p99 = %v, want in [%v, %v)", p99, rtts[2], 2*rtts[2])
	}
	if q := h.Quantile(0); q == 0 || q > p50 {
		t.Errorf("q0 = %v, want non-zero and ≤ p50", q)
	}

	d.ReleaseFlow(id)
	if after := d.ReadRTTHist(id); after.Count() != 0 {
		t.Errorf("histogram count after ReleaseFlow = %d, want 0", after.Count())
	}
}

// TestRTTHistogramAcrossPipes checks the sharded merge: samples land
// on the owning shard and the merged read sums them.
func TestRTTHistogramAcrossPipes(t *testing.T) {
	p := NewPipes(Config{}, 4)
	const mss = 1460
	flows := []packet.FiveTuple{ttFlow(7), ttFlow(8), ttFlow(9)}
	for fi, ft := range flows {
		base := simtime.Time(fi+1) * simtime.Second
		for k := 0; k < 2; k++ {
			seq := uint64(1 + k*mss)
			at := base + simtime.Time(k)*100*simtime.Millisecond
			pkt := packet.NewTCP(ft, seq, 0, packet.FlagACK|packet.FlagPSH, mss)
			p.ProcessCopy(tap.Copy{Pkt: pkt, Point: tap.Ingress, At: at})
			ack := packet.NewTCP(ft.Reverse(), 1, seq+mss, packet.FlagACK, 0)
			p.ProcessCopy(tap.Copy{Pkt: ack, Point: tap.Ingress, At: at + 4*simtime.Millisecond})
		}
	}
	p.Flush()
	for _, ft := range flows {
		if h := p.ReadRTTHist(HashFiveTuple(ft)); h.Count() != 2 {
			t.Errorf("flow %v: merged histogram count = %d, want 2", ft, h.Count())
		}
	}
	if n := p.AgeFlows(time10s(), simtime.Second); n != 2*len(flows) {
		t.Errorf("Pipes.AgeFlows evicted %d cells, want %d (both directions per flow)", n, 2*len(flows))
	}
	st := p.StatsSnapshot()
	if st.Evictions != uint64(2*len(flows)) {
		t.Errorf("merged Evictions = %d, want %d", st.Evictions, 2*len(flows))
	}
}

// TestRTTBucketWindow pins the bucket rule's clamping.
func TestRTTBucketWindow(t *testing.T) {
	if b := rttBucket(0); b != 0 {
		t.Errorf("rttBucket(0) = %d", b)
	}
	if b := rttBucket(512); b != 0 {
		t.Errorf("rttBucket(512) = %d, want clamp to 0", b)
	}
	if b := rttBucket(^uint64(0)); b != RTTHistBuckets-1 {
		t.Errorf("rttBucket(max) = %d, want clamp to %d", b, RTTHistBuckets-1)
	}
	// Monotone within the window, and the upper bound covers every
	// in-window value (values past the window clamp to the last bucket
	// whose bound they exceed — that is the clamp check above).
	prev := uint32(0)
	for ns := uint64(1 << 10); ns < 1<<(rttHistMinBits+RTTHistBuckets-1); ns <<= 1 {
		b := rttBucket(ns)
		if b < prev {
			t.Fatalf("rttBucket not monotone at %d ns", ns)
		}
		prev = b
		if upper := RTTHistUpper(int(b)); uint64(upper) < ns {
			t.Errorf("bucket %d upper %d < value %d", b, upper, ns)
		}
	}
}

// TestFlowTableMemoryAccounting sanity-checks the two memory accessors
// the scale sweep tables: the exact tier scales with FlowTableSize,
// the sketch tier does not.
func TestFlowTableMemoryAccounting(t *testing.T) {
	small := New(Config{FlowTableSize: 128})
	big := New(Config{FlowTableSize: 4096})
	if small.FlowTableMemoryBytes() >= big.FlowTableMemoryBytes() {
		t.Error("exact-tier footprint does not scale with table size")
	}
	if small.LeanMemoryBytes() != big.LeanMemoryBytes() {
		t.Error("sketch-tier footprint changed with table size")
	}
	if small.LeanMemoryBytes() == 0 {
		t.Error("LeanMemoryBytes = 0")
	}
}

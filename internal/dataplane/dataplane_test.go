package dataplane

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/tap"
)

func flow() packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   packet.MustAddr("172.16.0.10"),
		DstIP:   packet.MustAddr("192.168.1.10"),
		SrcPort: 40001,
		DstPort: 5201,
		Proto:   packet.ProtoTCP,
	}
}

func ingress(p *packet.Packet, at simtime.Time) tap.Copy {
	return tap.Copy{Pkt: p, Point: tap.Ingress, At: at}
}

func egress(p *packet.Packet, at simtime.Time) tap.Copy {
	return tap.Copy{Pkt: p, Point: tap.Egress, At: at}
}

func dataPkt(ft packet.FiveTuple, seq uint64, payload int, ipid uint16) *packet.Packet {
	p := packet.NewTCP(ft, seq, 0, packet.FlagACK|packet.FlagPSH, payload)
	p.IPID = ipid
	return p
}

func ackPkt(ft packet.FiveTuple, ack uint64, ipid uint16) *packet.Packet {
	p := packet.NewTCP(ft.Reverse(), 1, ack, packet.FlagACK, 0)
	p.IPID = ipid
	return p
}

func TestConfigDefaultThresholds(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.LongFlowBytes != 1<<20 || c.BurstFloor != simtime.Millisecond {
		t.Fatalf("detector thresholds do not match the defaults: %+v", c)
	}
}

func TestHashDeterministicAndDirectional(t *testing.T) {
	ft := flow()
	if HashFiveTuple(ft) != HashFiveTuple(ft) {
		t.Fatal("hash must be deterministic")
	}
	if HashFiveTuple(ft) == HashReverse(ft) {
		t.Fatal("forward and reverse IDs must differ")
	}
	if HashReverse(ft) != HashFiveTuple(ft.Reverse()) {
		t.Fatal("reverse hash must equal hash of reversed tuple")
	}
}

func TestByteAndPacketCounting(t *testing.T) {
	d := New(Config{})
	ft := flow()
	id := HashFiveTuple(ft)
	d.ProcessCopy(ingress(dataPkt(ft, 1, 1000, 1), 10))
	d.ProcessCopy(ingress(dataPkt(ft, 1001, 500, 2), 20))
	s := d.ReadFlow(id, HashReverse(ft))
	wantBytes := uint64(2*40) + 1500 // two IPv4+TCP headers + payloads
	if s.Bytes != wantBytes {
		t.Fatalf("bytes=%d, want %d", s.Bytes, wantBytes)
	}
	if s.Pkts != 2 {
		t.Fatalf("pkts=%d", s.Pkts)
	}
	if s.FirstSeen != 10 || s.LastSeen != 20 {
		t.Fatalf("seen stamps %v %v", s.FirstSeen, s.LastSeen)
	}
}

func TestAlgorithm1RTT(t *testing.T) {
	// A data packet at t=1ms and its exact cumulative ACK at t=51ms
	// must produce a 50ms RTT sample stored at the ACK flow's ID.
	d := New(Config{})
	ft := flow()
	dp := dataPkt(ft, 1, 1448, 1)
	d.ProcessCopy(ingress(dp, simtime.Millisecond))
	ack := ackPkt(ft, dp.ExpectedAck(), 1)
	d.ProcessCopy(ingress(ack, 51*simtime.Millisecond))

	s := d.ReadFlow(HashFiveTuple(ft), HashReverse(ft))
	if s.RTT != 50*simtime.Millisecond {
		t.Fatalf("RTT=%v, want 50ms", s.RTT)
	}
	if d.Stats.RTTSamples != 1 {
		t.Fatalf("samples=%d", d.Stats.RTTSamples)
	}
}

func TestAlgorithm1RTTNoMatchForUnrelatedAck(t *testing.T) {
	d := New(Config{})
	ft := flow()
	d.ProcessCopy(ingress(dataPkt(ft, 1, 1448, 1), simtime.Millisecond))
	// ACK number that corresponds to no stored eACK: no sample.
	d.ProcessCopy(ingress(ackPkt(ft, 999999, 2), 51*simtime.Millisecond))
	if d.Stats.RTTSamples != 0 {
		t.Fatal("unrelated ACK must not produce an RTT sample")
	}
}

func TestAlgorithm1CumulativeAckMatchesLastSegment(t *testing.T) {
	// Delayed ACKs acknowledge every 2nd segment; the cumulative ACK
	// equals the eACK of the last covered segment, which still matches.
	d := New(Config{})
	ft := flow()
	p1 := dataPkt(ft, 1, 1448, 1)
	p2 := dataPkt(ft, 1449, 1448, 2)
	d.ProcessCopy(ingress(p1, 0))
	d.ProcessCopy(ingress(p2, simtime.Microsecond))
	d.ProcessCopy(ingress(ackPkt(ft, p2.ExpectedAck(), 3), 40*simtime.Millisecond))
	s := d.ReadFlow(HashFiveTuple(ft), HashReverse(ft))
	if d.Stats.RTTSamples != 1 {
		t.Fatalf("samples=%d, want 1", d.Stats.RTTSamples)
	}
	if s.RTT < 39*simtime.Millisecond || s.RTT > 40*simtime.Millisecond {
		t.Fatalf("RTT=%v", s.RTT)
	}
}

func TestAlgorithm1PacketLossOnSequenceRegression(t *testing.T) {
	// Algorithm 1: a sequence number lower than the previous one is a
	// retransmission, counted as a packet loss.
	d := New(Config{})
	ft := flow()
	id := HashFiveTuple(ft)
	d.ProcessCopy(ingress(dataPkt(ft, 1, 1448, 1), 0))
	d.ProcessCopy(ingress(dataPkt(ft, 1449, 1448, 2), 1))
	d.ProcessCopy(ingress(dataPkt(ft, 2897, 1448, 3), 2))
	// Retransmission of the first segment.
	d.ProcessCopy(ingress(dataPkt(ft, 1, 1448, 4), 3))
	s := d.ReadFlow(id, HashReverse(ft))
	if s.PktLoss != 1 {
		t.Fatalf("loss=%d, want 1", s.PktLoss)
	}
	// In-order continuation, and a resend of the latest segment (not
	// below the previous one), must not add losses.
	d.ProcessCopy(ingress(dataPkt(ft, 4345, 1448, 5), 4))
	d.ProcessCopy(ingress(dataPkt(ft, 4345, 1448, 6), 5))
	if got := d.ReadFlow(id, HashReverse(ft)).PktLoss; got != 1 {
		t.Fatalf("loss=%d after in-order resume and a resend of the latest segment", got)
	}
}

func TestRetransmittedSegmentDoesNotRefreshEACK(t *testing.T) {
	// Algorithm 1 only stores the eACK on the in-order branch, so a
	// retransmission must not overwrite the original timestamp (which
	// would understate RTT).
	d := New(Config{})
	ft := flow()
	p := dataPkt(ft, 1, 1448, 1)
	d.ProcessCopy(ingress(p, simtime.Millisecond))
	d.ProcessCopy(ingress(dataPkt(ft, 1449, 1448, 2), simtime.Millisecond+simtime.Microsecond))
	// Retransmit of seq 1 at t=30ms (lower than prevSeq → loss branch).
	d.ProcessCopy(ingress(dataPkt(ft, 1, 1448, 3), 30*simtime.Millisecond))
	d.ProcessCopy(ingress(ackPkt(ft, p.ExpectedAck(), 4), 51*simtime.Millisecond))
	s := d.ReadFlow(HashFiveTuple(ft), HashReverse(ft))
	if s.RTT != 50*simtime.Millisecond {
		t.Fatalf("RTT=%v, want 50ms measured from the original transmission", s.RTT)
	}
}

func TestLongFlowAnnouncement(t *testing.T) {
	d := New(Config{LongFlowBytes: 10_000})
	ft := flow()
	var events []LongFlowEvent
	d.OnLongFlow = func(ev LongFlowEvent) { events = append(events, ev) }
	for i := 0; i < 20; i++ {
		d.ProcessCopy(ingress(dataPkt(ft, uint64(1+i*1000), 1000, uint16(i)), simtime.Time(i)))
	}
	if len(events) != 1 {
		t.Fatalf("announcements=%d, want exactly 1", len(events))
	}
	ev := events[0]
	if ev.ID != HashFiveTuple(ft) || ev.RevID != HashReverse(ft) {
		t.Fatal("announcement IDs wrong")
	}
	if ev.Tuple != ft {
		t.Fatal("announcement tuple wrong")
	}
	if ev.Bytes < 10_000 {
		t.Fatalf("announced at %d bytes, below threshold", ev.Bytes)
	}
}

func TestShortFlowNotAnnounced(t *testing.T) {
	d := New(Config{LongFlowBytes: 1 << 20})
	ft := flow()
	announced := false
	d.OnLongFlow = func(LongFlowEvent) { announced = true }
	for i := 0; i < 5; i++ {
		d.ProcessCopy(ingress(dataPkt(ft, uint64(1+i*100), 100, uint16(i)), simtime.Time(i)))
	}
	if announced {
		t.Fatal("mouse flow must not be announced")
	}
}

func TestQueuingDelayFromTapPair(t *testing.T) {
	// §4.2: queuing delay = egress-copy time − ingress-copy time.
	d := New(Config{})
	ft := flow()
	id := HashFiveTuple(ft)
	p := dataPkt(ft, 1, 1448, 42)
	d.ProcessCopy(ingress(p, 100*simtime.Microsecond))
	d.ProcessCopy(egress(p, 350*simtime.Microsecond))
	s := d.ReadFlow(id, HashReverse(ft))
	if s.QDelay != 250*simtime.Microsecond {
		t.Fatalf("qdelay=%v, want 250us", s.QDelay)
	}
	if d.CurrentQueueDelay() != 250*simtime.Microsecond {
		t.Fatal("per-port queue delay not updated")
	}
}

func TestEgressWithoutIngressIsMismatch(t *testing.T) {
	d := New(Config{})
	p := dataPkt(flow(), 1, 1448, 7)
	d.ProcessCopy(egress(p, simtime.Millisecond))
	if d.Stats.QSigMismatches != 1 {
		t.Fatalf("mismatches=%d", d.Stats.QSigMismatches)
	}
}

func TestMicroburstDetection(t *testing.T) {
	// Drive per-packet queue delays through a burst profile: quiet
	// baseline, sudden spike far above it, decay back to quiet.
	d := New(Config{BurstFloor: simtime.Millisecond})
	ft := flow()
	var events []MicroburstEvent
	d.OnMicroburst = func(ev MicroburstEvent) { events = append(events, ev) }

	delays := []simtime.Time{
		10 * simtime.Microsecond,
		50 * simtime.Microsecond,
		1500 * simtime.Microsecond, // burst starts
		2500 * simtime.Microsecond, // peak
		800 * simtime.Microsecond,
		100 * simtime.Microsecond, // burst ends
		20 * simtime.Microsecond,
	}
	at := 10 * simtime.Millisecond
	for i, qd := range delays {
		at += 100 * simtime.Microsecond
		p := dataPkt(ft, uint64(1+i*1000), 1000, uint16(i))
		d.ProcessCopy(ingress(p, at-qd))
		d.ProcessCopy(egress(p, at))
	}
	if len(events) != 1 {
		t.Fatalf("bursts=%d, want 1", len(events))
	}
	ev := events[0]
	if ev.PeakDelay != 2500*simtime.Microsecond {
		t.Fatalf("peak=%v", ev.PeakDelay)
	}
	if ev.Packets != 4 { // spike, peak, decay, end
		t.Fatalf("packets=%d", ev.Packets)
	}
	if ev.Duration <= 0 {
		t.Fatalf("duration=%v", ev.Duration)
	}
}

func TestNoMicroburstBelowWatermark(t *testing.T) {
	d := New(Config{BurstFloor: simtime.Millisecond})
	ft := flow()
	fired := false
	d.OnMicroburst = func(MicroburstEvent) { fired = true }
	at := 10 * simtime.Millisecond
	for i := 0; i < 50; i++ {
		at += 100 * simtime.Microsecond
		p := dataPkt(ft, uint64(1+i*1000), 1000, uint16(i))
		d.ProcessCopy(ingress(p, at-500*simtime.Microsecond)) // steady 500us
		d.ProcessCopy(egress(p, at))
	}
	if fired {
		t.Fatal("steady queue must not register as a burst")
	}
}

func TestNoMicroburstOnGradualRamp(t *testing.T) {
	// A standing queue built gradually (the CUBIC sawtooth) must not
	// register as microbursts: the EWMA baseline tracks slow change.
	d := New(Config{BurstFloor: simtime.Millisecond})
	ft := flow()
	bursts := 0
	d.OnMicroburst = func(MicroburstEvent) { bursts++ }
	at := 100 * simtime.Millisecond
	qd := 100 * simtime.Microsecond
	for i := 0; i < 2000; i++ {
		at += 100 * simtime.Microsecond
		// Ramp the queue by 0.5% per packet up to 20ms, then sawtooth.
		qd += qd / 200
		if qd > 20*simtime.Millisecond {
			qd = 10 * simtime.Millisecond
		}
		p := dataPkt(ft, uint64(1+i*1000), 1000, uint16(i))
		d.ProcessCopy(ingress(p, at-qd))
		d.ProcessCopy(egress(p, at))
	}
	if bursts != 0 {
		t.Fatalf("gradual ramp registered %d bursts", bursts)
	}
}

func TestMicroburstAboveStandingQueue(t *testing.T) {
	// A genuine microburst on top of an established standing queue
	// must still be caught: suddenness is relative to the baseline.
	d := New(Config{BurstFloor: simtime.Millisecond})
	ft := flow()
	var events []MicroburstEvent
	d.OnMicroburst = func(ev MicroburstEvent) { events = append(events, ev) }
	at := 100 * simtime.Millisecond
	send := func(qd simtime.Time) {
		at += 100 * simtime.Microsecond
		p := dataPkt(ft, uint64(at), 1000, uint16(at/1000))
		d.ProcessCopy(ingress(p, at-qd))
		d.ProcessCopy(egress(p, at))
	}
	for i := 0; i < 500; i++ {
		send(2 * simtime.Millisecond) // standing queue at 2ms
	}
	for i := 0; i < 10; i++ {
		send(15 * simtime.Millisecond) // the burst
	}
	for i := 0; i < 100; i++ {
		send(2 * simtime.Millisecond) // back to standing
	}
	if len(events) != 1 {
		t.Fatalf("bursts=%d, want 1", len(events))
	}
	if events[0].PeakDelay != 15*simtime.Millisecond {
		t.Fatalf("peak=%v", events[0].PeakDelay)
	}
}

func TestFlightSizeTracking(t *testing.T) {
	d := New(Config{})
	ft := flow()
	id := HashFiveTuple(ft)
	// Send 3 segments, ack the first: flight = 2 segments' bytes.
	p1 := dataPkt(ft, 1, 1000, 1)
	p2 := dataPkt(ft, 1001, 1000, 2)
	p3 := dataPkt(ft, 2001, 1000, 3)
	d.ProcessCopy(ingress(p1, 1))
	d.ProcessCopy(ingress(p2, 2))
	d.ProcessCopy(ingress(p3, 3))
	d.ProcessCopy(ingress(ackPkt(ft, p1.ExpectedAck(), 4), 4))
	s := d.ReadFlow(id, HashReverse(ft))
	if s.Flight != 2000 {
		t.Fatalf("flight=%d, want 2000", s.Flight)
	}
	if !s.HasFlightWindow() {
		t.Fatal("flight window must have samples after an ACK")
	}
}

func TestFlightWindowResetByControlPlane(t *testing.T) {
	d := New(Config{})
	ft := flow()
	id := HashFiveTuple(ft)
	p1 := dataPkt(ft, 1, 1000, 1)
	d.ProcessCopy(ingress(p1, 1))
	d.ProcessCopy(ingress(ackPkt(ft, p1.ExpectedAck(), 2), 2))
	d.ResetWindow(id)
	s := d.ReadFlow(id, HashReverse(ft))
	if s.HasFlightWindow() {
		t.Fatal("window must be empty after reset")
	}
	if s.FlightMaxW != 0 || s.MaxIAT != 0 {
		t.Fatal("window registers not cleared")
	}
}

func TestIATTracking(t *testing.T) {
	d := New(Config{})
	ft := flow()
	id := HashFiveTuple(ft)
	d.ProcessCopy(ingress(dataPkt(ft, 1, 1000, 1), 1*simtime.Millisecond))
	d.ProcessCopy(ingress(dataPkt(ft, 1001, 1000, 2), 2*simtime.Millisecond))
	d.ProcessCopy(ingress(dataPkt(ft, 2001, 1000, 3), 30*simtime.Millisecond))
	s := d.ReadFlow(id, HashReverse(ft))
	if s.MaxIAT != 28*simtime.Millisecond {
		t.Fatalf("maxIAT=%v, want 28ms", s.MaxIAT)
	}
}

func TestFINSeen(t *testing.T) {
	d := New(Config{})
	ft := flow()
	id := HashFiveTuple(ft)
	fin := packet.NewTCP(ft, 5000, 1, packet.FlagFIN|packet.FlagACK, 0)
	fin.IPID = 9
	d.ProcessCopy(ingress(fin, 10))
	if !d.ReadFlow(id, HashReverse(ft)).FinSeen {
		t.Fatal("FIN not recorded")
	}
}

func TestReleaseFlowClearsState(t *testing.T) {
	d := New(Config{LongFlowBytes: 1000})
	ft := flow()
	id := HashFiveTuple(ft)
	announcements := 0
	d.OnLongFlow = func(LongFlowEvent) { announcements++ }
	d.ProcessCopy(ingress(dataPkt(ft, 1, 1000, 1), 1))
	if announcements != 1 {
		t.Fatalf("announcements=%d", announcements)
	}
	d.ReleaseFlow(id)
	s := d.ReadFlow(id, HashReverse(ft))
	if s.Bytes != 0 || s.Pkts != 0 || s.FirstSeen != 0 {
		t.Fatal("release did not clear counters")
	}
	// CMS still remembers the flow, so the very next packet re-announces;
	// after a CMS clear it must not.
	d.ClearCMS()
	d.ProcessCopy(ingress(dataPkt(ft, 2001, 100, 2), 2))
	if announcements != 1 {
		t.Fatalf("flow re-announced after CMS clear: %d", announcements)
	}
}

func TestSlotCollisionCounting(t *testing.T) {
	// A 1-slot table forces every distinct flow onto the same cell.
	d := New(Config{FlowTableSize: 1})
	ftA := flow()
	ftB := flow()
	ftB.SrcPort = 40002
	d.ProcessCopy(ingress(dataPkt(ftA, 1, 100, 1), 1))
	d.ProcessCopy(ingress(dataPkt(ftB, 1, 100, 2), 2))
	if d.Stats.SlotCollisions == 0 {
		t.Fatal("collision not detected")
	}
}

func TestCMSEstimateNeverUnderestimates(t *testing.T) {
	// Count-min property: estimate >= true count, always.
	cms := NewCMS(64, 2)
	type fc struct {
		ft    packet.FiveTuple
		count uint64
	}
	var flows []fc
	base := flow()
	for i := 0; i < 200; i++ {
		ft := base
		ft.SrcPort = uint16(1000 + i)
		c := uint64((i%7 + 1) * 100)
		for j := uint64(0); j < c; j += 100 {
			cms.UpdateKey(KeyOf(ft), 100)
		}
		flows = append(flows, fc{ft, c})
	}
	for _, f := range flows {
		k := KeyOf(f.ft)
		if est := cms.s.At(cmsHash(&k)); est < f.count {
			t.Fatalf("CMS underestimated: est=%d true=%d", est, f.count)
		}
	}
}

func TestCMSExactWhenSparse(t *testing.T) {
	cms := NewCMS(8192, 4)
	ft := flow()
	k := KeyOf(ft)
	cms.UpdateKey(k, 500)
	cms.UpdateKey(k, 700)
	if est := cms.s.At(cmsHash(&k)); est != 1200 {
		t.Fatalf("sparse estimate %d, want exact 1200", est)
	}
}

func TestRegisterSemantics(t *testing.T) {
	r := NewRegister("t", 8, 64)
	r.Write(3, 42)
	if r.Read(3) != 42 || r.Read(11) != 42 { // 11 mod 8 == 3
		t.Fatal("index folding broken")
	}
	r.Add(3, 8)
	if r.Read(3) != 50 {
		t.Fatal("Add broken")
	}
	r.Max(3, 10)
	if r.Read(3) != 50 {
		t.Fatal("Max lowered a value")
	}
	r.Max(3, 99)
	if r.Read(3) != 99 {
		t.Fatal("Max did not raise")
	}
}

// TestRegisterTruncatesToWidth: a cell holds what a Tofino register of
// the declared width holds. An over-wide Write keeps the low bits, Add
// wraps at 2^width and Max compares the truncated value.
func TestRegisterTruncatesToWidth(t *testing.T) {
	for _, width := range []int{1, 32, 48} {
		mod := uint64(1) << width
		r := NewRegister("w", 4, width)
		r.Write(0, mod+1)
		if got := r.Read(0); got != 1 {
			t.Errorf("width %d: Write(2^w+1) stored %d, want 1", width, got)
		}
		r.Write(1, mod-1)
		r.Add(1, 2)
		if got := r.Read(1); got != 1 {
			t.Errorf("width %d: (2^w-1)+2 stored %d, want 1 (wrap)", width, got)
		}
		r.Max(2, mod) // truncates to 0: no raise
		if got := r.Read(2); got != 0 {
			t.Errorf("width %d: Max(2^w) raised the cell to %d", width, got)
		}
		r.Max(2, mod|1)
		if got := r.Read(2); got != 1 {
			t.Errorf("width %d: Max(2^w|1) stored %d, want 1", width, got)
		}
	}
}

func TestElapsed(t *testing.T) {
	const wrap = simtime.Time(1) << 48
	const half = simtime.Time(1)<<47 - 1
	for _, c := range []struct {
		now, stamp, want simtime.Time
	}{
		{0, 0, 0},
		{5, 4, 1},
		{4, 5, -1},
		{half, 0, half},
		{0, half, -half},
		{wrap + 3, wrap - 2, 5},                // both sides of the wrap, full stamps
		{wrap + 3, (wrap - 2) & (wrap - 1), 5}, // stamp as a 48-bit register holds it
		{3, wrap - 2, 5},                       // now already folded past the wrap
		{(wrap - 2) & (wrap - 1), wrap + 3, -5},
	} {
		if got := Elapsed(c.now, c.stamp); got != c.want {
			t.Errorf("Elapsed(%d, %d) = %d, want %d", c.now, c.stamp, got, c.want)
		}
	}
}

func TestEACKEvictionCounted(t *testing.T) {
	// A 1-cell eACK table: the second stored eACK evicts the first.
	d := New(Config{EACKTableSize: 1})
	ft := flow()
	d.ProcessCopy(ingress(dataPkt(ft, 1, 1000, 1), 1))
	d.ProcessCopy(ingress(dataPkt(ft, 1001, 1000, 2), 2))
	if d.Stats.EACKEvictions != 1 {
		t.Fatalf("evictions=%d, want 1", d.Stats.EACKEvictions)
	}
}

func TestUDPFlowCountedButNoTCPAlgorithms(t *testing.T) {
	d := New(Config{})
	ft := flow()
	ft.Proto = packet.ProtoUDP
	id := HashFiveTuple(ft)
	p := packet.NewUDP(ft, 1200)
	p.IPID = 1
	d.ProcessCopy(ingress(p, 5))
	s := d.ReadFlow(id, HashReverse(ft))
	if s.Bytes == 0 || s.Pkts != 1 {
		t.Fatal("UDP bytes not counted")
	}
	if s.PktLoss != 0 || s.RTT != 0 {
		t.Fatal("UDP must not exercise TCP algorithms")
	}
}

func BenchmarkProcessIngressData(b *testing.B) {
	d := New(Config{})
	ft := flow()
	p := dataPkt(ft, 1, 8960, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.SeqExt = uint64(1 + i*8960)
		p.IPID = uint16(i)
		d.ProcessCopy(ingress(p, simtime.Time(i)))
	}
}

func BenchmarkProcessAck(b *testing.B) {
	d := New(Config{})
	ft := flow()
	a := ackPkt(ft, 1449, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.AckExt = uint64(1 + i*1448)
		d.ProcessCopy(ingress(a, simtime.Time(i)))
	}
}

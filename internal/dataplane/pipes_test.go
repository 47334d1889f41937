package dataplane

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/tap"
)

// traceFlow returns the i-th synthetic 5-tuple of the merge-property
// trace: internal DTN to one of three external networks, distinct
// source ports.
func traceFlow(i int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   packet.MustAddr("172.16.0.10"),
		DstIP:   packet.MustAddr(fmt.Sprintf("192.168.%d.10", i%3+1)),
		SrcPort: uint16(40000 + i),
		DstPort: 5201,
		Proto:   packet.ProtoTCP,
	}
}

// buildTrace constructs a deterministic bidirectional packet trace:
// per flow, interleaved data segments (with a couple of injected
// retransmissions to exercise Algorithm 1's loss branch), matching
// cumulative ACKs in the reverse direction, and egress copies of the
// data packets at a fixed transit delay. Copies are returned in
// global timestamp order, as the TAP pair would deliver them.
func buildTrace(flows, pktsPerFlow int) []tap.Copy {
	var trace []tap.Copy
	const mss = 1448
	const transit = 200 * simtime.Microsecond
	for k := 0; k < pktsPerFlow; k++ {
		for i := 0; i < flows; i++ {
			ft := traceFlow(i)
			at := simtime.Millisecond + simtime.Time(k)*simtime.Millisecond + simtime.Time(i)*simtime.Microsecond
			seq := uint64(1 + k*mss)
			if k > 0 && k%7 == 0 {
				// Injected retransmission: sequence regression.
				seq = uint64(1 + (k-1)*mss)
			}
			data := packet.NewTCP(ft, seq, 0, packet.FlagACK|packet.FlagPSH, mss)
			data.IPID = uint16(i*1000 + k + 1)
			trace = append(trace, tap.Copy{Pkt: data, Point: tap.Ingress, At: at})
			trace = append(trace, tap.Copy{Pkt: data, Point: tap.Egress, At: at + transit})
			// The receiver acknowledges promptly.
			ack := packet.NewTCP(ft.Reverse(), 1, seq+mss, packet.FlagACK, 0)
			ack.IPID = uint16(i*1000 + k + 1)
			trace = append(trace, tap.Copy{Pkt: ack, Point: tap.Ingress, At: at + transit*2})
		}
	}
	sort.SliceStable(trace, func(a, b int) bool { return trace[a].At < trace[b].At })
	return trace
}

// traceConfig is the pipeline configuration of the trace tests: a
// long-flow threshold low enough that every flow announces.
var traceConfig = Config{LongFlowBytes: 64 << 10}

// runTrace feeds the trace through a fresh front-end with the given
// shard count, collecting long-flow announcements.
func runTrace(trace []tap.Copy, shards int) (*Pipes, []LongFlowEvent) {
	p := NewPipes(traceConfig, shards)
	var announced []LongFlowEvent
	p.SetLongFlowHandler(func(ev LongFlowEvent) { announced = append(announced, ev) })
	for _, c := range trace {
		p.ProcessCopy(c)
	}
	p.Flush()
	return p, announced
}

// perFlowRegister reports whether a register is indexed by flow-table
// cell. The others are the port-level signature tables (eack_*, q*): hashed
// scratch state in which a never-consumed stamp survives on its own
// shard but is overwritten on a single pipe, so their cells are not
// comparable one to one and the properties check them through what
// they produce (RTT samples, queue delays, mismatch counters).
func perFlowRegister(d *DataPlane, name string) bool {
	return d.RegisterByName(name).slot < d.perFlow
}

// AssertMergedEqualsSinglePipe is the differential property itself:
// every merged read of got equals what the single pipe want holds.
// Exported to the package's external tests (the fuzz target imports
// internal/replay, which imports this package).
func AssertMergedEqualsSinglePipe(t testing.TB, got *Pipes, want *DataPlane, flows []packet.FiveTuple) {
	t.Helper()
	for _, ft := range flows {
		id, rev := HashFiveTuple(ft), HashReverse(ft)
		if g, w := got.ReadFlow(id, rev), want.ReadFlow(id, rev); g != w {
			t.Fatalf("flow %v: merged snapshot %+v, single-pipe %+v", ft, g, w)
		}
		if g, w := got.ReadRTTHist(id), want.ReadRTTHist(id); g != w {
			t.Fatalf("flow %v: merged RTT histogram %v, single-pipe %v", ft, g, w)
		}
		for _, key := range []FlowKey{KeyOf(ft), KeyOf(ft.Reverse())} {
			if g, w := got.EstimateFlow(key), estimateFlow(want, key); g != w {
				t.Fatalf("flow %v: merged estimate %+v, single-pipe %+v", ft, g, w)
			}
		}
	}
	for _, name := range got.Shard(0).RegisterNames() {
		if !perFlowRegister(want, name) {
			continue
		}
		reg := want.RegisterByName(name)
		for idx := uint32(0); idx < uint32(reg.Size()); idx++ {
			if g, _ := got.ReadRegister(name, idx); g != reg.Read(idx) {
				t.Fatalf("register %s[%d]: merged %d, single-pipe %d", name, idx, g, reg.Read(idx))
			}
		}
	}
	if g, w := got.StatsSnapshot(), want.Stats; g != w {
		t.Fatalf("merged stats %+v, single-pipe %+v", g, w)
	}
	if g, w := got.OccupiedCells(), want.OccupiedCells(); g != w {
		t.Fatalf("merged occupancy %d, single-pipe %d", g, w)
	}
}

// ShardOf is the partition's choice of pipe for a key, exported to the
// package's external tests.
func ShardOf(k FlowKey, n int) int { return shardOf(k, n) }

// TestPipesShardPartitionSymmetric pins the canonical keying: both
// directions of a flow must land on the same shard, or Algorithm 1's
// eACK match (stored by the data direction, consumed by the ACK
// direction) breaks across pipes.
func TestPipesShardPartitionSymmetric(t *testing.T) {
	for i := 0; i < 200; i++ {
		ft := traceFlow(i)
		for _, n := range []int{2, 3, 4, 7, 16} {
			fwd := shardOf(KeyOf(ft), n)
			rev := shardOf(KeyOf(ft.Reverse()), n)
			if fwd != rev {
				t.Fatalf("flow %d at %d shards: forward on %d, reverse on %d", i, n, fwd, rev)
			}
			if fwd < 0 || fwd >= n {
				t.Fatalf("shard %d out of range [0,%d)", fwd, n)
			}
		}
	}
}

// TestPipesShardSpread sanity-checks the partition actually spreads
// flows (a constant partition would pass the merge property while
// parallelising nothing).
func TestPipesShardSpread(t *testing.T) {
	const n = 4
	var used [n]int
	for i := 0; i < 256; i++ {
		used[shardOf(KeyOf(traceFlow(i)), n)]++
	}
	for s, c := range used {
		if c == 0 {
			t.Fatalf("shard %d received no flows out of 256", s)
		}
	}
}

// TestPipesSingleShardForwardsSynchronously pins the one-shard ingest
// branch: no batching, events delivered inline during ProcessCopy.
func TestPipesSingleShardForwardsSynchronously(t *testing.T) {
	p := NewPipes(Config{LongFlowBytes: 2048}, 1)
	fired := 0
	p.SetLongFlowHandler(func(ev LongFlowEvent) {
		fired++
		if ev.Shard != 0 {
			t.Fatalf("single-pipe event shard = %d", ev.Shard)
		}
	})
	ft := traceFlow(0)
	for k := 0; k < 4; k++ {
		data := packet.NewTCP(ft, uint64(1+k*1448), 0, packet.FlagACK|packet.FlagPSH, 1448)
		data.IPID = uint16(k + 1)
		p.ProcessCopy(tap.Copy{Pkt: data, Point: tap.Ingress, At: simtime.Time(k+1) * simtime.Millisecond})
	}
	if fired != 1 {
		t.Fatalf("long-flow announcements = %d, want 1 (inline)", fired)
	}
	if got := p.StatsSnapshot().IngressCopies; got != 4 {
		t.Fatalf("ingress copies = %d", got)
	}
}

// TestPipesDeferredEventsCarryShard verifies shards>1 semantics: the
// announcement is deferred to the barrier (batching), carries the
// originating shard id, and keeps the packet-time timestamp.
func TestPipesDeferredEventsCarryShard(t *testing.T) {
	p := NewPipes(Config{LongFlowBytes: 2048}, 4)
	var got []LongFlowEvent
	p.SetLongFlowHandler(func(ev LongFlowEvent) { got = append(got, ev) })
	ft := traceFlow(0)
	var last simtime.Time
	for k := 0; k < 4; k++ {
		data := packet.NewTCP(ft, uint64(1+k*1448), 0, packet.FlagACK|packet.FlagPSH, 1448)
		data.IPID = uint16(k + 1)
		last = simtime.Time(k+1) * simtime.Millisecond
		p.ProcessCopy(tap.Copy{Pkt: data, Point: tap.Ingress, At: last})
	}
	if len(got) != 0 {
		t.Fatalf("event delivered before the barrier")
	}
	p.Flush()
	if len(got) != 1 {
		t.Fatalf("announcements after flush = %d, want 1", len(got))
	}
	if want := shardOf(KeyOf(ft), 4); got[0].Shard != want {
		t.Fatalf("event shard = %d, want %d", got[0].Shard, want)
	}
	if got[0].At > last {
		t.Fatalf("event timestamp %v is later than the packets that caused it (%v)", got[0].At, last)
	}
}

// TestPipesConcurrentExtraction hammers every merged read API from
// reader goroutines while a writer streams a trace through
// ProcessCopy — the -race test for the sharded front-end's locking
// (shard replay goroutines included). Final totals must still match the trace.
func TestPipesConcurrentExtraction(t *testing.T) {
	trace := buildTrace(16, 40)
	p := NewPipes(Config{}, 4)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ft := traceFlow(r)
				p.ReadFlow(HashFiveTuple(ft), HashReverse(ft))
				p.StatsSnapshot()
				p.OccupiedCells()
				p.ReadRTTHist(HashFiveTuple(ft))
				p.ReadRegister("flow_bytes", 7)
				p.EstimateFlow(KeyOf(ft))
			}
		}()
	}
	for _, c := range trace {
		p.ProcessCopy(c)
	}
	close(done)
	wg.Wait()
	p.Flush()
	st := p.StatsSnapshot()
	if want := uint64(16 * 40 * 2); st.IngressCopies != want {
		t.Fatalf("ingress copies = %d, want %d", st.IngressCopies, want)
	}
	if want := uint64(16 * 40); st.EgressCopies != want {
		t.Fatalf("egress copies = %d, want %d", st.EgressCopies, want)
	}
}

// TestPipesRegisterMergeSemantics: an unknown name or an index past the
// register's size is rejected with an error naming it, never folded onto
// the cell it aliases. (What the merged cells hold is the split
// fuzzer's property.)
func TestPipesRegisterMergeSemantics(t *testing.T) {
	sharded, _ := runTrace(buildTrace(8, 20), 4)
	if _, err := sharded.ReadRegister("bogus", 0); err == nil {
		t.Fatal("unknown register accepted")
	}
	for _, name := range sharded.Shard(0).RegisterNames() {
		size := uint32(sharded.Shard(0).RegisterByName(name).Size())
		if _, err := sharded.ReadRegister(name, size-1); err != nil {
			t.Fatalf("register %q: last cell refused: %v", name, err)
		}
		_, err := sharded.ReadRegister(name, size)
		if err == nil {
			t.Fatalf("register %q: index %d on a %d-cell register accepted", name, size, size)
		}
		if want := fmt.Sprintf("index %d out of range (size %d)", size, size); !strings.Contains(err.Error(), want) {
			t.Fatalf("register %q: error %q does not say %q", name, err, want)
		}
	}
}

// TestPipesPerFlowCallsGoToOwningShard: each pipe runs its own
// admission, so at two shards a flow and another flow whose shard
// follows the reverse direction's ID can own the same cell index on
// different shards. Every per-flow call must reach only the flow's own
// cell: a read counts its packets alone, a window reset and a release
// leave the other flow's cell — and so its estimate — whole.
func TestPipesPerFlowCallsGoToOwningShard(t *testing.T) {
	const shards, cells = 2, 64
	// a is a trace flow, whose shard follows its own ID; b sends in the
	// reverse direction of another trace connection, so its shard
	// follows that connection's forward ID, not b's.
	var a, b packet.FiveTuple
	for i := 0; i < 64 && a == b; i++ {
		for j := 0; j < 64; j++ {
			fa, fb := traceFlow(i), traceFlow(j).Reverse()
			if uint32(HashFiveTuple(fa))%cells == uint32(HashFiveTuple(fb))%cells &&
				shardOf(KeyOf(fa), shards) != shardOf(KeyOf(fb), shards) {
				a, b = fa, fb
				break
			}
		}
	}
	if a == b {
		t.Fatal("no cross-shard pair sharing a cell among 64×64 candidates")
	}
	p := NewPipes(Config{FlowTableSize: cells}, shards)
	at := simtime.Millisecond
	send := func(ft packet.FiveTuple, n int) {
		for k := 0; k < n; k++ {
			at += simtime.Millisecond
			pkt := packet.NewTCP(ft, uint64(1+k*1460), 0, packet.FlagACK, 1460)
			p.ProcessCopy(tap.Copy{Pkt: pkt, Point: tap.Ingress, At: at})
		}
	}
	send(a, 10) // 10 × 1500 B
	send(b, 7)  // 7 × 1500 B
	idA, revA := HashFiveTuple(a), HashReverse(a)
	idB, revB := HashFiveTuple(b), HashReverse(b)
	if got := p.ReadFlow(idA, revA).Bytes; got != 15000 {
		t.Fatalf("ReadFlow(a).Bytes = %d, a sent 15000", got)
	}
	wantB := p.ReadFlow(idB, revB)
	if wantB.Bytes != 10500 || wantB.MaxIAT == 0 {
		t.Fatalf("ReadFlow(b) = %+v, b sent 10500 B a millisecond apart", wantB)
	}
	p.ResetWindow(idA)
	if got := p.ReadFlow(idB, revB); got != wantB {
		t.Fatalf("ResetWindow(a) changed b's cell: %+v, was %+v", got, wantB)
	}
	p.ReleaseFlow(idA)
	if est := p.EstimateFlow(KeyOf(b)); !est.Admitted || est.Bytes < 10500 {
		t.Fatalf("after ReleaseFlow(a), EstimateFlow(b) = %+v; b sent 10500 B", est)
	}
}

// TestRegisterMergeRulesPinned pins the declared cross-shard merge rule
// of every register the pipeline exposes: a new register must state a
// rule in New (the zero rule is none) and be entered here, so it
// cannot inherit one silently.
func TestRegisterMergeRulesPinned(t *testing.T) {
	want := map[string]mergeRule{
		"flow_bytes": mergeSum, "flow_pkts": mergeSum, "pkt_loss": mergeSum,
		"flight": mergeSum, "rtt_hist": mergeSum,
		"first_seen":   mergeFirst,
		"flight_min_w": mergeMin,
		"prev_seq":     mergeMax, "rtt": mergeMax, "qdelay": mergeMax,
		"high_seq": mergeMax, "high_ack": mergeMax, "flight_max_w": mergeMax,
		"last_arrival": mergeMax, "max_iat_w": mergeMax, "last_seen": mergeMax,
		"fin_seen": mergeMax, "announced": mergeMax, "owner_lo": mergeMax,
		"eack_sig": mergeMax, "eack_ts": mergeMax, "qsig": mergeMax, "qts": mergeMax,
	}
	d := New(Config{})
	names := d.RegisterNames()
	if len(names) != len(want) {
		t.Fatalf("pipeline declares %d registers, table pins %d", len(names), len(want))
	}
	for slot, r := range d.regs {
		if r.slot != slot || d.RegisterByName(r.Name()) != r {
			t.Errorf("register %s: slot %d at position %d, or not in the registry", r.Name(), r.slot, slot)
		}
		table := slot >= d.perFlow
		if want := r == d.eackSig || r == d.eackTS || r == d.qSig || r == d.qTS; table != want {
			t.Errorf("register %s: declared as a port-level table %v, want %v", r.Name(), table, want)
		}
	}
	for _, name := range names {
		rule, ok := want[name]
		if got := d.RegisterByName(name).merge; !ok || got != rule {
			t.Errorf("register %s declares merge rule %d, table pins %d (listed: %v)", name, got, rule, ok)
		}
	}
}

// TestMergedReadRules drives mergedRead through each rule on cells
// written by hand, including the identities a silent shard contributes
// (zero for sum/max/first, all-ones for the windowed minimum).
func TestMergedReadRules(t *testing.T) {
	p := NewPipes(Config{}, 3)
	write := func(name string, vals ...uint64) *Register {
		for i, v := range vals {
			p.Shard(i).RegisterByName(name).Write(5, v)
		}
		return p.Shard(0).RegisterByName(name)
	}
	for _, tc := range []struct {
		name string
		vals []uint64
		want uint64
	}{
		{"flow_bytes", []uint64{7, 0, 11}, 18},
		{"last_seen", []uint64{3, 9, 0}, 9},
		{"first_seen", []uint64{0, 9, 4}, 4},
		{"first_seen", []uint64{6, 0, 0}, 6},
		{"flight_min_w", []uint64{flightNoSample, 12, flightNoSample}, 12},
		{"flight_min_w", []uint64{flightNoSample, flightNoSample, flightNoSample}, flightNoSample},
	} {
		if got := p.mergedRead(write(tc.name, tc.vals...), 5); got != tc.want {
			t.Errorf("%s %v: merged %d, want %d", tc.name, tc.vals, got, tc.want)
		}
	}
}

// announceFront parses into f four data segments of each of the first
// flows trace flows, starting at segment k0 — enough bytes to cross
// announceConfig's long-flow threshold on the second segment of a flow.
func announceFront(f *Front, flows, k0 int) {
	for k := k0; k < k0+4; k++ {
		for i := 0; i < flows; i++ {
			data := packet.NewTCP(traceFlow(i), uint64(1+k*1448), 0, packet.FlagACK|packet.FlagPSH, 1448)
			data.IPID = uint16(i*1000 + k + 1)
			at := simtime.Time(k+1)*simtime.Millisecond + simtime.Time(i)*simtime.Microsecond
			f.AppendCopy(tap.Copy{Pkt: data, Point: tap.Ingress, At: at})
		}
	}
}

var announceConfig = Config{LongFlowBytes: 2048}

// TestPipesEventsDeliveredAtJoinPoints pins where the events of a front
// reach the handler above one shard: not when ProcessFront returns (the
// replay it launched is still the shards' business), not from a metrics
// scrape (which only waits), but by the time any barrier or the next
// ingest call returns — all of them, in shard order, with the timestamp
// of the packet that raised them.
func TestPipesEventsDeliveredAtJoinPoints(t *testing.T) {
	const shards, flows = 4, 12
	ref := New(announceConfig)
	wantAt := map[FlowID]simtime.Time{}
	ref.OnLongFlow = func(ev LongFlowEvent) { wantAt[ev.ID] = ev.At }
	f := NewFront(64)
	announceFront(f, flows, 0)
	ref.ProcessFront(f)
	if len(wantAt) != flows {
		t.Fatalf("reference announced %d of %d flows", len(wantAt), flows)
	}

	ft := traceFlow(0)
	for _, join := range []struct {
		name string
		call func(p *Pipes)
	}{
		{"Flush", func(p *Pipes) { p.Flush() }},
		{"ReadFlow", func(p *Pipes) { p.ReadFlow(HashFiveTuple(ft), HashReverse(ft)) }},
		{"StatsSnapshot", func(p *Pipes) { p.StatsSnapshot() }},
		{"AgeFlows", func(p *Pipes) { p.AgeFlows(simtime.Second, 10*simtime.Second) }},
		{"next ProcessFront", func(p *Pipes) {
			next := NewFront(64)
			announceFront(next, flows, 4)
			p.ProcessFront(next)
		}},
	} {
		t.Run(join.name, func(t *testing.T) {
			p := NewPipes(announceConfig, shards)
			r := obs.NewRegistry()
			p.RegisterObs(r)
			var got []LongFlowEvent
			p.SetLongFlowHandler(func(ev LongFlowEvent) { got = append(got, ev) })

			p.ProcessFront(f)
			if len(got) != 0 {
				t.Fatalf("%d events delivered by the ProcessFront that launched their replay", len(got))
			}
			r.Snapshot()
			if len(got) != 0 {
				t.Fatalf("a scrape delivered %d events", len(got))
			}
			join.call(p)
			if len(got) != flows {
				t.Fatalf("%d of %d events delivered when %s returned", len(got), flows, join.name)
			}
			busy := map[int]bool{}
			for k, ev := range got {
				busy[ev.Shard] = true
				if k > 0 && ev.Shard < got[k-1].Shard {
					t.Fatalf("event %d from shard %d follows one from shard %d", k, ev.Shard, got[k-1].Shard)
				}
				if ev.At != wantAt[ev.ID] {
					t.Fatalf("flow %08x announced at %v, its packet was stamped %v", uint32(ev.ID), ev.At, wantAt[ev.ID])
				}
			}
			if len(busy) < 2 {
				t.Fatalf("only %d shard busy: the replay never left the caller's goroutine", len(busy))
			}
		})
	}
}

// TestPipesFlushLeavesNothingInFlight pins the barrier's postcondition:
// after Flush no view is pending and no replay is running — the shards
// may be read directly (the race detector checks that claim) and add up
// to the merged snapshot, and no replay goroutine outlives the barrier —
// and a second Flush finds nothing to do.
func TestPipesFlushLeavesNothingInFlight(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := NewPipes(traceConfig, 4)
	r := obs.NewRegistry()
	p.RegisterObs(r)
	trace := buildTrace(16, 40)
	f := NewFront(64)
	for k, c := range trace {
		if k%5 == 0 {
			p.ProcessCopy(c) // left pending across the next launch
			continue
		}
		if f.AppendCopy(c); f.Len() == 64 {
			p.ProcessFront(f)
			f.Reset()
		}
	}
	p.ProcessFront(f)
	p.Flush()

	var sum Stats
	for i := 0; i < p.NumShards(); i++ {
		sum.add(p.Shard(i).Stats)
		if n := p.fronts[i].Len() + p.flight[i].Len(); n != 0 {
			t.Fatalf("shard %d holds %d views after Flush", i, n)
		}
	}
	if got := p.StatsSnapshot(); got != sum {
		t.Fatalf("shards sum to %+v after Flush, merged snapshot %+v", sum, got)
	}
	if want := uint64(len(trace)); sum.IngressCopies+sum.EgressCopies != want {
		t.Fatalf("%d copies processed, %d offered", sum.IngressCopies+sum.EgressCopies, want)
	}
	launches := r.Snapshot()["p4_pipes_flushes_total"]
	if launches.(uint64) == 0 {
		t.Fatal("no launch counted")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("replay goroutines outlive Flush: baseline=%d now=%d", baseline, runtime.NumGoroutine())
		}
	}
	p.Flush()
	if again := r.Snapshot()["p4_pipes_flushes_total"]; again != launches {
		t.Fatalf("p4_pipes_flushes_total moved from %v to %v on an idle Flush", launches, again)
	}
}

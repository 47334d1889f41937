package dataplane

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tap"
)

// drainInBatches feeds the trace through ProcessFront in fronts of at
// most batch views (batch <= 0 means one front holding everything),
// returning the pipeline and its long-flow announcements.
func drainInBatches(trace []tap.Copy, batch int) (*DataPlane, []LongFlowEvent) {
	d := New(Config{LongFlowBytes: 64 << 10})
	var events []LongFlowEvent
	d.OnLongFlow = func(ev LongFlowEvent) { events = append(events, ev) }
	if batch <= 0 {
		batch = len(trace)
	}
	f := NewFront(batch)
	for _, c := range trace {
		f.AppendCopy(c)
		if f.Len() >= batch {
			d.ProcessFront(f)
			f.Reset()
		}
	}
	d.ProcessFront(f)
	f.Reset()
	return d, events
}

// assertSameState fails unless two pipelines hold byte-identical
// observable state: every register cell, the stats counters, the CMS
// estimates for every flow in the trace, and the lean tier (sketch
// counters, the duplicate filter with its logged inserts applied, the
// insert count).
func assertSameState(t *testing.T, label string, want, got *DataPlane, flows int) {
	t.Helper()
	if want.Stats != got.Stats {
		t.Fatalf("%s: stats diverge\nwant %+v\n got %+v", label, want.Stats, got.Stats)
	}
	for _, name := range want.RegisterNames() {
		w, g := want.RegisterByName(name), got.RegisterByName(name)
		ws, gs := w.cells, g.cells
		for i := range ws {
			if ws[i] != gs[i] {
				t.Fatalf("%s: register %s[%d]: want %d, got %d", label, name, i, ws[i], gs[i])
			}
		}
	}
	for i := 0; i < flows; i++ {
		k := KeyOf(traceFlow(i))
		if we, ge := want.cms.s.At(cmsHash(&k)), got.cms.s.At(cmsHash(&k)); we != ge {
			t.Fatalf("%s: CMS estimate for flow %d: want %d, got %d", label, i, we, ge)
		}
	}
	if !want.lean.Equal(got.lean) {
		t.Fatalf("%s: lean tier diverges (sketch counters, duplicate-filter bits or insert count)", label)
	}
}

// TestFrontBatchEquivalence is the batch-path correctness property:
// any interleaving of batch sizes over the same packet sequence yields
// byte-identical register state, statistics, sketch estimates and event
// streams as the per-packet ProcessCopy path — fixed sizes 1, 7, 64,
// one whole-trace front, and seeded random splits.
func TestFrontBatchEquivalence(t *testing.T) {
	const flows, pkts = 12, 40
	trace := buildTrace(flows, pkts)

	base := New(Config{LongFlowBytes: 64 << 10})
	var baseEvents []LongFlowEvent
	base.OnLongFlow = func(ev LongFlowEvent) { baseEvents = append(baseEvents, ev) }
	for _, c := range trace {
		base.ProcessCopy(c)
	}

	for _, batch := range []int{1, 7, 64, 0} {
		label := fmt.Sprintf("batch=%d", batch)
		if batch == 0 {
			label = "batch=whole-trace"
		}
		d, events := drainInBatches(trace, batch)
		assertSameState(t, label, base, d, flows)
		if len(events) != len(baseEvents) {
			t.Fatalf("%s: %d long-flow events, want %d", label, len(events), len(baseEvents))
		}
		for i := range events {
			if events[i] != baseEvents[i] {
				t.Fatalf("%s: event %d differs: %+v vs %+v", label, i, events[i], baseEvents[i])
			}
		}
	}

	// Random interleavings: split the trace at seeded-random boundaries
	// so fronts of wildly mixed sizes (including empty ones) replay it.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		d := New(Config{LongFlowBytes: 64 << 10})
		var events []LongFlowEvent
		d.OnLongFlow = func(ev LongFlowEvent) { events = append(events, ev) }
		f := NewFront(64)
		for i := 0; i < len(trace); {
			n := 1 + rng.Intn(200)
			if i+n > len(trace) {
				n = len(trace) - i
			}
			for _, c := range trace[i : i+n] {
				f.AppendCopy(c)
			}
			i += n
			d.ProcessFront(f)
			f.Reset()
			if rng.Intn(3) == 0 {
				d.ProcessFront(f) // empty front: must be a no-op
			}
		}
		assertSameState(t, fmt.Sprintf("random-trial=%d", trial), base, d, flows)
		if len(events) != len(baseEvents) {
			t.Fatalf("random-trial=%d: %d events, want %d", trial, len(events), len(baseEvents))
		}
	}
}

// TestPipesProcessFrontMatchesProcessCopy: the front-end's bulk ingest
// is observationally identical to per-packet ingest at 1 and 4 shards
// (merged registers, stats, events).
func TestPipesProcessFrontMatchesProcessCopy(t *testing.T) {
	const flows, pkts = 12, 40
	trace := buildTrace(flows, pkts)
	for _, shards := range []int{1, 4} {
		perPacket, ppEvents := runTrace(trace, shards)

		bulk := NewPipes(Config{LongFlowBytes: 64 << 10}, shards)
		var bulkEvents []LongFlowEvent
		bulk.SetLongFlowHandler(func(ev LongFlowEvent) { bulkEvents = append(bulkEvents, ev) })
		f := NewFront(97) // deliberately odd capacity
		for _, c := range trace {
			f.AppendCopy(c)
			if f.Len() >= 97 {
				bulk.ProcessFront(f)
				f.Reset()
			}
		}
		bulk.ProcessFront(f)
		f.Reset()
		bulk.Flush()

		if got, want := bulk.StatsSnapshot(), perPacket.StatsSnapshot(); got != want {
			t.Fatalf("shards=%d: stats diverge\nwant %+v\n got %+v", shards, want, got)
		}
		for _, name := range bulk.Shard(0).RegisterNames() {
			size := bulk.Shard(0).RegisterByName(name).Size()
			for idx := 0; idx < size; idx++ {
				bv, _ := bulk.ReadRegister(name, uint32(idx))
				pv, _ := perPacket.ReadRegister(name, uint32(idx))
				if bv != pv {
					t.Fatalf("shards=%d: register %s[%d]: bulk %d, per-packet %d",
						shards, name, idx, bv, pv)
				}
			}
		}
		if len(bulkEvents) != len(ppEvents) {
			t.Fatalf("shards=%d: %d events via fronts, %d per-packet",
				shards, len(bulkEvents), len(ppEvents))
		}
	}
}

// TestFrontReuseConcurrentFillDrain is the -race proof of the Front
// ownership contract: a producer fills one front while a consumer
// drains the other through the sharded front-end, exchanging fronts
// over channels (the handoff is the happens-before edge). Any missing
// synchronisation in Front reuse or ProcessFront surfaces under the
// race detector.
func TestFrontReuseConcurrentFillDrain(t *testing.T) {
	const flows, pkts = 8, 50
	trace := buildTrace(flows, pkts)
	p := NewPipes(Config{LongFlowBytes: 64 << 10}, 4)

	free := make(chan *Front, 2)
	full := make(chan *Front)
	free <- NewFront(64)
	free <- NewFront(64)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for f := range full {
			p.ProcessFront(f)
			f.Reset()
			free <- f
		}
	}()

	f := <-free
	for _, c := range trace {
		f.AppendCopy(c)
		if f.Len() >= 64 {
			full <- f
			f = <-free
		}
	}
	full <- f
	close(full)
	<-done
	p.Flush()

	want, _ := runTrace(trace, 1)
	if got, w := p.StatsSnapshot(), want.StatsSnapshot(); got != w {
		t.Fatalf("concurrent fill/drain diverged from serial run:\nwant %+v\n got %+v", w, got)
	}
}

// TestFrontSpanAndReset pins the Front accessors: Span is last-first,
// Reset keeps capacity.
func TestFrontSpanAndReset(t *testing.T) {
	f := NewFront(8)
	if f.Span() != 0 || f.Len() != 0 {
		t.Fatalf("empty front: len=%d span=%d", f.Len(), f.Span())
	}
	trace := buildTrace(2, 3)
	for _, c := range trace[:5] {
		f.AppendCopy(c)
	}
	if want := trace[4].At - trace[0].At; f.Span() != want {
		t.Fatalf("span = %d, want %d", f.Span(), want)
	}
	f.Reset()
	if f.Len() != 0 {
		t.Fatalf("reset front has %d views", f.Len())
	}
	if cap(f.views) < 5 {
		t.Fatalf("reset dropped capacity: %d", cap(f.views))
	}
}

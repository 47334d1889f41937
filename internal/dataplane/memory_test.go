package dataplane

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sketch"
	"repro/internal/sram"
)

// collectMapped runs the collector until the mapped state stops
// shrinking (or reaches want, when want is not nil) and returns it. A
// mapping is released by its owner's finalizer, one cycle after the
// owner becomes unreachable, and a finalizer chain frees one link per
// cycle: a dup filter keeps its hits sketch reachable until the
// filter's own finalizer has run.
func collectMapped(want *uint64) uint64 {
	last, still := sram.MappedBytes(), 0
	for i := 0; i < 200 && still < 5; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // the finalizer goroutine's turn
		now := sram.MappedBytes()
		if want != nil && now == *want {
			return now
		}
		if now == last {
			still++
		} else {
			last, still = now, 0
		}
	}
	return sram.MappedBytes()
}

// TestMappedStateReleased: pipes and standalone sketches that nothing
// references give their mapped state back. The number checked is the
// one p4_dataplane_mapped_bytes exports.
func TestMappedStateReleased(t *testing.T) {
	if !sram.Maps {
		t.Skip("nothing is mapped in this build")
	}
	base := collectMapped(nil)
	var peak uint64
	for i := 0; i < 64; i++ {
		p := NewPipes(Config{}, 4)
		p.ClearCMS()
		l := sketch.NewLean(sketch.Config{})
		k := sketch.Key{byte(i)}
		l.Observe(&k, 100)
		l.SeenSeq(&k, uint64(i))
		peak = max(peak, sram.MappedBytes()-base)
	}
	if filters := uint64(5 * (8 << 20)); peak < filters {
		t.Fatalf("a four-pipe front-end and a sketch bundle mapped %d bytes, want over %d: 8 MiB of filter each", peak, filters)
	}
	if got := collectMapped(&base); got != base {
		t.Fatalf("mapped bytes %d after the collector ran, want %d: %d bytes of dropped pipes and sketches were never unmapped",
			got, base, got-base)
	}
}

// TestMappedStateOutlivesCallInProgress: the only reference to a pipe
// or a sketch is the call running on it, while another goroutine runs
// the collector in a loop. A finalizer that unmapped the state under
// the call would crash the test binary.
func TestMappedStateOutlivesCallInProgress(t *testing.T) {
	if !sram.Maps {
		t.Skip("nothing is mapped in this build")
	}
	front := NewFront(1024)
	for _, c := range buildTrace(16, 20) {
		front.AppendCopy(c)
	}
	ft := traceFlow(3)
	id, rev := HashFiveTuple(ft), HashReverse(ft)
	fk := KeyOf(ft)
	key := fk.sketchKey()

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for i := 0; i < 100; i++ {
		NewPipes(traceConfig, 1).ProcessFront(front)
		New(traceConfig).ProcessFront(front)
		p := NewPipes(traceConfig, 2)
		p.ProcessFront(front)
		if snap := p.ReadFlow(id, rev); snap.Pkts == 0 {
			t.Fatalf("round %d: flow %v read no packets", i, ft)
		}
		if b, _, _ := sketch.NewLean(sketch.Config{}).Estimate(key); b != 0 {
			t.Fatalf("round %d: a fresh sketch estimates %d bytes", i, b)
		}
	}
}

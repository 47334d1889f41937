//go:build !race

// The race detector instruments allocations, so the allocation pin runs
// only in the ordinary test configuration.
package resilient

import (
	"fmt"
	"net"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/controlplane"
)

// heldConn is an archiver connection that accepts everything, but only
// while the test does not hold hold.
type heldConn struct {
	net.Conn // nil: only the three methods the shipper uses are called
	hold     *sync.Mutex
}

func (c *heldConn) Write(b []byte) (int, error) {
	c.hold.Lock()
	c.hold.Unlock()
	return len(b), nil
}

func (c *heldConn) SetWriteDeadline(time.Time) error { return nil }
func (c *heldConn) Close() error                     { return nil }

// TestAllocFreeBurst pins the free list's reuse: once one burst has been
// queued and shipped, a burst of the same size allocates 0 B per report,
// its lines going into the buffers the first burst put back on the free
// list. The connection holds the burst's first flight on the wire until
// the whole burst is queued, so the burst needs as many buffers every
// time. The count is the heap's cumulative allocated bytes, rounded down
// per report as AllocsPerRun rounds allocations per run: the runtime may
// park the run goroutine on a fresh 96 B wait record during a burst,
// while cutting one more 64 KiB chunk into buffers would read 16 B per
// report.
//
// No stop-the-world may restart inside a burst: restarting the world
// wakes an idle P on an idle thread, and on a loaded host, where the
// thread woken by the previous restart has not parked yet, the runtime
// starts a new one, whose m, g0 and signal stack (5504 B) a reading
// around the burst would count as the burst's. So the burst starts after
// a completed collection, which leaves every P's cache of spans flushed,
// with runtime/metrics' cumulative allocated bytes, which does not stop
// the world; and it ends with runtime.ReadMemStats, which flushes every
// cache before it reads and restarts the world only after. Both read the
// same sum, so the count is exact. A thread can still start inside the
// burst (readying the shipper's goroutine may wake an idle P), so a burst
// during which the threadcreate profile's count moved is run again, up to
// five tries; every try moving it fails the test.
//
// The test profiles every allocation (MemProfileRate 1), so a burst that
// reads non-zero names the stacks that allocated in it.
func TestAllocFreeBurst(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	const burst = 4000 // the buffers of 32 chunks
	r := controlplane.Report{
		Kind: controlplane.KindMetric, TimeNs: 2_200_000_000,
		FlowID: "9f3c2a7d5be01846", RevID: "46180eb5d7a2c3f9", SrcIP: "10.0.3.17", DstIP: "10.1.0.1",
		SrcPort: 40017, DstPort: 5201, Proto: "tcp",
		Metric: controlplane.MetricRTT, Value: 20.125, Unit: "ms", RTTP50Ms: 16.777216, RTTP95Ms: 33.554432, RTTP99Ms: 33.554432,
	}
	var hold sync.Mutex
	conn := &heldConn{hold: &hold}
	s, err := New(Config{Dial: func() (net.Conn, error) { return conn, nil }, MemSpool: 2 * burst, Sleep: fastSleep, Fallback: &lockedBuffer{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var (
		after   runtime.MemStats
		emitted uint64
		threads = pprof.Lookup("threadcreate")
	)
	var sitesBefore map[[32]uintptr]int64
	emit := func() (bytes uint64, newThread bool) {
		started := threads.Count()
		hold.Lock()
		runtime.GC()
		sitesBefore = allocSites()
		runtime.GC() // flushes the caches allocSites filled
		metrics.Read(allocated)
		for i := 0; i < burst; i++ {
			s.Emit(r)
		}
		runtime.ReadMemStats(&after)
		hold.Unlock()
		newThread = threads.Count() != started
		emitted += burst
		waitFor(t, "the burst shipped", func() bool { return s.Stats().Queued == 0 })
		return after.TotalAlloc - allocated[0].Value.Uint64(), newThread
	}
	if warm, _ := emit(); warm == 0 {
		t.Fatal("the first burst allocated nothing: no chunk was ever cut")
	}
	for i := 0; i < 5; i++ {
		b, moved := emit()
		for try := 1; moved && try < 5; try++ {
			b, moved = emit()
		}
		if moved {
			t.Fatalf("burst %d: a thread started during each of 5 tries", i+2)
		}
		if b/burst != 0 {
			runtime.GC() // publishes the burst's allocations to the profile
			t.Fatalf("burst %d: %d B allocated, %.2f B per report, want 0; allocating stacks:\n%s",
				i+2, b, float64(b)/burst, allocDiff(sitesBefore, allocSites()))
		}
	}
	if st := s.Stats(); st.Shipped != emitted || st.Dropped != 0 {
		t.Fatalf("%s, want all %d shipped", st, emitted)
	}
}

// allocSites returns the bytes allocated so far at each allocation
// stack, as of the last completed collection.
func allocSites() map[[32]uintptr]int64 {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	sites := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		sites[r.Stack0] += r.AllocBytes
	}
	return sites
}

// allocDiff renders the stacks whose allocated bytes grew from before
// to after, largest first, one line per stack. allocSites' own stacks
// are left out: the before snapshot is taken inside the window.
func allocDiff(before, after map[[32]uintptr]int64) string {
	var lines []string
	for stack, b := range after {
		if b <= before[stack] {
			continue
		}
		line := fmt.Sprintf("%9d B", b-before[stack])
		rec := runtime.MemProfileRecord{Stack0: stack}
		for frames, more := runtime.CallersFrames(rec.Stack()), true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			line += fmt.Sprintf(" %s:%d", f.Function, f.Line)
		}
		if !strings.Contains(line, "resilient.allocSites") {
			lines = append(lines, line)
		}
	}
	slices.Sort(lines) // the counts are right-aligned: by size
	slices.Reverse(lines)
	return strings.Join(lines, "\n")
}

package resilient

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/simtime"
)

// Phases of the randomized queue test's archiver.
const (
	phaseHealthy = iota // dials succeed, writes accept everything
	phaseFlaky          // writes are slow and some are torn
	phaseDown           // dials fail: the breaker opens and the queue spills
)

// scriptedConn is an archiver connection the run goroutine alone writes
// to: in the flaky phase some writes are torn at a random byte, which
// ends the connection, and each write may stall for a while first, so
// the queue grows behind a flight; in the down phase every write is
// torn. What it accepted is what the archiver received.
type scriptedConn struct {
	net.Conn // nil: only the three methods the shipper uses are called
	phase    *atomic.Int32
	rng      *simtime.RNG
	mu       sync.Mutex
	received []byte
}

func (c *scriptedConn) Write(b []byte) (int, error) {
	n := len(b)
	switch c.phase.Load() {
	case phaseFlaky:
		if c.rng.Uint64()%2 == 0 {
			time.Sleep(time.Duration(c.rng.Uint64()%500) * time.Microsecond)
		}
		if c.rng.Uint64()%4 == 0 {
			n = int(c.rng.Uint64() % uint64(len(b)))
		}
	case phaseDown:
		n = int(c.rng.Uint64() % uint64(len(b)))
	}
	c.mu.Lock()
	c.received = append(c.received, b[:n]...)
	c.mu.Unlock()
	if n < len(b) {
		return n, errors.New("scriptedConn: torn write")
	}
	return n, nil
}

func (c *scriptedConn) SetWriteDeadline(time.Time) error { return nil }
func (c *scriptedConn) Close() error                     { return nil }

func (c *scriptedConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.received...)
}

// paddedReport is report i with a unit padded to pad bytes, so a line
// fits a queue buffer or outgrows it, now and then by more than a chunk.
func paddedReport(i, pad int) controlplane.Report {
	r := report(i)
	r.Unit = strings.Repeat("u", pad)
	return r
}

// stallSleep is a backoff long enough for a burst to pile up behind a
// queue head that is not in flight, as it does while dials fail.
func stallSleep(time.Duration) bool {
	time.Sleep(200 * time.Microsecond)
	return true
}

// TestQueueRandomized mixes Emit bursts of lines of random size with
// drop-oldest overflow, stalled and torn writes, failed dials and
// breaker spills into a byte-capped disk spool and the fallback writer.
// Whatever the interleaving, every line the connection, the spool (by
// its replay) and the fallback receive is the encoding of one emitted
// report, byte for byte; each sink gets its lines in emission order;
// each report arrives once or is counted dropped; and once drained the
// shipper's free list holds only lineBytes buffers, no more than a full
// queue and one chunk's worth: a buffer that grew for a long line is
// not recycled.
func TestQueueRandomized(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		rng := simtime.NewRNG(seed)
		var phase atomic.Int32
		var connMu sync.Mutex
		var conns []*scriptedConn
		connRNG := simtime.NewRNG(seed + 100) // the run goroutine's
		fallback := &lockedBuffer{}
		s, err := New(Config{
			Dial: func() (net.Conn, error) {
				if phase.Load() == phaseDown {
					return nil, errors.New("refused")
				}
				c := &scriptedConn{phase: &phase, rng: connRNG}
				connMu.Lock()
				conns = append(conns, c)
				connMu.Unlock()
				return c, nil
			},
			MemSpool: 1024, SpoolDir: t.TempDir(), MaxSpoolBytes: 256 << 10,
			BreakerFailures: 4, Sleep: stallSleep, Seed: seed, Fallback: fallback,
		})
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte // want[i]: the encoding of report i
		for step := 0; step < 100; step++ {
			phase.Store(int32(rng.Uint64() % 3))
			// Small lines fit a queue buffer; large ones outgrow it, so
			// their buffers, and the slots drop-oldest reuses in place,
			// hold grown buffers that must not go back on the free list.
			large := rng.Uint64()%2 == 0
			burst := rng.Uint64() % 600
			if large {
				burst /= 10
			}
			for ; burst > 0; burst-- {
				pad := int(rng.Uint64() % 200)
				switch {
				case large:
					pad = 12<<10 + int(rng.Uint64()%(16<<10))
				case rng.Uint64()%64 == 0:
					pad = chunkBytes + int(rng.Uint64()%1024)
				}
				r := paddedReport(len(want), pad)
				line, err := r.MarshalJSONLine()
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, line)
				s.Emit(r)
			}
			if rng.Uint64()%3 == 0 {
				time.Sleep(time.Duration(rng.Uint64()%2000) * time.Microsecond)
			}
		}
		phase.Store(phaseHealthy)
		waitFor(t, "queue and spool drained", func() bool {
			st := s.Stats()
			checkInvariant(t, st)
			return st.Queued == 0 && st.SpoolPending == 0
		})
		s.mu.Lock()
		spare := slices.Clone(s.spare)
		s.mu.Unlock()
		if limit := s.cfg.MemSpool + chunkBytes/lineBytes; len(spare) > limit {
			t.Fatalf("seed %d: drained shipper holds %d spare buffers, want at most %d", seed, len(spare), limit)
		}
		for i, buf := range spare {
			if cap(buf) != lineBytes {
				t.Fatalf("seed %d: spare buffer %d has cap %d, want %d", seed, i, cap(buf), lineBytes)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		checkInvariant(t, st)

		seen := make([]bool, len(want))
		delivered := 0
		// sink checks one sink's lines: each is a report's encoding, each
		// report at most once across sinks, and in emission order.
		sink := func(name string, stream []byte) int {
			lines, last := 0, -1
			for len(stream) > 0 {
				end := bytes.IndexByte(stream, '\n')
				if end < 0 {
					t.Fatalf("seed %d: %s ends in %d bytes without a newline", seed, name, len(stream))
				}
				line := stream[:end+1]
				stream = stream[end+1:]
				var r controlplane.Report
				if !r.ParseJSONLine(line[:end], nil) || r.TimeNs < 0 || r.TimeNs >= int64(len(want)) {
					t.Fatalf("seed %d: %s line %d is no emitted report: %.80q", seed, name, lines, line)
				}
				i := int(r.TimeNs)
				if !bytes.Equal(line, want[i]) {
					t.Fatalf("seed %d: %s line %d claims report %d but differs from its encoding", seed, name, lines, i)
				}
				if seen[i] {
					t.Fatalf("seed %d: report %d delivered twice (again to %s)", seed, i, name)
				}
				if i <= last {
					t.Fatalf("seed %d: %s got report %d after %d", seed, name, i, last)
				}
				seen[i], last = true, i
				lines++
			}
			delivered += lines
			return lines
		}
		var onConns []byte
		connMu.Lock()
		for _, c := range conns {
			b := c.bytes()
			if k := bytes.LastIndexByte(b, '\n'); k < len(b)-1 {
				b = b[:k+1] // the torn prefix a failed write left
			}
			onConns = append(onConns, b...)
		}
		connMu.Unlock()
		if got := sink("connections", onConns); uint64(got) != st.Shipped+st.Replayed {
			t.Fatalf("seed %d: connections got %d lines, shipped+replayed = %d", seed, got, st.Shipped+st.Replayed)
		}
		if got := sink("fallback", fallback.Bytes()); uint64(got) != st.Fallback {
			t.Fatalf("seed %d: fallback got %d lines, counted %d", seed, got, st.Fallback)
		}
		if uint64(delivered)+st.Dropped != uint64(len(want)) || st.Emitted != uint64(len(want)) {
			t.Fatalf("seed %d: %d emitted, %d delivered + %d dropped", seed, len(want), delivered, st.Dropped)
		}
		t.Logf("seed %d: %s", seed, st)
	}
}

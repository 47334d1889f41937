package resilient

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// TestTornFrontResendsFromFirstUnacceptedRecord tears a three-record
// front at every byte offset. Whatever the offset, the records whose
// last byte the connection accepted are shipped by that write, the next
// connection resumes at the first one it did not, the archiver ends up
// with each record exactly once and in order, and the accounting
// identity holds in every snapshot taken on the way.
func TestTornFrontResendsFromFirstUnacceptedRecord(t *testing.T) {
	var front []byte
	var ends []int // offset just past each record
	for i := 0; i < 3; i++ {
		line, err := report(i).MarshalJSONLine()
		if err != nil {
			t.Fatal(err)
		}
		front = append(front, line...)
		ends = append(ends, len(front))
	}
	for off := 0; off < len(front); off++ {
		l := faultnet.NewListener()
		arch := newTestArchiver(l)
		l.Refuse(true) // hold the three records in the queue: one front
		s, err := New(Config{Dial: l.Dial, Sleep: fastSleep, Seed: 7, BreakerFailures: 1 << 30, Fallback: &lockedBuffer{}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			s.Emit(report(i))
		}
		l.ScriptNext(faultnet.Script{{AfterBytes: off, Kind: faultnet.Reset}})
		l.Refuse(false)
		waitFor(t, "all three delivered", func() bool {
			st := s.Stats()
			checkInvariant(t, st)
			return st.Delivered() == 3
		})
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		accepted, acceptedBytes := 0, 0
		for _, end := range ends {
			if end <= off {
				accepted, acceptedBytes = accepted+1, end
			}
		}
		st := s.Stats()
		checkInvariant(t, st)
		wantBytes := uint64(off + len(front) - acceptedBytes)
		if st.Shipped != 3 || st.Retried != 1 || st.Dropped != 0 || st.Writes != 2 || st.WriteBytes != wantBytes {
			t.Fatalf("torn at %d (%d records accepted): %s writes=%d write_bytes=%d, want shipped=3 retried=1 writes=2 write_bytes=%d",
				off, accepted, st, st.Writes, st.WriteBytes, wantBytes)
		}
		waitFor(t, "archiver drained", func() bool { return arch.count() == 3 })
		l.Close()
		arch.wg.Wait()
		if ts := arch.timestamps(); len(ts) != 3 || ts[0] != 0 || ts[1] != 1 || ts[2] != 2 {
			t.Fatalf("torn at %d: archived %v, want [0 1 2]", off, ts)
		}
		if torn := off > acceptedBytes; (arch.badLines() == 1) != torn || arch.badLines() > 1 {
			t.Fatalf("torn at %d: %d undecodable lines at the archiver, mid-record cut: %v", off, arch.badLines(), torn)
		}
	}
}

// gateConn is an archiver connection whose first Write blocks until the
// test decides how many of its bytes were accepted; later Writes accept
// everything. What it accepted is what the archiver received.
type gateConn struct {
	net.Conn // nil: only the three methods the shipper uses are called
	entered  chan struct{}
	accept   chan int // bytes of the first Write to accept; short means torn
	gated    bool

	mu       sync.Mutex
	received bytes.Buffer
}

func (c *gateConn) Write(b []byte) (int, error) {
	n := len(b)
	if !c.gated {
		c.gated = true
		close(c.entered)
		n = <-c.accept
	}
	c.mu.Lock()
	c.received.Write(b[:n])
	c.mu.Unlock()
	if n < len(b) {
		return n, errors.New("gateConn: torn write")
	}
	return n, nil
}

func (c *gateConn) SetWriteDeadline(time.Time) error { return nil }
func (c *gateConn) Close() error                     { return nil }

// TestOverflowDuringWriteSparesTheRecordOnTheWire is the regression
// test for the peek-then-pop race: the run goroutine peeked the queue
// head and wrote it without the lock, so an Emit that overflowed the
// memory spool meanwhile dropped (and counted) the very record being
// written, and the pop that followed removed its successor, which never
// reached the wire — MemSpool 2, emit A, B, C: the archiver got A and C
// while the counters said shipped=2 dropped=1, and balanced. Now a
// record in flight gives up its slot but not its place in the books: it
// stays counted as queued until the write returns, then is Shipped if
// its bytes were accepted and Dropped if not. Either way the archiver
// holds exactly the records counted Shipped, in emission order, and the
// identity holds in every snapshot.
func TestOverflowDuringWriteSparesTheRecordOnTheWire(t *testing.T) {
	lineOf := func(i int) string {
		line, err := report(i).MarshalJSONLine()
		if err != nil {
			t.Fatal(err)
		}
		return string(line)
	}
	for _, tc := range []struct {
		name           string
		acceptFirst    int // bytes of A's write the connection takes
		wantReceived   string
		shipped, drops uint64
	}{
		{"full accept", len(lineOf(0)), lineOf(0) + lineOf(1) + lineOf(2), 3, 0},
		{"torn write", 5, lineOf(0)[:5] + lineOf(1) + lineOf(2), 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := &gateConn{entered: make(chan struct{}), accept: make(chan int)}
			conns := []*gateConn{first, {gated: true}}
			dials := 0
			s, err := New(Config{
				Dial: func() (net.Conn, error) {
					dials++
					return conns[dials-1], nil
				},
				MemSpool: 2, Sleep: fastSleep, Seed: 7, BreakerFailures: 1 << 30, Fallback: &lockedBuffer{},
			})
			if err != nil {
				t.Fatal(err)
			}
			s.Emit(report(0))
			<-first.entered // A is on the wire, the lock released
			s.Emit(report(1))
			s.Emit(report(2)) // overflows a spool of two: A's slot goes, A does not
			st := s.Stats()
			checkInvariant(t, st)
			if st.Emitted != 3 || st.Queued != 3 || st.Dropped != 0 {
				t.Fatalf("while A is in flight: %s; want emitted=3 queued=3 dropped=0", st)
			}
			first.accept <- tc.acceptFirst
			waitFor(t, "B and C delivered", func() bool {
				st := s.Stats()
				checkInvariant(t, st)
				return st.Shipped == tc.shipped
			})
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			st = s.Stats()
			checkInvariant(t, st)
			if st.Shipped != tc.shipped || st.Dropped != tc.drops || st.Queued != 0 {
				t.Fatalf("final: %s; want shipped=%d dropped=%d", st, tc.shipped, tc.drops)
			}
			var received string
			for _, c := range conns {
				received += c.received.String()
			}
			if received != tc.wantReceived {
				t.Fatalf("archiver received %q, want %q", received, tc.wantReceived)
			}
		})
	}
}

package resilient

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/faultnet"
	"repro/internal/obs"
)

// testArchiver accepts connections from a faultnet listener and
// collects newline-delimited JSON records, counting undecodable and
// unterminated lines (torn writes) separately — a miniature Logstash
// TCP input.
type testArchiver struct {
	mu      sync.Mutex
	reports [][]controlplane.Report // per connection, in accept order
	badLine int
	wg      sync.WaitGroup
}

func newTestArchiver(l *faultnet.Listener) *testArchiver {
	a := &testArchiver{}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			a.mu.Lock()
			id := len(a.reports)
			a.reports = append(a.reports, nil)
			a.mu.Unlock()
			a.wg.Add(1)
			go func(c net.Conn) {
				defer a.wg.Done()
				defer c.Close()
				r := bufio.NewReaderSize(c, 64<<10)
				for {
					line, err := r.ReadBytes('\n')
					var rep controlplane.Report
					switch {
					case err != nil && len(line) == 0:
						return
					case err != nil, json.Unmarshal(line, &rep) != nil:
						// Undecodable, or cut before its newline: the
						// newline is the commit point, as in TCPInput.
						a.mu.Lock()
						a.badLine++
						a.mu.Unlock()
					default:
						a.mu.Lock()
						a.reports[id] = append(a.reports[id], rep)
						a.mu.Unlock()
					}
					if err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return a
}

func (a *testArchiver) count() int { return len(a.timestamps()) }

// drain closes l and waits until the archiver has read every connection
// it accepted to its end. A shipper's Write returns once net.Pipe has
// handed the bytes to the archiver's reader, before the reader has
// decoded them: after the shipper's Close, drain is what makes the
// archived records final.
func (a *testArchiver) drain(l *faultnet.Listener) {
	l.Close()
	a.wg.Wait()
}

func (a *testArchiver) badLines() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.badLine
}

// timestamps returns the TimeNs of every archived report, in arrival
// order: connection by connection (the shipper has one at a time), and
// within a connection as read.
func (a *testArchiver) timestamps() []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []int64
	for _, conn := range a.reports {
		for _, r := range conn {
			out = append(out, r.TimeNs)
		}
	}
	return out
}

func report(i int) controlplane.Report {
	return controlplane.Report{Kind: controlplane.KindMetric, TimeNs: int64(i), Metric: controlplane.MetricRTT, Value: float64(i)}
}

// waitFor polls cond until true or the deadline passes; the chaos
// tests synchronise on *outcomes* (counters reaching their exact final
// values), never on timing.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fastSleep yields briefly instead of honouring backoff, keeping chaos
// tests fast while still exercising the schedule computation.
func fastSleep(d time.Duration) bool {
	time.Sleep(50 * time.Microsecond)
	return true
}

// checkInvariant asserts the package's accounting identity.
func checkInvariant(t *testing.T, st Stats) {
	t.Helper()
	got := st.Shipped + st.Replayed + st.Fallback + st.Dropped + st.Queued + st.SpoolPending
	if got != st.Emitted {
		t.Fatalf("accounting broken: emitted=%d but terminal states sum to %d (%s)", st.Emitted, got, st)
	}
}

func TestShipsInOrderWhenHealthy(t *testing.T) {
	l := faultnet.NewListener()
	defer l.Close()
	arch := newTestArchiver(l)

	s, err := New(Config{Dial: l.Dial, Sleep: fastSleep, Seed: 7, Fallback: &lockedBuffer{}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		s.Emit(report(i))
	}
	waitFor(t, "all reports delivered", func() bool { return s.Stats().Delivered() == n })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Shipped != n || st.Dropped != 0 || st.Retried != 0 {
		t.Fatalf("stats: %s", st)
	}
	checkInvariant(t, st)
	ts := arch.timestamps()
	for i, v := range ts {
		if v != int64(i) {
			t.Fatalf("order broken at %d: %v", i, ts)
		}
	}
}

func TestStartsWhileArchiverDownThenSpillsAndReplays(t *testing.T) {
	l := faultnet.NewListener()
	defer l.Close()
	arch := newTestArchiver(l)
	l.Refuse(true)

	dir := t.TempDir()
	s, err := New(Config{Dial: l.Dial, SpoolDir: dir, Sleep: fastSleep, Seed: 7, BreakerFailures: 2, Fallback: &lockedBuffer{}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		s.Emit(report(i))
	}
	// The breaker opens after 2 refused dials and everything spills.
	waitFor(t, "all reports spilled to disk", func() bool {
		st := s.Stats()
		return st.Spilled == n && st.SpoolPending == n
	})
	if st := s.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("breaker should have opened exactly once: %s", st)
	}
	if data, err := os.ReadFile(filepath.Join(dir, SpoolFileName)); err != nil || bytes.Count(data, []byte{'\n'}) != n {
		t.Fatalf("spool file: err=%v lines=%d", err, bytes.Count(data, []byte{'\n'}))
	}

	// The archiver comes back: the spool replays, in order, then empties.
	l.Refuse(false)
	waitFor(t, "spool replayed", func() bool { return s.Stats().Replayed == n })
	waitFor(t, "archiver caught up", func() bool { return arch.count() == n })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Dropped != 0 || st.SpoolPending != 0 {
		t.Fatalf("stats: %s", st)
	}
	checkInvariant(t, st)
	ts := arch.timestamps()
	for i, v := range ts {
		if v != int64(i) {
			t.Fatalf("replay order broken at %d: %v", i, ts)
		}
	}
	if data, err := os.ReadFile(filepath.Join(dir, SpoolFileName)); err != nil || len(data) != 0 {
		t.Fatalf("drained spool should be truncated: err=%v len=%d", err, len(data))
	}
}

func TestTornWriteIsResentNotLost(t *testing.T) {
	l := faultnet.NewListener()
	defer l.Close()
	arch := newTestArchiver(l)
	// First connection dies 10 bytes into the stream — mid-record.
	l.ScriptNext(faultnet.Script{{AfterBytes: 10, Kind: faultnet.Reset}})

	s, err := New(Config{Dial: l.Dial, Sleep: fastSleep, Seed: 7, Fallback: &lockedBuffer{}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		s.Emit(report(i))
	}
	waitFor(t, "all reports delivered", func() bool { return s.Stats().Delivered() == n })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Retried == 0 {
		t.Fatalf("the torn write must be counted as a retry: %s", st)
	}
	if st.Dropped != 0 {
		t.Fatalf("nothing may be dropped: %s", st)
	}
	checkInvariant(t, st)
	arch.drain(l)
	if got := arch.badLines(); got != 1 {
		t.Fatalf("archiver saw %d torn lines, want 1", got)
	}
	// Exactly n good records, no duplicates, order preserved.
	ts := arch.timestamps()
	if len(ts) != n {
		t.Fatalf("archived %d, want %d: %v", len(ts), n, ts)
	}
	for i, v := range ts {
		if v != int64(i) {
			t.Fatalf("order broken: %v", ts)
		}
	}
}

func TestStalledArchiverHitsWriteDeadline(t *testing.T) {
	l := faultnet.NewListener()
	defer l.Close()
	arch := newTestArchiver(l)
	l.ScriptNext(faultnet.Script{{AfterBytes: 10, Kind: faultnet.Stall, Delay: 200 * time.Millisecond}})

	s, err := New(Config{Dial: l.Dial, Sleep: fastSleep, Seed: 7, WriteTimeout: 20 * time.Millisecond, Fallback: &lockedBuffer{}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		s.Emit(report(i))
	}
	waitFor(t, "all reports delivered despite the stall", func() bool { return s.Stats().Delivered() == n })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Retried == 0 {
		t.Fatalf("the stalled write must fail its deadline and be retried: %s", st)
	}
	if st.Dropped != 0 {
		t.Fatalf("stats: %s", st)
	}
	checkInvariant(t, st)
	arch.drain(l)
	if got := arch.count(); got != n {
		t.Fatalf("archived %d, want %d", got, n)
	}
}

func TestMemorySpoolDropsOldestExactly(t *testing.T) {
	l := faultnet.NewListener()
	defer l.Close()
	arch := newTestArchiver(l)
	l.Refuse(true)

	// Huge breaker threshold: the breaker never opens, so records pile
	// up in the bounded memory queue while the archiver is down.
	s, err := New(Config{Dial: l.Dial, MemSpool: 4, BreakerFailures: 1 << 30, Sleep: fastSleep, Seed: 7, Fallback: &lockedBuffer{}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		s.Emit(report(i))
	}
	// The drop count is exact and immediate: Emit itself drops the
	// oldest, no goroutine involved.
	if st := s.Stats(); st.Dropped != n-4 || st.Queued != 4 {
		t.Fatalf("stats: %s", st)
	}
	l.Refuse(false)
	waitFor(t, "survivors delivered", func() bool { return s.Stats().Delivered() == 4 })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, s.Stats())
	// The four newest records survive, in order.
	arch.drain(l)
	want := []int64{6, 7, 8, 9}
	ts := arch.timestamps()
	if len(ts) != len(want) {
		t.Fatalf("archived %v, want %v", ts, want)
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("archived %v, want %v", ts, want)
		}
	}
}

func TestNoSpoolDirDegradesToFallback(t *testing.T) {
	l := faultnet.NewListener()
	defer l.Close()
	l.Refuse(true)

	var fb lockedBuffer
	s, err := New(Config{Dial: l.Dial, BreakerFailures: 1, Sleep: fastSleep, Seed: 7, Fallback: &fb})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		s.Emit(report(i))
	}
	waitFor(t, "records degraded to fallback", func() bool { return s.Stats().Fallback == n })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Dropped != 0 {
		t.Fatalf("degradation must be counted, not dropped: %s", st)
	}
	checkInvariant(t, st)
	if got := bytes.Count(fb.Bytes(), []byte{'\n'}); got != n {
		t.Fatalf("fallback lines=%d, want %d", got, n)
	}
}

func TestSpoolByteCapOverflowsToFallback(t *testing.T) {
	l := faultnet.NewListener()
	defer l.Close()
	l.Refuse(true)

	// Reports 10..19 all encode to the same line length (two-digit
	// timestamps and values), so the byte cap admits exactly 3.
	oneLine, _ := report(10).MarshalJSONLine()
	var fb lockedBuffer
	s, err := New(Config{
		Dial: l.Dial, SpoolDir: t.TempDir(),
		MaxSpoolBytes:   int64(3*len(oneLine) + 2), // room for exactly 3 records
		BreakerFailures: 1, Sleep: fastSleep, Seed: 7, Fallback: &fb,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 10; i < 10+n; i++ {
		s.Emit(report(i))
	}
	waitFor(t, "spool capped and remainder degraded", func() bool {
		st := s.Stats()
		return st.Spilled == 3 && st.Fallback == n-3
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, s.Stats())
}

func TestCloseFlushesHealthyConnection(t *testing.T) {
	l := faultnet.NewListener()
	defer l.Close()
	arch := newTestArchiver(l)

	var fb lockedBuffer
	s, err := New(Config{Dial: l.Dial, Sleep: fastSleep, Seed: 7, Fallback: &fb})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		s.Emit(report(i))
	}
	// Close once the connection is live but before the queue has
	// drained: the flush must deliver every still-queued record over
	// the live connection rather than dropping it.
	waitFor(t, "connection established", func() bool { return s.Stats().Delivered() > 0 })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Delivered()+st.Spilled+st.Fallback+st.Dropped != n || st.Queued != 0 {
		t.Fatalf("flush incomplete: %s", st)
	}
	if st.Dropped != 0 {
		t.Fatalf("flush may degrade but never drop: %s", st)
	}
	checkInvariant(t, st)
	waitFor(t, "archiver drained", func() bool { return arch.count() == int(st.Delivered()) })
}

func TestCloseWhileDownSpillsAndNextRunReplays(t *testing.T) {
	l := faultnet.NewListener()
	defer l.Close()
	arch := newTestArchiver(l)
	l.Refuse(true)
	dir := t.TempDir()

	s, err := New(Config{Dial: l.Dial, SpoolDir: dir, BreakerFailures: 1, Sleep: fastSleep, Seed: 7, Fallback: &lockedBuffer{}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		s.Emit(report(i))
	}
	waitFor(t, "records spilled", func() bool { return s.Stats().SpoolPending == n })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, s.Stats())

	// A new shipper (a collector restart) inherits the spool and
	// replays it once the archiver is back. The listener still refuses
	// while we inspect the inherited state.
	s2, err := New(Config{Dial: l.Dial, SpoolDir: dir, Sleep: fastSleep, Seed: 8, Fallback: &lockedBuffer{}})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.SpoolPending != n {
		t.Fatalf("restart should inherit %d pending records: %s", n, st)
	}
	l.Refuse(false)
	waitFor(t, "inherited spool replayed", func() bool { return s2.Stats().Replayed == n })
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "archiver caught up", func() bool { return arch.count() == n })
	ts := arch.timestamps()
	for i, v := range ts {
		if v != int64(i) {
			t.Fatalf("replay order broken: %v", ts)
		}
	}
}

func TestTerminalModeWritesFallback(t *testing.T) {
	var fb lockedBuffer
	s, err := New(Config{Fallback: &fb, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		s.Emit(report(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Fallback != n || st.Dropped != 0 {
		t.Fatalf("stats: %s", st)
	}
	checkInvariant(t, st)
	if got := bytes.Count(fb.Bytes(), []byte{'\n'}); got != n {
		t.Fatalf("fallback lines=%d, want %d", got, n)
	}
}

func TestEmitAfterCloseCountsDropped(t *testing.T) {
	var fb lockedBuffer
	s, err := New(Config{Fallback: &fb, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Emit(report(0))
	st := s.Stats()
	if st.Emitted != 1 || st.Dropped != 1 {
		t.Fatalf("stats: %s", st)
	}
	// Idempotent Close.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBackoffScheduleIsDeterministicAndBounded(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		l := faultnet.NewListener()
		defer l.Close()
		newTestArchiver(l)
		l.RefuseNext(8)
		var mu sync.Mutex
		var ds []time.Duration
		s, err := New(Config{
			Dial: l.Dial, Seed: seed,
			// The breaker must not open: this test pins the backoff
			// schedule, so the record has to stay queued until the
			// ninth dial succeeds.
			BreakerFailures: 1 << 30,
			Fallback:        &lockedBuffer{},
			BackoffMin:      10 * time.Millisecond, BackoffMax: 80 * time.Millisecond,
			Sleep: func(d time.Duration) bool {
				mu.Lock()
				ds = append(ds, d)
				mu.Unlock()
				return true
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Emit(report(0))
		waitFor(t, "delivery after 8 refusals", func() bool { return s.Stats().Delivered() == 1 })
		s.Close()
		mu.Lock()
		defer mu.Unlock()
		return append([]time.Duration(nil), ds...)
	}

	a, b := schedule(42), schedule(42)
	if len(a) < 8 {
		t.Fatalf("expected >=8 backoff sleeps, got %v", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff schedule not deterministic: %v vs %v", a, b)
		}
	}
	// Equal jitter keeps each delay within [base/2, base) where base
	// doubles from BackoffMin up to BackoffMax.
	base := 10 * time.Millisecond
	for i, d := range a {
		if d < base/2 || d >= base {
			t.Fatalf("sleep %d = %v outside [%v, %v)", i, d, base/2, base)
		}
		base *= 2
		if base > 80*time.Millisecond {
			base = 80 * time.Millisecond
		}
	}
	c := schedule(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds should jitter differently")
	}
}

// A long outage must not push the ladder transitions out of the trace
// ring: failed dials are traced only until the breaker opens. The run
// goroutine is driven entirely by the injected Dial and Sleep, so the
// test waits on nothing but that goroutine's exit.
func TestLongOutageKeepsBreakerOpenInTrace(t *testing.T) {
	const dials = 2048 // twice the 1024-entry ring
	const breakerFailures = 3
	registered := make(chan struct{})
	failed := 0 // touched only by the run goroutine until it exits
	s, err := New(Config{
		Dial: func() (net.Conn, error) {
			<-registered
			failed++
			return nil, errors.New("archiver down")
		},
		Sleep:           func(time.Duration) bool { return failed < dials },
		BreakerFailures: breakerFailures,
		Fallback:        &lockedBuffer{},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterObs(obs.NewRegistry())
	close(registered)
	<-s.done // Sleep returned false after the last dial; run finalized
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if failed != dials || s.Stats().DialAttempts != dials {
		t.Fatalf("failed dials = %d, DialAttempts = %d, want %d", failed, s.Stats().DialAttempts, dials)
	}
	kinds := map[string]int{}
	for _, ev := range s.trace.Load().Snapshot(nil) {
		kinds[ev.Kind]++
	}
	if kinds["breaker_open"] != 1 || kinds["dial_fail"] != breakerFailures {
		t.Fatalf("trace ring after %d failed dials: %v, want 1 breaker_open and %d dial_fail", dials, kinds, breakerFailures)
	}
}

// lockedBuffer is a bytes.Buffer safe for cross-goroutine use (the run
// loop writes, the test reads).
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

package resilient

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Shipper implements controlplane.Sink with the degradation ladder
// described in the package comment. Emit is non-blocking and safe for
// concurrent use; a single background goroutine owns the connection,
// the disk spool and the fallback writer, and terminates on Close.
type Shipper struct {
	cfg Config
	rng *simtime.RNG

	mu    sync.Mutex
	queue [][]byte // ring buffer of encoded NDJSON lines
	head  int
	n     int
	// spare is the free list of lineBytes buffers: a queued line's buffer
	// goes back on it when the line leaves the queue.
	spare [][]byte
	// A flight is the queue's oldest records while the run goroutine has
	// them on the wire (or the disk, or the fallback writer): inflight
	// of them, of which the first evicted lost their slot to a
	// drop-oldest overflow meanwhile. An evicted record stays counted as
	// queued until settle learns what became of it.
	inflight int
	evicted  int
	stats    Stats
	closing  bool

	notify chan struct{} // cap 1: "the queue may be non-empty"
	stop   chan struct{} // closed by Close
	done   chan struct{} // closed when run returns

	// trace, when set by RegisterObs, receives one event per
	// report-lifecycle and ladder transition. Atomic because
	// registration may race the run goroutine.
	trace atomic.Pointer[obs.Trace]

	// Run-loop state, touched only by the run goroutine.
	front       []byte // the flight's lines, back to back
	conn        connWriter
	consecFail  int
	breakerOpen bool
	backoff     time.Duration
	spool       *diskSpool
}

// connWriter is the slice of net.Conn the shipper uses; it lets tests
// substitute scripted connections.
type connWriter interface {
	Write(b []byte) (int, error)
	SetWriteDeadline(t time.Time) error
	Close() error
}

// New starts a shipper. It never fails because the archiver is down —
// that is the point — only on local misconfiguration (an unusable
// spool directory).
func New(cfg Config) (*Shipper, error) {
	cfg = cfg.withDefaults()
	s := &Shipper{
		cfg:    cfg,
		rng:    simtime.NewRNG(cfg.Seed),
		queue:  make([][]byte, cfg.MemSpool),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if cfg.SpoolDir != "" && cfg.Dial != nil {
		spool, err := openDiskSpool(cfg.SpoolDir, cfg.MaxSpoolBytes)
		if err != nil {
			return nil, err
		}
		s.spool = spool
		s.stats.SpoolPending = uint64(spool.pending)
		if spool.pending > 0 {
			s.logf("resilient: %d spooled records from a previous run pending replay", spool.pending)
		}
	}
	go s.run()
	return s, nil
}

// Emit implements controlplane.Sink: encode, enqueue, never block on
// the network. Overflow drops the oldest queued record and counts it.
func (s *Shipper) Emit(r controlplane.Report) {
	var scratch [512]byte // a metric line is 220–330 B
	line, err := r.AppendJSONLine(scratch[:0])
	s.mu.Lock()
	s.stats.Emitted++
	if err != nil || s.closing {
		s.stats.Dropped++
		s.mu.Unlock()
		s.tev("drop", 0, 0)
		return
	}
	dropOldest := false
	if s.n == len(s.queue) {
		// Drop-oldest: stale telemetry is worth less than fresh. The slot
		// is freed either way; a record in flight is not dropped by it.
		s.head = (s.head + 1) % len(s.queue)
		s.n--
		if s.evicted < s.inflight {
			s.evicted++
		} else {
			s.stats.Dropped++
			dropOldest = true
		}
	}
	// A slot freed by drop-oldest still holds its line's buffer, reused in
	// place: a line in flight was already copied into front by take.
	slot := &s.queue[(s.head+s.n)%len(s.queue)]
	if *slot == nil {
		if len(s.spare) == 0 {
			block := make([]byte, chunkBytes)
			for i := 0; i < chunkBytes; i += lineBytes {
				s.spare = append(s.spare, block[i:i:i+lineBytes])
			}
		}
		*slot = s.spare[len(s.spare)-1]
		s.spare = s.spare[:len(s.spare)-1]
	}
	*slot = append((*slot)[:0], line...)
	s.n++
	s.stats.Queued = uint64(s.n + s.evicted)
	s.mu.Unlock()
	if dropOldest {
		s.tev("drop_oldest", uint64(len(s.queue)), 0)
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// lineBytes is the size of one queue buffer, which holds every kind of
// line (the longest, a flow summary with identity, is about 410 B);
// chunkBytes is what Emit cuts into them when the free list is empty.
const (
	lineBytes  = 512
	chunkBytes = 64 << 10
)

// Stats returns a consistent snapshot of the counters.
func (s *Shipper) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close flushes and stops the shipper: queued records are shipped if
// the connection is healthy, spilled to the disk spool if not, and
// degraded to the fallback writer as a last resort. It is idempotent
// and returns after the background goroutine has terminated.
func (s *Shipper) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closing = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	if s.spool != nil {
		return s.spool.close()
	}
	return nil
}

func (s *Shipper) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Shipper) isClosing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// bump adjusts one counter under the lock.
func (s *Shipper) bump(c *uint64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// run is the single owner of connection/spool state. Its loop always
// observes the stop channel (directly or through sleep/next), so the
// goroutine terminates promptly on Close.
func (s *Shipper) run() {
	defer close(s.done)
	defer func() {
		if s.conn != nil {
			s.conn.Close()
		}
	}()
	for {
		if s.cfg.Dial == nil {
			if !s.terminalStep() {
				return
			}
			continue
		}
		if s.conn == nil {
			if !s.connectStep() {
				s.finalize()
				return
			}
			continue
		}
		// Connected: older disk records replay before fresh ones so
		// per-flow report order survives an outage.
		if s.spool != nil && (s.spool.pending > 0 || s.spool.peeked != nil) {
			if err := s.replaySpool(); err != nil {
				s.connFailed("replay: %v", err)
				continue
			}
		}
		front, k, ok := s.next(frontBytes)
		if !ok {
			s.finalize()
			return
		}
		if k == 0 {
			continue // spurious wakeup; re-check state
		}
		if err := s.shipFront(front, k); err != nil {
			s.connFailed("write: %v", err)
		}
	}
}

// frontBytes bounds the front one conn.Write carries: whatever is queued
// when the run goroutine looks, up to this many bytes (and always one
// record). An idle shipper therefore still writes a report the moment it
// arrives; a busy one amortises the syscall over a few hundred.
const frontBytes = 64 << 10

// take starts a flight: the oldest queued records, up to limit bytes and
// at least one, copied back to back into the front buffer. The records
// stay queued until settle. It returns k == 0 when the queue is empty,
// and whether the shipper is closing.
func (s *Shipper) take(limit int) (front []byte, k int, closing bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	front = s.front[:0]
	for k < s.n {
		line := s.queue[(s.head+k)%len(s.queue)]
		if k > 0 && len(front)+len(line) > limit {
			break
		}
		front = append(front, line...)
		k++
	}
	s.front, s.inflight = front, k
	return front, k, s.closing
}

// next is take, blocking until a record exists. It returns ok=false when
// the shipper is closing and the queue is empty, and k == 0 with ok=true
// on a spurious wakeup.
func (s *Shipper) next(limit int) (front []byte, k int, ok bool) {
	front, k, closing := s.take(limit)
	if k > 0 || closing {
		return front, k, k > 0
	}
	select {
	case <-s.notify:
	case <-s.stop:
	}
	return nil, 0, true
}

// settle ends the flight: its first done records reached the terminal
// state counter names and leave the queue; the rest stay queued for the
// next attempt — except those an overflow evicted meanwhile, whose slot
// is gone: they are the drop-oldest victims after all.
func (s *Shipper) settle(done int, counter *uint64) {
	s.mu.Lock()
	s.settleLocked(done, counter)
	s.mu.Unlock()
}

// settleLocked is settle with s.mu already held — used where it must be
// atomic with other counter updates (the disk-spill transition, the
// write counters) so a concurrent Stats snapshot never sees a record in
// two states at once.
func (s *Shipper) settleLocked(done int, counter *uint64) {
	*counter += uint64(done)
	if lost := s.evicted - done; lost > 0 {
		s.stats.Dropped += uint64(lost)
	}
	for i := s.evicted; i < done; i++ {
		if buf := s.queue[s.head]; cap(buf) == lineBytes {
			s.spare = append(s.spare, buf)
		}
		s.queue[s.head] = nil
		s.head = (s.head + 1) % len(s.queue)
		s.n--
	}
	s.inflight, s.evicted = 0, 0
	s.stats.Queued = uint64(s.n)
}

// shipFront writes a flight of k records to the live connection in one
// Write and settles exactly those whose last byte the connection
// accepted: a torn write leaves the rest queued, to be resent from the
// first unaccepted record on the next connection (the archiver discards
// the torn prefix as one undecodable line).
func (s *Shipper) shipFront(front []byte, k int) error {
	// A deadline-set failure surfaces as a write failure right after;
	// no separate handling needed.
	_ = s.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	n, err := s.conn.Write(front)
	done := k
	if n < len(front) {
		done = bytes.Count(front[:n], []byte{'\n'})
	}
	s.mu.Lock()
	s.stats.Writes++
	s.stats.WriteBytes += uint64(n)
	if done < k {
		s.stats.Retried++
	}
	lost := s.evicted - done
	s.settleLocked(done, &s.stats.Shipped)
	s.mu.Unlock()
	if done > 0 {
		s.tev("ship", uint64(n), uint64(done))
	}
	if done < k {
		s.tev("retry", uint64(n), uint64(len(front)))
	}
	if lost > 0 {
		s.tev("drop_oldest", uint64(len(s.queue)), uint64(lost))
	}
	return err // a fully-accepted write may still report the teardown
}

// replaySpool streams pending disk records to the connection, oldest
// first, truncating the file once drained. On a connection error the
// cursor stays put and replay resumes on the next connect.
func (s *Shipper) replaySpool() error {
	for {
		line, err := s.spool.peek()
		if err != nil {
			// The spool file itself is unreadable; counted loss beats
			// a wedged shipper. Drop the remainder and reset.
			s.mu.Lock()
			s.stats.Dropped += uint64(s.spool.pending)
			s.stats.SpoolPending = 0
			s.mu.Unlock()
			s.tev("spool_abandon", uint64(s.spool.pending), 0)
			s.logf("resilient: abandoning unreadable spool: %v", err)
			s.spool.pending = 0
			s.spool.peeked = nil
			s.spool.readOff = s.spool.size
			return nil
		}
		if line == nil {
			return nil
		}
		_ = s.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		n, werr := s.conn.Write(line)
		if n == len(line) {
			if derr := s.spool.delivered(); derr != nil {
				s.logf("resilient: spool bookkeeping: %v", derr)
			}
		}
		s.mu.Lock()
		s.stats.Writes++
		s.stats.WriteBytes += uint64(n)
		if n != len(line) {
			s.stats.Retried++
			s.mu.Unlock()
			return werr
		}
		s.stats.Replayed++
		s.stats.SpoolPending = uint64(s.spool.pending)
		s.mu.Unlock()
		s.tev("replay", uint64(n), 0)
		if werr != nil {
			return werr
		}
	}
}

// connFailed tears down the connection and advances the breaker.
func (s *Shipper) connFailed(format string, args ...interface{}) {
	s.logf("resilient: connection failed: "+format, args...)
	if s.conn != nil {
		_ = s.conn.Close() // already failed; teardown is best-effort
		s.conn = nil
	}
	s.consecFail++
	s.tev("conn_fail", uint64(s.consecFail), 0)
	s.maybeOpenBreaker()
}

func (s *Shipper) maybeOpenBreaker() {
	if !s.breakerOpen && s.consecFail >= s.cfg.BreakerFailures {
		s.breakerOpen = true
		s.bump(&s.stats.BreakerOpens)
		s.tev("breaker_open", uint64(s.consecFail), 0)
		s.logf("resilient: circuit breaker open after %d consecutive failures; spilling to %s",
			s.consecFail, s.spoolDesc())
	}
}

func (s *Shipper) spoolDesc() string {
	if s.spool != nil {
		return s.spool.path
	}
	return "fallback writer"
}

// connectStep runs one iteration of the disconnected state: spill if
// the breaker is open, try to dial, back off on failure. It returns
// false when the shipper should finalize and exit.
func (s *Shipper) connectStep() bool {
	if s.breakerOpen {
		s.spillQueue()
	}
	if s.isClosing() {
		return false
	}
	s.bump(&s.stats.DialAttempts)
	conn, err := s.cfg.Dial()
	if err == nil {
		if s.consecFail > 0 {
			s.bump(&s.stats.Reconnects)
			s.logf("resilient: reconnected after %d failures", s.consecFail)
		}
		if s.breakerOpen {
			s.tev("breaker_close", uint64(s.consecFail), 0)
			s.logf("resilient: circuit breaker closed; replaying spool")
		}
		s.tev("connect", uint64(s.consecFail), 0)
		s.conn = conn
		s.consecFail = 0
		s.breakerOpen = false
		s.backoff = 0
		return true
	}
	s.consecFail++
	if !s.breakerOpen {
		// Traced only up to the breaker transition (at most
		// BreakerFailures per outage): an outage's worth of failed dials
		// would push breaker_open and the last ship out of the trace
		// ring. DialAttempts counts the rest.
		s.tev("dial_fail", uint64(s.consecFail), 0)
	}
	s.maybeOpenBreaker()
	if s.breakerOpen {
		// Spill what arrived while dialing before going back to sleep.
		s.spillQueue()
	}
	return s.sleep(s.nextBackoff())
}

// nextBackoff doubles the base delay up to the cap and applies equal
// jitter in [d/2, d). The RNG is seeded, so a scripted fault sequence
// reproduces the same schedule run after run.
func (s *Shipper) nextBackoff() time.Duration {
	if s.backoff == 0 {
		s.backoff = s.cfg.BackoffMin
	} else {
		s.backoff = s.backoff * 2
		if s.backoff > s.cfg.BackoffMax {
			s.backoff = s.cfg.BackoffMax
		}
	}
	half := s.backoff / 2
	return half + time.Duration(s.rng.Float64()*float64(half))
}

// sleep waits d, abandoning the wait when Close arrives. Tests inject
// Config.Sleep to record the schedule instead of actually waiting.
func (s *Shipper) sleep(d time.Duration) bool {
	if s.cfg.Sleep != nil {
		return s.cfg.Sleep(d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.stop:
		return false
	}
}

// spillQueue drains the memory queue to the disk spool (breaker open),
// degrading to the fallback writer when the spool is absent, full or
// broken.
func (s *Shipper) spillQueue() {
	for {
		line, k, _ := s.take(0)
		if k == 0 {
			return
		}
		s.spillOne(line)
	}
}

// spillOne moves one queued record to the disk spool or fallback.
func (s *Shipper) spillOne(line []byte) {
	if s.spool != nil {
		switch err := s.spool.append(line); err {
		case nil:
			// One lock for SpoolPending and the settle: a concurrent
			// Stats snapshot (the /metrics scrape) must never see the
			// record counted as both queued and spool-pending.
			s.mu.Lock()
			s.stats.SpoolPending = uint64(s.spool.pending)
			s.settleLocked(1, &s.stats.Spilled)
			s.mu.Unlock()
			s.tev("spill", uint64(len(line)), 0)
			return
		case ErrSpoolFull:
			s.logf("resilient: disk spool full (%d bytes cap); degrading to fallback", s.cfg.MaxSpoolBytes)
		default:
			s.logf("resilient: disk spool write failed: %v; degrading to fallback", err)
		}
	}
	s.toFallback(line)
}

// toFallback degrades a flight of one record to the fallback writer.
func (s *Shipper) toFallback(line []byte) {
	if _, err := s.cfg.Fallback.Write(line); err != nil {
		s.settle(1, &s.stats.Dropped)
		s.tev("drop", uint64(len(line)), 0)
		return
	}
	s.settle(1, &s.stats.Fallback)
	s.tev("fallback", uint64(len(line)), 0)
}

// terminalStep is the Dial == nil mode: one record from queue to
// fallback, blocking while idle. Returns false when closing and empty.
func (s *Shipper) terminalStep() bool {
	line, k, ok := s.next(0)
	if ok && k > 0 {
		s.toFallback(line)
	}
	return ok
}

// finalize is the shutdown flush: with no usable connection every
// remaining record is spilled (disk first, then fallback) so nothing
// silently vanishes. Remaining disk records stay pending for the next
// run.
func (s *Shipper) finalize() {
	s.spillQueue()
}

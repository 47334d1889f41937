package resilient

import (
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

	mu      sync.Mutex
	queue   [][]byte // ring buffer of encoded NDJSON lines
	head    int
	n       int
	stats   Stats
	closing bool

	notify chan struct{} // cap 1: "the queue may be non-empty"
	stop   chan struct{} // closed by Close
	done   chan struct{} // closed when run returns

	// trace, when set by RegisterObs, receives one event per
	// report-lifecycle and ladder transition. Atomic because
	// registration may race the run goroutine.
	trace atomic.Pointer[obs.Trace]

	// Run-loop state, touched only by the run goroutine.
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
	line, err := r.MarshalJSONLine()
	s.mu.Lock()
	s.stats.Emitted++
	if err != nil || s.closing {
		s.stats.Dropped++
		s.mu.Unlock()
		s.tev("drop", 0, 0)
		return
	}
	dropOldest := s.n == len(s.queue)
	if dropOldest {
		// Drop-oldest: stale telemetry is worth less than fresh.
		s.head = (s.head + 1) % len(s.queue)
		s.n--
		s.stats.Dropped++
	}
	s.queue[(s.head+s.n)%len(s.queue)] = line
	s.n++
	s.stats.Queued = uint64(s.n)
	s.mu.Unlock()
	if dropOldest {
		s.tev("drop_oldest", uint64(len(s.queue)), 0)
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

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
		line, ok := s.next()
		if !ok {
			s.finalize()
			return
		}
		if line == nil {
			continue // spurious wakeup; re-check state
		}
		if err := s.shipHead(line); err != nil {
			s.connFailed("write: %v", err)
		}
	}
}

// next peeks the oldest queued record, blocking until one exists. It
// returns ok=false when the shipper is closing and the queue is empty,
// and (nil, true) on a spurious wakeup.
func (s *Shipper) next() ([]byte, bool) {
	s.mu.Lock()
	if s.n > 0 {
		line := s.queue[s.head]
		s.mu.Unlock()
		return line, true
	}
	closing := s.closing
	s.mu.Unlock()
	if closing {
		return nil, false
	}
	select {
	case <-s.notify:
	case <-s.stop:
	}
	return nil, true
}

// pop removes the queue head after its record reached a terminal
// state, crediting the given counter.
func (s *Shipper) pop(counter *uint64) {
	s.mu.Lock()
	s.popLocked(counter)
	s.mu.Unlock()
}

// popLocked is pop with s.mu already held — used where the pop must be
// atomic with other counter updates (the disk-spill transition) so a
// concurrent Stats snapshot never sees a record in two states at once.
func (s *Shipper) popLocked(counter *uint64) {
	s.queue[s.head] = nil
	s.head = (s.head + 1) % len(s.queue)
	s.n--
	s.stats.Queued = uint64(s.n)
	*counter++
}

// shipHead writes the queue head to the live connection. The record is
// popped only once every byte was accepted, so a torn write leaves it
// queued for resend on the next connection (the archiver discards the
// torn prefix as one undecodable line).
func (s *Shipper) shipHead(line []byte) error {
	// A deadline-set failure surfaces as a write failure right after;
	// no separate handling needed.
	_ = s.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	n, err := s.conn.Write(line)
	if n == len(line) {
		s.pop(&s.stats.Shipped)
		s.tev("ship", uint64(n), 0)
		return err // a fully-accepted write may still report the teardown
	}
	s.bump(&s.stats.Retried)
	s.tev("retry", uint64(n), uint64(len(line)))
	return err
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
		if n != len(line) {
			s.bump(&s.stats.Retried)
			return werr
		}
		if derr := s.spool.delivered(); derr != nil {
			s.logf("resilient: spool bookkeeping: %v", derr)
		}
		s.mu.Lock()
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
		s.mu.Lock()
		if s.n == 0 {
			s.mu.Unlock()
			return
		}
		line := s.queue[s.head]
		s.mu.Unlock()
		s.spillOne(line)
	}
}

// spillOne moves one queued record to the disk spool or fallback.
func (s *Shipper) spillOne(line []byte) {
	if s.spool != nil {
		switch err := s.spool.append(line); err {
		case nil:
			// One lock for SpoolPending and the pop: a concurrent
			// Stats snapshot (the /metrics scrape) must never see the
			// record counted as both queued and spool-pending.
			s.mu.Lock()
			s.stats.SpoolPending = uint64(s.spool.pending)
			s.popLocked(&s.stats.Spilled)
			s.mu.Unlock()
			s.tev("spill", uint64(len(line)), 0)
			return
		case ErrSpoolFull:
			s.logf("resilient: disk spool full (%d bytes cap); degrading to fallback", s.cfg.MaxSpoolBytes)
		default:
			s.logf("resilient: disk spool write failed: %v; degrading to fallback", err)
		}
	}
	if _, err := s.cfg.Fallback.Write(line); err != nil {
		s.pop(&s.stats.Dropped)
		s.tev("drop", uint64(len(line)), 0)
		return
	}
	s.pop(&s.stats.Fallback)
	s.tev("fallback", uint64(len(line)), 0)
}

// terminalStep is the Dial == nil mode: one record from queue to
// fallback, blocking while idle. Returns false when closing and empty.
func (s *Shipper) terminalStep() bool {
	line, ok := s.next()
	if !ok {
		return false
	}
	if line == nil {
		return true
	}
	if _, err := s.cfg.Fallback.Write(line); err != nil {
		s.pop(&s.stats.Dropped)
		s.tev("drop", uint64(len(line)), 0)
		return true
	}
	s.pop(&s.stats.Fallback)
	s.tev("fallback", uint64(len(line)), 0)
	return true
}

// finalize is the shutdown flush: with no usable connection every
// remaining record is spilled (disk first, then fallback) so nothing
// silently vanishes. Remaining disk records stay pending for the next
// run.
func (s *Shipper) finalize() {
	s.spillQueue()
}

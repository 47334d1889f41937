package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
	"repro/internal/psarchiver"
	"repro/internal/resilient"
)

// drainTimeout bounds every wait on the asynchronous half of the path
// (shipper goroutine, TCP, archiver goroutines). Hitting it is a failed
// run, never a silent pass.
const drainTimeout = 60 * time.Second

// archiver is the receiving half of the production path: a TCPInput on
// 127.0.0.1 feeding the Logstash-model Pipeline and the Store, plus the
// benchmark's own output callback, which is where a report's journey is
// declared over.
type archiver struct {
	pipeline *psarchiver.Pipeline
	store    *psarchiver.Store
	input    *psarchiver.TCPInput

	// members routes a stored document to the sender that emitted it, by
	// switch_id ("" in single-switch runs). Filled before traffic starts
	// and read-only afterwards.
	members map[string]*member
	// unattributed counts documents no member claims; always 0 in a
	// correct run.
	unattributed atomic.Uint64
}

// newArchiver starts the receiving half on a loopback port.
func newArchiver() (*archiver, error) {
	a := &archiver{
		pipeline: psarchiver.NewPipeline(),
		store:    psarchiver.NewStore(),
		members:  make(map[string]*member),
	}
	a.pipeline.OpenSearchOutput(a.store)
	in, err := psarchiver.NewTCPInput(a.pipeline, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	a.input = in
	return a, nil
}

// watch installs the benchmark's output callback after the store's, so
// a document is timed once it has been indexed. Documents loaded before
// watch is called (the observatory's preload) are not joined.
func (a *archiver) watch() {
	a.pipeline.AddOutput(func(_ string, doc psarchiver.Document) {
		now := nowNs()
		m := a.members[doc.Str("switch_id")]
		if m == nil {
			a.unattributed.Add(1)
			return
		}
		m.indexedOne(doc, now)
	})
}

// close stops the input and waits for its connection goroutines.
func (a *archiver) close() error { return a.input.Close() }

// reportKey fingerprints the fields a stored document is joined to its
// report on. Order is what pairs the two (one connection per member,
// first in first out); the key proves the pairing is right.
func reportKey(timeNs int64, kind, metric, flowID string) uint64 {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211
	}
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(timeNs>>(8*i)))) * 1099511628211
	}
	mix(kind)
	mix(metric)
	mix(flowID)
	return h
}

// member is one sending switch: the sink chain the control plane (or
// the observatory's writer) emits into, its resilient.Shipper, and the
// per-report timestamps the latency figures are computed from.
type member struct {
	site, sw string
	arch     *archiver
	shipper  *resilient.Shipper
	// sink is the head of the chain: IdentitySink (when the member has
	// an identity) → this member's stamp → Shipper.
	sink controlplane.Sink
	tr   *tracer

	// connected is closed by the first successful dial.
	connected chan struct{}
	connOnce  sync.Once
	conn      *countingConn // traced runs only

	// nextDue, when non-zero, is the scheduled send time of the next
	// report (open loop): latency is then counted from when the report
	// was due, not from when the generator got round to it.
	nextDue int64

	mu       sync.Mutex
	emitAt   []int64  // per report: when Shipper.Emit was called (or was due)
	keys     []uint64 // per report: reportKey
	emitSpan []int64  // traced: Shipper.Emit call start,end pairs
	captured []controlplane.Report
	capture  int // how many reports to keep for the isolated kernels

	emitted atomic.Uint64

	// Written by the member's one input goroutine, read after the drain.
	indexedAt  []int64
	mismatches uint64
	indexed    atomic.Uint64
	// lastIndexed is the time of the most recent indexed document.
	lastIndexed atomic.Int64

	fallback countingWriter
}

// countingWriter is the shipper's last-resort writer here: nothing may
// reach it in a correct run, and what does is counted, not printed over
// the benchmark's own output.
type countingWriter struct{ n atomic.Uint64 }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n.Add(1)
	return len(b), nil
}

// memberConfig is what cmd/collector's flags let an operator set on the
// sending side; every other resilient.Config field keeps its default.
type memberConfig struct {
	site, sw string
	memSpool int
	seed     uint64
	tr       *tracer
	capture  int
}

// newMember builds one sender shipping to a over TCP loopback and
// registers it for the join. The shipper dials in its own goroutine;
// waitConnected blocks until the connection is up.
func newMember(a *archiver, cfg memberConfig) (*member, error) {
	m := &member{
		site: cfg.site, sw: cfg.sw, arch: a, tr: cfg.tr,
		connected: make(chan struct{}),
		capture:   cfg.capture,
	}
	addr := a.input.Addr()
	sc := resilient.Config{
		MemSpool: cfg.memSpool,
		Seed:     cfg.seed,
		Fallback: &m.fallback,
		Dial: func() (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			m.connOnce.Do(func() { close(m.connected) })
			if m.tr != nil {
				m.conn = &countingConn{Conn: c}
				return m.conn, nil
			}
			return c, nil
		},
	}
	sh, err := resilient.New(sc)
	if err != nil {
		return nil, err
	}
	m.shipper = sh
	m.sink = stampSink{m}
	if cfg.site != "" || cfg.sw != "" {
		m.sink = controlplane.IdentitySink{SiteID: cfg.site, SwitchID: cfg.sw, Next: stampSink{m}}
	}
	a.members[cfg.sw] = m
	return m, nil
}

// waitConnected blocks until the shipper's first dial succeeded.
func (m *member) waitConnected() error {
	select {
	case <-m.connected:
		return nil
	case <-time.After(drainTimeout):
		return fmt.Errorf("shipper %s/%s never connected", m.site, m.sw)
	}
}

// stampSink sits directly in front of the Shipper. It is the "Emit"
// end of the report-latency measurement and the per-report emit span.
type stampSink struct{ m *member }

// Emit implements controlplane.Sink.
func (s stampSink) Emit(r controlplane.Report) {
	m := s.m
	t0 := nowNs()
	at := m.nextDue
	if at == 0 {
		at = t0
	}
	key := reportKey(r.TimeNs, r.Kind, string(r.Metric), r.FlowID)
	m.mu.Lock()
	m.emitAt = append(m.emitAt, at)
	m.keys = append(m.keys, key)
	if len(m.captured) < m.capture {
		m.captured = append(m.captured, r)
	}
	m.mu.Unlock()
	m.emitted.Add(1)
	if m.tr == nil {
		m.shipper.Emit(r)
		return
	}
	t0 = nowNs() // the stamp's own bookkeeping is not the shipper's time
	m.shipper.Emit(r)
	t1 := nowNs()
	m.mu.Lock()
	m.emitSpan = append(m.emitSpan, t0, t1)
	m.mu.Unlock()
}

// indexedOne is the archiver side of the join: the k-th document that
// arrives on this member's connection is the k-th report it emitted.
func (m *member) indexedOne(doc psarchiver.Document, now int64) {
	k := len(m.indexedAt)
	t, _ := doc.Float("time_ns")
	key := reportKey(int64(t), doc.Str("kind"), doc.Str("metric"), doc.Str("flow_id"))
	m.mu.Lock()
	ok := k < len(m.keys) && m.keys[k] == key
	m.mu.Unlock()
	if !ok {
		m.mismatches++
	}
	m.indexedAt = append(m.indexedAt, now)
	m.lastIndexed.Store(now)
	m.indexed.Add(1)
}

// inFlight is how many emitted reports have not been indexed yet.
func (m *member) inFlight() uint64 { return m.emitted.Load() - m.indexed.Load() }

// drain waits until every emitted report has been indexed.
func (m *member) drain() error {
	deadline := time.Now().Add(drainTimeout)
	for m.indexed.Load() < m.emitted.Load() {
		if time.Now().After(deadline) {
			return fmt.Errorf("drain: %d of %d reports indexed after %v (shipper %s)",
				m.indexed.Load(), m.emitted.Load(), drainTimeout, m.shipper.Stats())
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// latenciesMs returns emit(or due)→indexed for reports [from, to), in
// emission order. Call only after drain.
func (m *member) latenciesMs(from, to int) []float64 {
	if to > len(m.indexedAt) {
		to = len(m.indexedAt)
	}
	out := make([]float64, 0, to-from)
	for k := from; k < to; k++ {
		out = append(out, float64(m.indexedAt[k]-m.emitAt[k])/1e6)
	}
	return out
}

// countingConn wraps the shipper's connection on traced runs. It counts
// the newline-terminated reports each Write carries, so a write can be
// paired with the reports it shipped, and times every Write.
type countingConn struct {
	net.Conn

	// Touched only by the shipper's run goroutine; read after Close.
	calls    uint64
	lines    uint64
	bytes    uint64
	writeNs  int64
	writeEnd []int64 // per line: tracer time its Write returned
}

// Write implements net.Conn.
func (c *countingConn) Write(b []byte) (int, error) {
	t0 := nowNs()
	n, err := c.Conn.Write(b)
	t1 := nowNs()
	c.calls++
	c.writeNs += t1 - t0
	c.bytes += uint64(n)
	for i := bytes.Count(b[:n], []byte{'\n'}); i > 0; i-- {
		c.lines++
		c.writeEnd = append(c.writeEnd, t1)
	}
	return n, err
}
